"""The names the bench's tracer wraps exist in the hoij under test.

``bench/tracer.py`` wraps each ``(module, attribute)`` of ``TRACED`` and each
weight generator of ``WEIGHT_GENERATORS`` by name, with ``getattr``, so a
name removed from ``hoij`` would fail every traced bench run.  The tracer is
read from the bench directory as it is.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import hoij  # noqa: F401  (the tracer wraps names in the loaded hoij modules)

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    # registered while it runs: its dataclasses look their module up
    spec = importlib.util.spec_from_file_location("hoij_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_names_resolve():
    tracer = _tracer()
    for mod, attr in tracer.TRACED:
        assert callable(getattr(importlib.import_module(mod), attr, None)), (mod, attr)
    models = importlib.import_module("hoij.models")
    for attr in tracer.WEIGHT_GENERATORS:
        assert callable(getattr(models, attr, None)), attr


def test_tracer_installs_and_restores():
    tracer = _tracer()
    for mod, _ in tracer.TRACED:
        importlib.import_module(mod)
    before = {name: dict(vars(m)) for name, m in sys.modules.items()
              if name == "hoij" or name.startswith("hoij.")}
    with tracer.Tracer() as t:
        assert len(t._saved) >= len(tracer.TRACED) + len(tracer.WEIGHT_GENERATORS)
    for name, attrs in before.items():
        for attr, value in attrs.items():
            assert getattr(sys.modules[name], attr) is value, (name, attr)
