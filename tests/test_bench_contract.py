"""The hoij under test meets what the bench reads from it.

``bench/tracer.py`` wraps each ``(module, attribute)`` of ``TRACED`` and each
weight generator of ``WEIGHT_GENERATORS`` by name, with ``getattr``, so a
name removed from ``hoij`` would fail every traced bench run.  The bench
also checks every output of its workloads (``bench/workloads.py``), so a
change that fails those checks fails here first.  The bench's modules are
read from the bench directory as they are.
"""

import contextlib
import importlib
import io
import json
import sys

import pytest

import hoij  # noqa: F401  (the tracer wraps names in the loaded hoij modules)
from hoij.cli import main

from helpers import BENCH, bench_module


def test_traced_names_resolve():
    tracer = bench_module("tracer")
    for mod, attr in tracer.TRACED:
        assert callable(getattr(importlib.import_module(mod), attr, None)), (mod, attr)
    models = importlib.import_module("hoij.models")
    for attr in tracer.WEIGHT_GENERATORS:
        assert callable(getattr(models, attr, None)), attr


def test_tracer_installs_and_restores():
    tracer = bench_module("tracer")
    for mod, _ in tracer.TRACED:
        importlib.import_module(mod)
    before = {name: dict(vars(m)) for name, m in sys.modules.items()
              if name == "hoij" or name.startswith("hoij.")}
    with tracer.Tracer() as t:
        assert len(t._saved) >= len(tracer.TRACED) + len(tracer.WEIGHT_GENERATORS)
    for name, attrs in before.items():
        for attr, value in attrs.items():
            assert getattr(sys.modules[name], attr) is value, (name, attr)


wl = bench_module("workloads")


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_workload_outputs_pass_the_bench_checks(name, tmp_path):
    """The full and set-up commands on the reference dataset pass the bench's
    output checks, and the full output matches the recorded reference."""
    workload = wl.WORKLOADS[name]
    data = tmp_path / "data.csv"
    info = wl.write_dataset(workload, wl.REFERENCE_SEED, data)
    reference = json.loads((BENCH / "reference.json").read_text())
    for setup in (False, True):
        out = tmp_path / ("setup.json" if setup else "out.json")
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(workload.argv(data, out, wl.REFERENCE_SEED, setup)) == 0
        obj = json.loads(out.read_text())
        assert wl.check_output(workload, obj, setup) == []
        if not setup:
            assert wl.check_reference(workload, obj, reference, info) == []
