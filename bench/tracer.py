"""Spans around calls into hoij's layers, recorded from outside the package.

``Tracer.install`` replaces selected module attributes with timing wrappers
in every ``hoij`` module that binds them (for example ``solve_base`` in
``hoij.expansion`` and also where ``hoij.cli`` and ``hoij.resampling``
imported it), and ``restore`` puts the originals back.  Spans live in memory:
each has an id, its parent's id, a name, start and end times, a request id
(the label of the weight vector being processed, when one is known) and a
few counters.  Nothing inside ``src/`` is edited.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Optional

# (module, attribute) pairs wrapped as spans named "<layer>.<attribute>".
TRACED = (
    ("hoij.cli", "main"),
    ("hoij.models", "load_dataset"),
    ("hoij.models", "evaluate_g"),
    ("hoij.terms", "term_tables"),
    ("hoij.expansion", "solve_base"),
    ("hoij.expansion", "exact_refit"),
    ("hoij.expansion", "assemble_jacobian"),
    ("hoij.expansion", "factorize_hessian"),
    ("hoij.expansion", "evaluate_theta_ij"),
    ("hoij.expansion", "evaluate_dtheta"),
    ("hoij.forward_ad", "g_theta_derivative"),
    ("hoij.forward_ad", "g_weight_derivative"),
    ("hoij.bounds", "default_sampler"),
    ("hoij.bounds", "estimate_constants"),
    ("hoij.bounds", "per_datum_derivative_entries"),
    ("hoij.bounds", "operator_norm_of_inverse"),
    ("hoij.resampling", "run_cv"),
    ("hoij.resampling", "sandwich_covariance"),
    ("hoij.resampling", "ij_linear_covariance"),
    ("hoij.resampling", "bootstrap_linear_samples"),
)

# Weight generators: each item they yield is timed as a "models.weights" span.
WEIGHT_GENERATORS = ("loo_weights", "kfold_weights",
                     "leave_kappa_out_weights", "bootstrap_weights")

# Calls whose peak allocation is measured with tracemalloc.
ALLOC_MEASURED = {"resampling.ij_linear_covariance"}


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    request: Optional[str] = None
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _counters(name: str, args, kwargs) -> dict:
    """Work counts taken from a call's arguments, for the layers that have them."""
    import numpy as np

    if name == "forward_ad.g_theta_derivative":
        return {"rows": args[0].n_terms}
    if name == "forward_ad.g_weight_derivative":
        # g_weight_derivative(problem, theta, delta_w, directions)
        delta_w = args[2] if len(args) > 2 else kwargs["delta_w"]
        delta = np.asarray(getattr(delta_w, "delta", delta_w))
        return {"rows": int(np.count_nonzero(delta))}
    if name == "bounds.per_datum_derivative_entries":
        k = args[2] if len(args) > 2 else kwargs["k"]
        return {"direction_tuples": args[0].dim_theta ** k}
    if name == "expansion.evaluate_dtheta":
        dset = args[4] if len(args) > 4 else kwargs["dset"]
        return {"k": len(dset) + 1}
    return {}


class Tracer:
    """Records spans for the calls made while it is installed (one thread)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._labels: dict = {}      # id(weight vector or its delta) -> label
        self._keep: list = []        # keeps registered objects alive
        self._saved: list = []       # (module, attribute, original) to restore

    # -- recording --

    def _request(self, args) -> Optional[str]:
        for a in args:
            label = self._labels.get(id(a))
            if label is not None:
                return label
        return self._stack[-1].request if self._stack else None

    def _open(self, name: str, args=(), kwargs=None) -> Span:
        span = Span(len(self.spans), self._stack[-1].id if self._stack else None,
                    name, 0.0, request=self._request(args),
                    counters=_counters(name, args, kwargs or {}))
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _register(self, w) -> None:
        self._labels[id(w)] = w.label
        self._labels[id(w.delta)] = w.label
        self._keep.append(w)

    def _wrap(self, name: str, fn):
        tracer = self
        alloc = name in ALLOC_MEASURED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name, args, kwargs)
            if alloc:
                tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                if alloc:
                    span.counters["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer._close(span)
        return wrapper

    def _wrap_generator(self, fn):
        tracer = self

        def timed(gen):
            while True:
                span = tracer._open("models.weights")
                try:
                    w = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._close(span)
                span.request = w.label
                tracer._register(w)
                yield w

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return timed(fn(*args, **kwargs))
        return wrapper

    # -- installing --

    def install(self) -> None:
        """Wrap every traced attribute wherever a hoij module binds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "hoij" or name.startswith("hoij."))]
        targets = [(getattr(sys.modules[mod], attr),
                    self._wrap(f"{mod.split('.')[-1]}.{attr}",
                               getattr(sys.modules[mod], attr)))
                   for mod, attr in TRACED]
        gens = sys.modules["hoij.models"]
        targets += [(getattr(gens, attr), self._wrap_generator(getattr(gens, attr)))
                    for attr in WEIGHT_GENERATORS]
        replacement = {id(orig): wrapped for orig, wrapped in targets}
        for m in modules:
            for attr, value in list(vars(m).items()):
                wrapped = replacement.get(id(value))
                if wrapped is not None:
                    self._saved.append((m, attr, value))
                    setattr(m, attr, wrapped)

    def restore(self) -> None:
        for m, attr, value in reversed(self._saved):
            setattr(m, attr, value)
        self._saved.clear()
        self._labels.clear()
        self._keep.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def self_time(span: Span, children: list) -> float:
    """Span duration minus the part of its interval its children cover."""
    covered, cur_start, cur_end = 0.0, None, None
    for c in sorted(children, key=lambda s: s.start):
        start, end = max(c.start, span.start), min(c.end, span.end)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.duration - covered
