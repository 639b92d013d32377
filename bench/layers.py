"""Per-layer metrics computed from one traced repetition's spans.

Layers are hoij's modules; README.md lists the end-to-end metric each
one should move, per workload.  "Per item" divides by the workload's items:
weight vectors for loo_cv and bootstrap, sampled points for bounds.

Every metric is measured on the workload's own command.  A layer that
command never calls (``exact_refit`` on bootstrap, say) reads 0 there, and
``not_measured`` names it.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import self_time

MS = 1000.0

# name -> (unit, better)
LAYER_METRICS = {
    "cli.main.self_ms": ("ms", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "models.load_dataset.ms": ("ms", "lower"),
    "models.weights.ms": ("ms", "lower"),
    "models.evaluate_g.calls": ("count", "lower"),
    "terms.term_tables.ms": ("ms", "lower"),
    "expansion.solve_base.ms": ("ms", "lower"),
    "expansion.solve_base.newton_steps": ("count", "lower"),
    "expansion.factorize_hessian.ms": ("ms", "lower"),
    "expansion.evaluate_theta_ij.ms_p50": ("ms", "lower"),
    "expansion.evaluate_theta_ij.ms_pmax": ("ms", "lower"),
    "expansion.evaluate_dtheta.k1.ms": ("ms/item", "lower"),
    "expansion.evaluate_dtheta.k2.ms": ("ms/item", "lower"),
    "expansion.evaluate_dtheta.k3.ms": ("ms/item", "lower"),
    "expansion.exact_refit.ms_p50": ("ms", "lower"),
    "expansion.exact_refit.ms_pmax": ("ms", "lower"),
    "expansion.exact_refit.newton_steps": ("count/item", "lower"),
    "expansion.exact_refit.g_evals": ("count/item", "lower"),
    "expansion.expand_refit_ratio": ("ratio", "lower"),
    "forward_ad.g_theta_derivative.calls": ("count/item", "lower"),
    "forward_ad.g_theta_derivative.rows": ("count/item", "lower"),
    "forward_ad.g_theta_derivative.self_ms": ("ms/item", "lower"),
    "forward_ad.g_weight_derivative.calls": ("count/item", "lower"),
    "forward_ad.g_weight_derivative.rows": ("count/item", "lower"),
    "forward_ad.g_weight_derivative.self_ms": ("ms/item", "lower"),
    "bounds.default_sampler.ms": ("ms", "lower"),
    "bounds.estimate_constants.ms": ("ms", "lower"),
    "bounds.per_datum_derivative_entries.calls": ("count", "lower"),
    "bounds.per_datum_derivative_entries.ms": ("ms", "lower"),
    "bounds.per_datum_derivative_entries.direction_tuples": ("count", "lower"),
    "bounds.operator_norm_of_inverse.ms": ("ms", "lower"),
    "resampling.run_cv.self_ms": ("ms", "lower"),
    "resampling.sandwich_covariance.ms": ("ms", "lower"),
    "resampling.ij_linear_covariance.ms": ("ms", "lower"),
    "resampling.ij_linear_covariance.peak_alloc_bytes": ("bytes", "lower"),
    "resampling.bootstrap_linear_samples.ms": ("ms", "lower"),
}

SWEEP_ORDERS = (1, 2, 3, 4, 5)
for _k in SWEEP_ORDERS:
    LAYER_METRICS[f"expansion.expand_refit_ratio.K{_k}"] = ("ratio", "lower")
for _k in SWEEP_ORDERS:
    LAYER_METRICS[f"expansion.evaluate_theta_ij.ms_p50.K{_k}"] = ("ms", "lower")
LAYER_METRICS["trace.overhead_s"] = ("s", "lower")


def not_measured(metrics: dict) -> list:
    """Metrics that read 0: their layer was not called on this workload."""
    return sorted(name for name, value in metrics.items() if value == 0)


def distribution(durations: list) -> dict:
    """Median and "pmax", the highest percentile with at least ten samples
    beyond it (the maximum for ten samples or fewer), of durations in
    seconds, in ms."""
    if not durations:
        return {"p50": 0.0, "pmax": 0.0, "pmax_pct": 0.0, "n": 0}
    d = sorted(durations)
    n = len(d)
    i = n - 11 if n > 10 else n - 1
    return {"p50": statistics.median(d) * MS, "pmax": d[i] * MS,
            "pmax_pct": 100.0 * (i + 1) / n, "n": n}


def layer_metrics(spans: list, items: int, output_bytes: int) -> tuple:
    """(metrics, extras) for one traced repetition; extras are not bounded
    metrics but are printed with them (sample counts, percentiles)."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    by_id = {s.id: s for s in spans}
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def under(span, ancestor_name) -> bool:
        p = span.parent
        while p is not None:
            if by_id[p].name == ancestor_name:
                return True
            p = by_id[p].parent
        return False

    def total_ms(name, keep=lambda s: True) -> float:
        return sum(s.duration for s in by_name[name] if keep(s)) * MS

    def self_ms(name) -> float:
        return sum(self_time(s, children[s.id]) for s in by_name[name]) * MS

    def count_under(name, ancestor) -> int:
        return sum(1 for s in by_name[name] if under(s, ancestor))

    m = {}
    m["cli.main.self_ms"] = self_ms("cli.main")
    m["cli.output_bytes"] = output_bytes
    m["models.load_dataset.ms"] = total_ms("models.load_dataset")
    m["models.weights.ms"] = total_ms("models.weights")
    m["models.evaluate_g.calls"] = len(by_name["models.evaluate_g"])
    m["terms.term_tables.ms"] = total_ms("terms.term_tables")

    base = [s for s in by_name["expansion.solve_base"]
            if not under(s, "expansion.exact_refit")]
    base_ids = {s.id for s in base}
    m["expansion.solve_base.ms"] = sum(s.duration for s in base) * MS
    m["expansion.solve_base.newton_steps"] = sum(
        1 for s in by_name["expansion.assemble_jacobian"] if s.parent in base_ids)
    m["expansion.factorize_hessian.ms"] = total_ms("expansion.factorize_hessian")

    expand = distribution([s.duration for s in by_name["expansion.evaluate_theta_ij"]])
    refit = distribution([s.duration for s in by_name["expansion.exact_refit"]])
    m["expansion.evaluate_theta_ij.ms_p50"] = expand["p50"]
    m["expansion.evaluate_theta_ij.ms_pmax"] = expand["pmax"]
    for k in (1, 2, 3):
        m[f"expansion.evaluate_dtheta.k{k}.ms"] = total_ms(
            "expansion.evaluate_dtheta", lambda s: s.counters["k"] == k) / items
    m["expansion.exact_refit.ms_p50"] = refit["p50"]
    m["expansion.exact_refit.ms_pmax"] = refit["pmax"]
    n_refit = max(refit["n"], 1)
    m["expansion.exact_refit.newton_steps"] = count_under(
        "expansion.assemble_jacobian", "expansion.exact_refit") / n_refit
    m["expansion.exact_refit.g_evals"] = count_under(
        "models.evaluate_g", "expansion.exact_refit") / n_refit
    m["expansion.expand_refit_ratio"] = (
        expand["p50"] / refit["p50"] if expand["n"] and refit["n"] else 0.0)

    for fn in ("g_theta_derivative", "g_weight_derivative"):
        name = f"forward_ad.{fn}"
        m[f"{name}.calls"] = len(by_name[name]) / items
        m[f"{name}.rows"] = sum(s.counters["rows"] for s in by_name[name]) / items
        m[f"{name}.self_ms"] = self_ms(name) / items

    m["bounds.default_sampler.ms"] = total_ms("bounds.default_sampler")
    m["bounds.estimate_constants.ms"] = total_ms(
        "bounds.estimate_constants", lambda s: not under(s, "bounds.default_sampler"))
    pdde = by_name["bounds.per_datum_derivative_entries"]
    m["bounds.per_datum_derivative_entries.calls"] = len(pdde)
    m["bounds.per_datum_derivative_entries.ms"] = total_ms(
        "bounds.per_datum_derivative_entries")
    m["bounds.per_datum_derivative_entries.direction_tuples"] = sum(
        s.counters["direction_tuples"] for s in pdde)
    m["bounds.operator_norm_of_inverse.ms"] = total_ms("bounds.operator_norm_of_inverse")

    m["resampling.run_cv.self_ms"] = self_ms("resampling.run_cv")
    m["resampling.sandwich_covariance.ms"] = total_ms("resampling.sandwich_covariance")
    ij = by_name["resampling.ij_linear_covariance"]
    m["resampling.ij_linear_covariance.ms"] = total_ms("resampling.ij_linear_covariance")
    m["resampling.ij_linear_covariance.peak_alloc_bytes"] = max(
        (s.counters["peak_alloc_bytes"] for s in ij), default=0)
    m["resampling.bootstrap_linear_samples.ms"] = total_ms(
        "resampling.bootstrap_linear_samples")

    extras = {
        "expansion.evaluate_theta_ij": expand,
        "expansion.exact_refit": refit,
        "requests": len({s.request for s in spans if s.request is not None}),
        "spans": len(spans),
    }
    return m, extras
