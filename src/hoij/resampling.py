"""End-to-end resampling experiments: approximate vs exact CV, bootstrap
covariance, and rate studies over growing N.

Every run solves the base problem once, factorizes once, then walks a weight
stream, pairing the Taylor approximation with the exact re-fit oracle it
approximates.  Reports are plain data, serialized deterministically.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from .bounds import (
    DomainSampler,
    check_condition,
    default_sampler,
    derivative_norm_bounds,
    estimate_constants,
    per_datum_derivative_entries,
    taylor_error_bound,
)
from .expansion import (
    SolveConfig,
    SolverError,
    evaluate_theta_ij,
    exact_refit,
    factorize_hessian,
    solve_base,
)
from .forward_ad import NonFiniteValueError
from .models import (
    Dataset,
    EstimatingProblem,
    WeightVector,
    bootstrap_weight_blocks,
    loo_weights,
    make_problem,
)
from .terms import term_tables

SCHEMA_VERSION = 1


@dataclass(frozen=True, eq=False)
class WeightOutcome:
    """Per-weight record: approximations of every order against the exact re-fit."""

    label: str
    theta_ij: Optional[tuple]  # partial sums, orders 0..K
    theta_exact: Optional[np.ndarray]
    errors: Optional[tuple]    # ||theta_ij[k] - exact||_2 per order
    runtime_expand: float
    runtime_refit: float
    refit_error: Optional[str] = None
    expand_error: Optional[str] = None


@dataclass(frozen=True, eq=False)
class CvReport:
    """All per-weight outcomes plus aggregate errors (and bounds if computed)."""

    model_id: str
    n_terms: int
    order: int
    theta_hat: np.ndarray
    outcomes: tuple
    max_error: tuple
    mean_error: tuple
    bound_per_k: Optional[tuple] = None
    metadata: dict = field(default_factory=dict)

    def to_json_obj(self, include_timings: bool = False) -> dict:
        # Wall-clock timings are volatile, so they are omitted by default to
        # keep identically seeded runs byte-identical.
        records = []
        for o in self.outcomes:
            rec = {
                "label": o.label,
                "theta_ij": None if o.theta_ij is None
                            else [[float(v) for v in th] for th in o.theta_ij],
                "theta_exact": None if o.theta_exact is None
                               else [float(v) for v in o.theta_exact],
                "errors": None if o.errors is None else [float(e) for e in o.errors],
                "refit_error": o.refit_error,
            }
            if o.expand_error is not None:
                rec["expand_error"] = o.expand_error
            if include_timings:
                rec["runtime_expand"] = o.runtime_expand
                rec["runtime_refit"] = o.runtime_refit
            records.append(rec)
        obj = {
            "schema_version": SCHEMA_VERSION,
            "model_id": self.model_id,
            "n_terms": self.n_terms,
            "order": self.order,
            "theta_hat": [float(v) for v in self.theta_hat],
            "outcomes": records,
            "max_error": [float(e) for e in self.max_error],
            "mean_error": [float(e) for e in self.mean_error],
            "metadata": self.metadata,
        }
        if self.bound_per_k is not None:
            obj["bound_per_k"] = [float(b) for b in self.bound_per_k]
        return obj

    def csv_rows(self):
        """Flat rows (label, order, error, bound) for external plotting."""
        header = ["weight", "k", "error", "bound"]
        rows = [header]
        for o in self.outcomes:
            if o.errors is None:
                continue
            for k, err in enumerate(o.errors):
                bound = "" if self.bound_per_k is None else repr(float(self.bound_per_k[k]))
                rows.append([o.label, str(k), repr(float(err)), bound])
        return rows


def _one_weight(problem, theta_hat, hfac, table, w: WeightVector, order: int,
                cfg: Optional[SolveConfig]) -> WeightOutcome:
    partials = expand_error = exact = refit_error = None
    t0 = time.perf_counter()
    try:
        expn = evaluate_theta_ij(problem, theta_hat, hfac, table, w.delta, order)
        partials = tuple(expn.partial_sum(k) for k in range(order + 1))
    except NonFiniteValueError as err:
        expand_error = str(err)
    t1 = time.perf_counter()
    try:
        exact = exact_refit(problem, w, theta_hat, cfg)
    except (SolverError, NonFiniteValueError) as err:
        refit_error = str(err)
    errors = (None if exact is None or partials is None
              else tuple(float(np.linalg.norm(p - exact)) for p in partials))
    return WeightOutcome(
        label=w.label, theta_ij=partials, theta_exact=exact, errors=errors,
        runtime_expand=t1 - t0, runtime_refit=time.perf_counter() - t1,
        refit_error=refit_error, expand_error=expand_error,
    )


def run_cv(problem: EstimatingProblem, weights: Iterable[WeightVector], order: int,
           with_bounds: bool = False, cfg: Optional[SolveConfig] = None,
           rho: float = 0.5,
           sampler: Optional[Callable[[np.ndarray], DomainSampler]] = None,
           epsilon: float = 0.0,
           workers: int = 1, metadata: Optional[dict] = None) -> CvReport:
    """Approximate every weight in the stream and compare with exact re-fits.

    Expansion and re-fit failures are recorded per weight, not fatal, and
    a weight missing either result is left out of the aggregate errors.
    ``with_bounds`` additionally estimates the error-bound ladder and
    attaches the per-order bound column (one uniform bound across the weight
    set).  ``sampler`` builds the DomainSampler from the base fit theta_hat
    solved here; None means :func:`default_sampler` with its defaults.
    """
    theta_hat = solve_base(problem, cfg=cfg)
    hfac = factorize_hessian(problem, theta_hat)
    table = term_tables(max(order, 1))
    labeled = []
    for i, w in enumerate(weights):
        if not isinstance(w, WeightVector):
            w = WeightVector(np.asarray(w, float), label=f"w:{i + 1}")
        elif not w.label:
            w = WeightVector(w.values, label=f"w:{i + 1}")
        labeled.append(w)
    weights = labeled

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(
                lambda w: _one_weight(problem, theta_hat, hfac, table, w, order, cfg),
                weights,
            ))
    else:
        outcomes = [_one_weight(problem, theta_hat, hfac, table, w, order, cfg)
                    for w in weights]

    ok = [o for o in outcomes if o.errors is not None]
    if ok:
        err = np.array([o.errors for o in ok])
        max_error = tuple(float(x) for x in err.max(axis=0))
        mean_error = tuple(float(x) for x in err.mean(axis=0))
    else:
        max_error = mean_error = tuple(math.nan for _ in range(order + 1))

    bound_per_k = None
    meta = dict(metadata or {})
    if with_bounds:
        if sampler is None:
            domain = default_sampler(problem, theta_hat, order)
        else:
            domain = sampler(theta_hat)
        constants = estimate_constants(problem, theta_hat, domain, order, rho, epsilon)
        check = check_condition(constants, rho)
        meta["condition_satisfied"] = check.satisfied
        meta["c_set"] = check.c_set
        meta["c_tilde_op"] = check.c_tilde_op
        if check.satisfied:
            nb = derivative_norm_bounds(constants, order)
            bound_per_k = tuple(taylor_error_bound(k, nb) for k in range(order + 1))

    return CvReport(
        model_id=problem.model_id,
        n_terms=problem.n_terms,
        order=order,
        theta_hat=theta_hat,
        outcomes=tuple(outcomes),
        max_error=max_error,
        mean_error=mean_error,
        bound_per_k=bound_per_k,
        metadata=meta,
    )


# -- bootstrap covariance -------------------------------------------------------


def gn_matrix(problem: EstimatingProblem, theta) -> np.ndarray:
    """The (N, D) matrix whose rows are the per-datum terms g_n(theta)."""
    return per_datum_derivative_entries(problem, [float(t) for t in theta], 0)


def sandwich_covariance(problem: EstimatingProblem, theta_hat, hfac) -> np.ndarray:
    """H^{-1} S H^{-T} with S the centered outer-product sum over N^2.

    S = (1/N^2) sum_n (g_n - gbar)(g_n - gbar)^T; the 1/N^2 scaling is fixed
    so this equals the exact weight-randomness covariance of the linear
    approximation under multinomial bootstrap weights.
    """
    j = gn_matrix(problem, theta_hat)
    centered = j - j.mean(axis=0, keepdims=True)
    s = centered.T @ centered / problem.n_terms ** 2
    return hfac.solve(hfac.solve(s).T).T


def ij_linear_covariance(problem: EstimatingProblem, theta_hat, hfac) -> np.ndarray:
    """Exact covariance of the linear approximation under bootstrap weights.

    The linear map is w -> theta_hat - H^{-1} (1/N) J^T (w - 1); multinomial
    weights have covariance I - (1/N) 1 1^T, and this routine applies that
    covariance literally, as an independent route to the sandwich form.  It
    forms N x N matrices; :func:`linear_covariance` is the O(N D^2) route.
    """
    n = problem.n_terms
    j = gn_matrix(problem, theta_hat)
    cov_w = np.eye(n) - np.full((n, n), 1.0 / n)
    middle = j.T @ cov_w @ j / n ** 2
    return hfac.solve(hfac.solve(middle).T).T


def linear_covariance(problem: EstimatingProblem, theta_hat, hfac) -> np.ndarray:
    """:func:`ij_linear_covariance` without forming any N x N matrix.

    The weight covariance I - (1/N) 1 1^T is applied to J as
    J - 1 (1^T J) / N, which costs O(N D^2).
    """
    n = problem.n_terms
    j = gn_matrix(problem, theta_hat)
    middle = j.T @ (j - j.sum(axis=0) / n) / n ** 2
    return hfac.solve(hfac.solve(middle).T).T


def bootstrap_samples(problem: EstimatingProblem, theta_hat, hfac, draws: int,
                      order: int = 1, seed: int = 0, chunk: int = 20000) -> tuple:
    """Sampled approximations under multinomial bootstrap weights.

    Returns ``(linear, expanded)``, each of shape (draws, D): the order-1
    approximations, evaluated in vectorized blocks since they are linear in
    the weights, and the order-``order`` expansions of the same draws
    (None below order 2).  Each block of ``chunk`` draws is drawn once and
    feeds both.
    """
    n = problem.n_terms
    j = gn_matrix(problem, theta_hat)
    theta_hat = np.asarray(theta_hat, dtype=float)
    table = term_tables(order) if order >= 2 else None
    linear = np.empty((draws, theta_hat.size))
    expanded = None if table is None else np.empty_like(linear)
    done = 0
    for delta in bootstrap_weight_blocks(n, draws, seed, chunk):
        delta -= 1.0
        m = len(delta)
        linear[done:done + m] = theta_hat - hfac.solve((delta @ j / n).T).T
        if table is not None:
            for i, dw in enumerate(delta, start=done):
                expanded[i] = evaluate_theta_ij(problem, theta_hat, hfac, table,
                                                dw, order).theta_ij
        done += m
    return linear, expanded


def bootstrap_linear_samples(problem: EstimatingProblem, theta_hat, hfac,
                             draws: int, seed: int = 0,
                             chunk: int = 20000) -> np.ndarray:
    """The order-1 half of :func:`bootstrap_samples`, shape (draws, D)."""
    return bootstrap_samples(problem, theta_hat, hfac, draws, seed=seed, chunk=chunk)[0]


# -- N-scaling rate studies -------------------------------------------------------


@dataclass(frozen=True)
class GeneratorConfig:
    """Synthetic data with bounded covariates for rate studies."""

    n_features: int = 1
    noise: float = 0.1

    def generate(self, model_id: str, n: int, rng) -> Dataset:
        dim = self.n_features
        x = rng.random((n, dim))
        if model_id == "mean":
            return Dataset(x)
        if model_id == "exp_loss":
            return Dataset(2.0 * x - 1.0)
        coef = 1.0 + np.arange(dim) / max(dim, 1)
        if dim > 1:
            x[:, 0] = 1.0
        signal = x @ coef
        if model_id == "linear_regression":
            y = signal + self.noise * (2.0 * rng.random(n) - 1.0)
            return Dataset(x, y)
        if model_id == "logistic_regression":
            prob = 1.0 / (1.0 + np.exp(-(signal - signal.mean())))
            y = (rng.random(n) < prob).astype(float)
            return Dataset(x, y)
        raise ValueError(f"no generator for model {model_id!r}")


@dataclass(frozen=True, eq=False)
class ScalingReport:
    """Max LOO error per order on an N grid, with fitted log-log slopes."""

    model_id: str
    order: int
    n_grid: tuple
    max_errors: dict           # k -> list aligned with n_grid
    slopes: dict               # k -> (slope, stderr)
    seed: int
    failures: tuple = ()

    def to_json_obj(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "model_id": self.model_id,
            "order": self.order,
            "n_grid": list(self.n_grid),
            "max_errors": {str(k): [float(e) for e in v]
                           for k, v in sorted(self.max_errors.items())},
            "slopes": {str(k): {"slope": float(s), "stderr": float(se)}
                       for k, (s, se) in sorted(self.slopes.items())},
            "seed": self.seed,
            "failures": list(self.failures),
        }

    def csv_rows(self):
        rows = [["n", "k", "max_error"]]
        for k in sorted(self.max_errors):
            for n, e in zip(self.n_grid, self.max_errors[k]):
                rows.append([str(n), str(k), repr(float(e))])
        return rows


def _fit_slope(log_n, log_err):
    x = np.asarray(log_n)
    y = np.asarray(log_err)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(len(x) - 2, 1)
    sigma2 = float(resid @ resid) / dof
    se = math.sqrt(sigma2 / float(np.sum((x - x.mean()) ** 2)))
    return float(slope), se


def scaling_study(model_id: str, gen: GeneratorConfig, n_grid, order: int,
                  seed: int = 0, workers: int = 1) -> ScalingReport:
    """Full-LOO max error as a function of N, with fitted decay rates.

    Data are regenerated independently per grid point (child seeds drawn
    from the study seed), keeping grid points decorrelated.
    """
    n_grid = tuple(int(n) for n in n_grid)
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be strictly increasing")
    root = np.random.default_rng(seed)
    child_seeds = [int(s) for s in root.integers(0, 2 ** 63 - 1, size=len(n_grid))]
    max_errors: dict = {k: [] for k in range(order + 1)}
    failures = []
    kept_n = []
    for n, child in zip(n_grid, child_seeds):
        data = gen.generate(model_id, n, np.random.default_rng(child))
        problem = make_problem(model_id, data)
        report = run_cv(problem, loo_weights(n), order, workers=workers)
        bad = [o.label for o in report.outcomes if o.errors is None]
        if bad:
            failures.append(f"n={n}: refit failed for {', '.join(bad)}")
            continue
        kept_n.append(n)
        for k in range(order + 1):
            max_errors[k].append(report.max_error[k])
    slopes = {}
    log_n = np.log(np.array(kept_n, dtype=float))
    for k in range(order + 1):
        errs = np.array(max_errors[k], dtype=float)
        if len(errs) >= 2 and np.all(errs > 0):
            slopes[k] = _fit_slope(log_n, np.log(errs))
        else:
            slopes[k] = (math.nan, math.nan)
    return ScalingReport(
        model_id=model_id, order=order, n_grid=tuple(kept_n),
        max_errors=max_errors, slopes=slopes, seed=seed,
        failures=tuple(failures),
    )
