"""End-to-end resampling experiments: approximate vs exact CV, bootstrap
covariance, and rate studies over growing N.

Every run solves the base problem once, factorizes once, then walks a weight
stream, pairing the Taylor approximation with the exact re-fit oracle it
approximates.  Reports are plain data, serialized deterministically.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from .bounds import (
    DomainSampler,
    check_condition,
    default_sampler,
    derivative_norm_bounds,
    estimate_constants,
    taylor_error_bound,
)
from .expansion import (
    REFIT_BLOCK,
    SolveConfig,
    evaluate_theta_ij,
    factorize_hessian,
    refit_block,
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
    theta_ij: Optional[np.ndarray]     # (K + 1, D) partial sums, orders 0..K
    theta_exact: Optional[np.ndarray]
    errors: Optional[np.ndarray]       # (K + 1,) ||theta_ij[k] - exact||_2 per order
    runtime_expand: float
    runtime_refit: float
    refit_error: Optional[str] = None
    expand_error: Optional[str] = None


class OutcomeRecords(list):
    """A cv report's outcome records, the list of dicts they are, that also
    keeps the :class:`WeightOutcome` objects they were made from and the
    reprs of their errors, so that a writer can render the records from the
    outcomes' arrays."""

    def __init__(self, records: list, outcomes: tuple, error_reprs: list):
        super().__init__(records)
        self.outcomes = outcomes
        self.error_reprs = error_reprs


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

    def to_json_obj(self) -> dict:
        """The report as JSON-ready data.  Wall-clock timings are volatile,
        so they are left out, keeping identically seeded runs byte-identical."""
        records = []
        for o in self.outcomes:
            rec = {
                "label": o.label,
                "theta_ij": _floats(o.theta_ij),
                "theta_exact": _floats(o.theta_exact),
                "errors": _floats(o.errors),
                "refit_error": o.refit_error,
            }
            if o.expand_error is not None:
                rec["expand_error"] = o.expand_error
            records.append(rec)
        obj = {
            "schema_version": SCHEMA_VERSION,
            "model_id": self.model_id,
            "n_terms": self.n_terms,
            "order": self.order,
            "theta_hat": _floats(self.theta_hat),
            "outcomes": OutcomeRecords(records, self.outcomes, self.error_reprs),
            "max_error": _floats(self.max_error),
            "mean_error": _floats(self.mean_error),
            "metadata": self.metadata,
        }
        if self.bound_per_k is not None:
            obj["bound_per_k"] = _floats(self.bound_per_k)
        return obj

    @functools.cached_property
    def error_reprs(self) -> list:
        """``float.__repr__`` of each outcome's errors, None for an outcome
        without.  The JSON and the CSV writer both render these, so each
        error is formatted once."""
        return [None if o.errors is None else list(map(float.__repr__, o.errors.tolist()))
                for o in self.outcomes]

    def csv_text(self) -> str:
        """The CSV file of the errors, one row (label, order, error, bound)
        per weight and order, as ``csv.writer`` writes it.

        One template renders the rows from the label fields and the error
        reprs; a label that CSV quotes goes through ``csv.writer`` first.
        """
        ok = [(_csv_field(o.label), r)
              for o, r in zip(self.outcomes, self.error_reprs) if r is not None]
        if not ok:
            return "weight,k,error,bound\r\n"
        bounds = ([""] * len(ok[0][1]) if self.bound_per_k is None
                  else list(map(repr, _floats(self.bound_per_k))))
        row = "".join(f"%s,{k},%s,{b}\r\n" for k, b in enumerate(bounds))
        cells = [cell for label, reprs in ok for r in reprs for cell in (label, r)]
        return "weight,k,error,bound\r\n" + row * len(ok) % tuple(cells)


def _csv_field(label: str) -> str:
    # A label as a CSV field: itself when csv.writer would not quote it
    # (no delimiter, quote, line break or other unprintable character).
    if label.isprintable() and "," not in label and '"' not in label:
        return label
    return _rows_csv_text([[label]])[:-2]


def _rows_csv_text(rows) -> str:
    # rows of strings as csv.writer writes them
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _floats(values) -> Optional[list]:
    """Nested lists of Python floats from an array-like, in one conversion."""
    return None if values is None else np.asarray(values, dtype=float).tolist()


def _labeled(w, i: int) -> WeightVector:
    """The stream's i-th weight vector (from 0), labelled ``w:{i + 1}`` if it has no label."""
    if not isinstance(w, WeightVector):
        return WeightVector(np.asarray(w, float), label=f"w:{i + 1}")
    return w if w.label else WeightVector(w.values, label=f"w:{i + 1}")


def _expand_block(problem, theta_hat, hfac, table, block: list, order: int) -> tuple:
    """Partial sums of orders 0..order for each weight of the block.

    Returns ``(partials, expand_errors, seconds)``: a (B, order + 1, D)
    array, NaN from order 1 on for a weight whose expansion failed, the
    error message or None per weight, and each weight's expansion time.
    Each weight is expanded on its own; the block's partial sums come from
    one cumulative sum over theta_hat and the d_j / j!, which adds in the
    order :meth:`~hoij.expansion.TaylorExpansion.partial_sum` does.
    """
    terms = np.full((len(block), order + 1, theta_hat.size), np.nan)
    terms[:, 0] = theta_hat
    errors, seconds = [None] * len(block), []
    for b, w in enumerate(block):
        t0 = time.perf_counter()
        try:
            expn = evaluate_theta_ij(problem, hfac.theta_hat, hfac, table, w.delta, order)
            if order:
                terms[b, 1:] = expn.dthetas
        except NonFiniteValueError as err:
            errors[b] = str(err)
        seconds.append(time.perf_counter() - t0)
    terms[:, 1:] /= np.array([math.factorial(j) for j in range(1, order + 1)])[:, None]
    return np.cumsum(terms, axis=1), errors, seconds


def _refit_block(problem, hfac, block: list, starts: np.ndarray,
                 cfg: Optional[SolveConfig]) -> tuple:
    """Exact roots of the block's weights, as ``(roots, refit_errors, seconds)``.

    ``roots`` is (B, D), NaN where a re-fit failed, and ``refit_errors``
    holds the failure message or None per weight.  The block is re-fitted
    by one :func:`~hoij.expansion.refit_block` call from its ``starts``,
    and its weights share the call's time evenly.  A weight whose expansion
    failed has a NaN start, so refit_block re-fits it from theta_hat.
    """
    t0 = time.perf_counter()
    results = refit_block(problem, hfac, block, starts, cfg)
    seconds = [(time.perf_counter() - t0) / len(block)] * len(block)
    roots = np.full((len(block), hfac.theta_hat.size), np.nan)
    errors = [str(r) if isinstance(r, Exception) else None for r in results]
    for i, r in enumerate(results):
        if errors[i] is None:
            roots[i] = r
    return roots, errors, seconds


def _norms(d: np.ndarray) -> np.ndarray:
    """||v||_2 of every vector v along the last axis of ``d``.

    Bit for bit what np.linalg.norm gives each vector, the square root of
    its dot product with itself, here as one stacked (1, D) @ (D, 1)
    product; einsum and norm(axis=-1) round differently.
    """
    return np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])


def _score_block(problem, theta_hat, hfac, table, block: list, order: int,
                 cfg: Optional[SolveConfig]) -> tuple:
    """The block's outcomes, and the (M, order + 1) errors of its M weights
    that have both an expansion and a root, in stream order."""
    partials, expand_errors, t_expand = _expand_block(problem, theta_hat, hfac, table,
                                                      block, order)
    roots, refit_errors, t_refit = _refit_block(problem, hfac, block, partials[:, -1], cfg)
    scored = np.array([e is None and r is None
                       for e, r in zip(expand_errors, refit_errors)], dtype=bool)
    errors = _norms(partials[scored] - roots[scored, None, :])
    rows = iter(errors)
    outcomes = [WeightOutcome(
        label=w.label,
        theta_ij=None if expand_errors[b] is not None else partials[b],
        theta_exact=None if refit_errors[b] is not None else roots[b],
        errors=next(rows) if scored[b] else None,
        runtime_expand=t_expand[b], runtime_refit=t_refit[b],
        refit_error=refit_errors[b], expand_error=expand_errors[b],
    ) for b, w in enumerate(block)]
    return outcomes, errors


def run_cv(problem: EstimatingProblem, weights: Iterable[WeightVector], order: int,
           with_bounds: bool = False, cfg: Optional[SolveConfig] = None,
           rho: float = 0.5,
           sampler: Optional[Callable[[np.ndarray], DomainSampler]] = None,
           epsilon: float = 0.0,
           metadata: Optional[dict] = None) -> CvReport:
    """Approximate every weight in the stream and compare with exact re-fits.

    The stream is read REFIT_BLOCK weights at a time, so only one block of
    weight vectors is held, whatever the stream's length.  Each weight is
    expanded on its own; then the block is re-fitted together by
    :func:`~hoij.expansion.refit_block`, starting from the order-``order``
    expansions, and each weight's ``runtime_refit`` is an even share of the
    block's time.  The block is scored at once: its partial sums come from
    one cumulative sum and its errors from one stacked norm.  A weight
    whose expansion failed re-fits from theta_hat, in the same
    refit_block call.  Unlabelled weights are labelled ``w:{i}`` by their
    1-based position in the stream.
    Expansion and re-fit failures are recorded per weight, not fatal, and
    a weight missing either result is left out of the aggregate errors.
    ``with_bounds`` additionally estimates the error-bound ladder and
    attaches the per-order bound column (one uniform bound across the weight
    set).  The ladder reads the leave-one-out set complexity, so with it
    every weight must be a leave-one-out weight, one zero among ones, or
    ValueError is raised.  ``sampler`` builds the DomainSampler from the
    base fit theta_hat solved here; None means :func:`default_sampler`
    with its defaults.
    """
    theta_hat = solve_base(problem, cfg=cfg)
    hfac = factorize_hessian(problem, theta_hat)
    table = term_tables(max(order, 1))
    stream = iter(weights)
    outcomes, errors = [], [np.empty((0, order + 1))]
    while block := list(itertools.islice(stream, REFIT_BLOCK)):
        block = [_labeled(w, len(outcomes) + i) for i, w in enumerate(block)]
        for w in block if with_bounds else ():
            if np.count_nonzero(w.delta) != 1 or w.delta.sum() != -1.0:
                raise ValueError("error bounds hold for leave-one-out weights only, "
                                 f"and weight {w.label!r} is not one")
        block_outcomes, block_errors = _score_block(problem, theta_hat, hfac, table,
                                                    block, order, cfg)
        outcomes.extend(block_outcomes)
        errors.append(block_errors)

    err = np.concatenate(errors)
    if len(err):
        max_error = tuple(err.max(axis=0).tolist())
        mean_error = tuple(err.mean(axis=0).tolist())
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


def gn_matrix(theta_hat, hfac) -> np.ndarray:
    """The (N, D) matrix whose rows are the per-datum terms g_n(theta_hat).

    In C order, from the order-0 rows that ``hfac``, built at theta_hat,
    caches: one pass per factor, however many routines read it.
    """
    if not np.array_equal(theta_hat, hfac.theta_hat):
        raise ValueError("theta_hat differs from the point the Hessian factor was built at")
    return np.ascontiguousarray(hfac.rows(0)[1][:, :, 0])


def sandwich_covariance(problem: EstimatingProblem, theta_hat, hfac) -> np.ndarray:
    """H^{-1} S H^{-T} with S the centered outer-product sum over N^2.

    S = (1/N^2) sum_n (g_n - gbar)(g_n - gbar)^T; the 1/N^2 scaling is fixed
    so this equals the exact weight-randomness covariance of the linear
    approximation under multinomial bootstrap weights.
    """
    j = gn_matrix(theta_hat, hfac)
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
    j = gn_matrix(theta_hat, hfac)
    cov_w = np.eye(n) - np.full((n, n), 1.0 / n)
    middle = j.T @ cov_w @ j / n ** 2
    return hfac.solve(hfac.solve(middle).T).T


def linear_covariance(problem: EstimatingProblem, theta_hat, hfac) -> np.ndarray:
    """:func:`ij_linear_covariance` without forming any N x N matrix.

    The weight covariance I - (1/N) 1 1^T is applied to J as
    J - 1 (1^T J) / N, which costs O(N D^2).
    """
    n = problem.n_terms
    j = gn_matrix(theta_hat, hfac)
    middle = j.T @ (j - j.sum(axis=0) / n) / n ** 2
    return hfac.solve(hfac.solve(middle).T).T


def bootstrap_samples(problem: EstimatingProblem, theta_hat, hfac, draws: int,
                      order: int = 1, seed: int = 0) -> tuple:
    """Sampled approximations under multinomial bootstrap weights.

    Returns ``(linear, expanded)``, each of shape (draws, D): the order-1
    approximations, one product and one solve per block since they are
    linear in the weights, and the order-``order`` expansions of the same
    draws (None below order 2), one :func:`evaluate_theta_ij` call per
    block.  Each block of :func:`~hoij.models.bootstrap_weight_blocks`, at
    most WEIGHT_BLOCK_ELEMENTS entries, is drawn once and feeds both, so
    beyond the two (draws, D) results memory does not grow with ``draws``.
    """
    n = problem.n_terms
    j = gn_matrix(theta_hat, hfac)
    theta_hat = np.asarray(theta_hat, dtype=float)
    table = term_tables(order) if order >= 2 else None
    linear = np.empty((draws, theta_hat.size))
    expanded = None if table is None else np.empty_like(linear)
    done = 0
    for delta in bootstrap_weight_blocks(n, draws, seed):
        delta -= 1.0
        m = len(delta)
        linear[done:done + m] = theta_hat - hfac.solve((delta @ j / n).T).T
        if table is not None:
            expanded[done:done + m] = evaluate_theta_ij(problem, theta_hat, hfac, table,
                                                        delta, order).theta_ij
        done += m
    return linear, expanded


def bootstrap_linear_samples(problem: EstimatingProblem, theta_hat, hfac,
                             draws: int, seed: int = 0) -> np.ndarray:
    """The order-1 half of :func:`bootstrap_samples`, shape (draws, D)."""
    return bootstrap_samples(problem, theta_hat, hfac, draws, seed=seed)[0]


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

    def csv_text(self) -> str:
        return _rows_csv_text(self.csv_rows())

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
                  seed: int = 0) -> ScalingReport:
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
        report = run_cv(problem, loo_weights(n), order)
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
