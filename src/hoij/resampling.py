"""End-to-end resampling experiments: approximate vs exact CV, bootstrap
covariance, and rate studies over growing N.

Every run solves the base problem once, factorizes once, then walks a weight
stream, pairing the Taylor approximation with the exact re-fit oracle it
approximates.  Reports are plain data, serialized deterministically.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .bounds import (
    DomainSampler,
    default_sampler,
    derivative_norm_bounds,
    estimate_constants,
    taylor_error_bound,
)
from .expansion import (
    REFIT_BLOCK,
    SolveConfig,
    TaylorExpansion,
    _norms,
    evaluate_theta_ij,
    factorize_hessian,
    refit_block,
    solve_base,
)
from .forward_ad import NonFiniteValueError
from . import models
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

    def to_json_obj(self) -> dict:
        """The report as JSON-ready data: plain dicts, lists, floats and
        strings.  Each outcome is one record, in which ``expand_error``
        appears only when the expansion failed.  An aggregate error that is
        not finite, as the NaN of an order no weight was scored at, is None,
        since JSON has no NaN."""
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
            "outcomes": records,
            "max_error": [_finite_or_none(e) for e in self.max_error],
            "mean_error": [_finite_or_none(e) for e in self.mean_error],
            "metadata": self.metadata,
        }
        if self.bound_per_k is not None:
            obj["bound_per_k"] = _floats(self.bound_per_k)
        return obj

    def csv_text(self) -> str:
        """The CSV file of the errors, one row (label, order, error, bound)
        per weight and order, as ``csv.writer`` writes it.

        One template renders the rows from the label fields and the reprs
        of the errors; a label that CSV quotes goes through ``csv.writer``
        first.  A weight without errors has no rows.
        """
        ok = [(_csv_field(o.label), list(map(float.__repr__, o.errors.tolist())))
              for o in self.outcomes if o.errors is not None]
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


def weight_blocks(weights: Iterable, n: int, cap: float = math.inf) -> Iterator[tuple]:
    """The stream's weights as ``(labels, values)``: the B labels of a block
    and its (B, N) weights, stacked once, with B = ``min(cap, max(1,
    WEIGHT_BLOCK_ELEMENTS // n))``, so at most WEIGHT_BLOCK_ELEMENTS entries.

    An item is a :class:`~hoij.models.WeightVector` or an array of N
    weights; one without a label is labelled ``w:{i}`` by its 1-based
    position in the stream.  A weight not of shape (N,), or one that is not
    finite, raises ValueError naming it, as WeightVector refuses it.  The
    call reads the first block, so these checks, and a weight generator's
    argument checks, fire before the caller does any work.
    """
    size = min(cap, max(1, models.WEIGHT_BLOCK_ELEMENTS // n))
    stream = enumerate(weights, 1)
    head = [_next_block(stream, n, size)]  # read now; popped, so not held once handed out
    return iter(lambda: head.pop() if head else _next_block(stream, n, size), None)


def _next_block(stream, n: int, size: int) -> Optional[tuple]:
    block = list(itertools.islice(stream, size))
    if not block:
        return None
    labels = [getattr(w, "label", "") or f"w:{i}" for i, w in block]
    rows = [np.asarray(getattr(w, "values", w), dtype=float) for _, w in block]
    for label, row in zip(labels, rows):
        if row.shape != (n,):
            raise ValueError(f"weight {label!r} of shape {row.shape} does not match {n} terms")
    values = np.array(rows)
    del block, rows  # hold no weight vector while the block is in use
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        bad = labels[np.argmin(finite)]
        raise ValueError(f"weights must be finite, and weight {bad!r} is not")
    return labels, values


def _expand_block(hfac, table, values: np.ndarray, order: int) -> tuple:
    """Partial sums of orders 0..order for each row of the (B, N) weights
    ``values``, expanded about the problem and base fit of ``hfac`` with
    the offsets ``values - 1.0``.

    Returns ``(partials, expand_errors)``: a (B, order + 1, D) array, NaN
    from order 1 on for a weight whose expansion failed, and the error
    message or None per weight.  The block is expanded by one
    :func:`~hoij.expansion.evaluate_theta_ij` call.  If that call raises
    NonFiniteValueError, each weight is expanded on its own, so only the
    weights that fail get an error.
    """
    problem, theta_hat = hfac.problem, hfac.theta_hat
    deltas = values - 1.0
    try:
        expn = evaluate_theta_ij(problem, theta_hat, hfac, table, deltas, order)
        return expn.partial_sums(), [None] * len(deltas)
    except NonFiniteValueError:
        pass
    dthetas = np.full((order, len(deltas), theta_hat.size), np.nan)
    errors = [None] * len(deltas)
    for b, delta in enumerate(deltas):
        try:
            expn = evaluate_theta_ij(problem, theta_hat, hfac, table, delta, order)
            if order:
                dthetas[:, b] = expn.dthetas
        except NonFiniteValueError as err:
            errors[b] = str(err)
    theta_hats = np.broadcast_to(theta_hat, dthetas.shape[1:])
    return TaylorExpansion(theta_hats, tuple(dthetas), order).partial_sums(), errors


def run_cv(problem: EstimatingProblem, weights: Iterable[WeightVector], order: int,
           with_bounds: bool = False, cfg: Optional[SolveConfig] = None,
           rho: float = 0.5,
           sampler: Optional[Callable[[np.ndarray], DomainSampler]] = None,
           epsilon: float = 0.0,
           metadata: Optional[dict] = None) -> CvReport:
    """Approximate every weight in the stream and compare with exact re-fits.

    The stream is read by :func:`weight_blocks` in blocks of REFIT_BLOCK
    weights, fewer when N is large, so that a block holds at most
    WEIGHT_BLOCK_ELEMENTS weights x rows: one (B, N) array, stacked once,
    and one block is held whatever the stream's length.  An item is a
    WeightVector or an array of N weights; an unlabelled one is labelled
    ``w:{i}`` by its 1-based position in the stream.  Each block is
    expanded by one call, and one weight at a time only when that call
    fails; then it is re-fitted together by
    :func:`~hoij.expansion.refit_block`, starting from the order-``order``
    expansions, and scored at once: its partial sums come from one
    cumulative sum and its errors from one stacked norm.  A weight whose
    expansion failed re-fits from theta_hat, in the same refit_block call.
    Expansion and re-fit failures are recorded per weight, not fatal, and
    a weight missing either result is left out of the aggregate errors.
    A weight that is not finite or not of length N, or an ``order`` below
    0, raises ValueError; the first block is read before the base solve,
    so a stream that fails on its first read fails before any work.
    ``with_bounds`` additionally estimates the error-bound ladder and
    attaches the per-order bound column (one uniform bound across the weight
    set).  The ladder reads the leave-one-out set complexity, so with it
    every weight must be a leave-one-out weight, one zero among ones, or
    ValueError is raised.  ``sampler`` builds the DomainSampler from the
    base fit theta_hat solved here; None means :func:`default_sampler`
    with its defaults, whose radius is resolved at theta_hat.
    """
    blocks = weight_blocks(weights, problem.n_terms, REFIT_BLOCK)
    theta_hat = solve_base(problem, cfg=cfg)
    hfac = factorize_hessian(problem, theta_hat)
    table = term_tables(max(order, 1))
    outcomes, errors = [], [np.empty((0, order + 1))]
    for labels, values in blocks:
        if with_bounds:
            deltas = values - 1.0
            loo = (np.count_nonzero(deltas, axis=1) == 1) & (deltas.sum(axis=1) == -1.0)
            if not loo.all():
                raise ValueError("error bounds hold for leave-one-out weights only, "
                                 f"and weight {labels[np.argmin(loo)]!r} is not one")
        partials, expand_errors = _expand_block(hfac, table, values, order)
        roots, refit_errors = refit_block(hfac, values, partials[:, -1], cfg)
        scored = np.array([e is None and r is None
                           for e, r in zip(expand_errors, refit_errors)], dtype=bool)
        errors.append(_norms(partials[scored] - roots[scored, None, :]))
        rows = iter(errors[-1])
        outcomes.extend(WeightOutcome(
            label=label,
            theta_ij=None if expand_errors[b] is not None else partials[b],
            theta_exact=None if refit_errors[b] is not None else roots[b],
            errors=next(rows) if scored[b] else None,
            refit_error=refit_errors[b], expand_error=expand_errors[b],
        ) for b, label in enumerate(labels))

    err = np.concatenate(errors)
    if len(err):
        max_error = tuple(err.max(axis=0).tolist())
        mean_error = tuple(err.mean(axis=0).tolist())
    else:
        max_error = mean_error = tuple(math.nan for _ in range(order + 1))

    bound_per_k = None
    meta = dict(metadata or {})
    if with_bounds:
        domain = (sampler or default_sampler)(theta_hat)
        constants = estimate_constants(problem, theta_hat, domain, order, rho, epsilon)
        meta["condition_satisfied"] = constants.condition_satisfied
        meta["c_set"] = constants.c_set
        meta["c_tilde_op"] = constants.c_tilde_op
        if constants.condition_satisfied:
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


def _bootstrap_sample_blocks(problem: EstimatingProblem, theta_hat, hfac, draws: int,
                             order: int, seed: int):
    # For each block of bootstrap_weight_blocks, its (B, max(order, 1) + 1, D)
    # partial sums from one evaluate_theta_ij call: column 1 holds the
    # order-1 approximations, the last column the order-``order`` ones.  The
    # expansion's pass runs before the first block is drawn, so the two are
    # never held together (1.4 MB less at the peak at N = 3000, D = 3).
    order = max(order, 1)
    table = term_tables(order)
    hfac.prepare_expansion(order)
    for delta in bootstrap_weight_blocks(problem.n_terms, draws, seed):
        delta -= 1.0
        yield evaluate_theta_ij(problem, theta_hat, hfac, table, delta, order).partial_sums()


def _merge_comoments(acc, x: np.ndarray) -> tuple:
    # (count, mean, centred co-moment sum) of the samples behind ``acc`` and
    # the rows of ``x`` together, by the pairwise update of Chan, Golub &
    # LeVeque, "Algorithms for computing the sample variance" (1983).
    mean = x.mean(axis=0)
    centred = x - mean
    block = (len(x), mean, centred.T @ centred)
    if acc is None:
        return block
    (n_a, mean_a, m_a), (n_b, mean_b, m_b) = acc, block
    n = n_a + n_b
    delta = mean_b - mean_a
    return n, mean_a + delta * (n_b / n), m_a + m_b + np.outer(delta, delta) * (n_a * n_b / n)


def bootstrap_covariances(problem: EstimatingProblem, theta_hat, hfac, draws: int,
                          order: int = 1, seed: int = 0) -> tuple:
    """The (D, D) covariances, over ``draws`` multinomial bootstrap weights,
    of the order-1 approximations and of the order-``order`` expansions:
    ``(linear, expanded)``, expanded None below order 2, each what
    ``np.cov(samples, rowvar=False, bias=True)`` gives up to rounding.  Both
    are partial sums of one expansion per block of
    :func:`~hoij.models.bootstrap_weight_blocks`, and the samples are merged
    one block at a time, so memory is one block plus D^2 whatever ``draws``
    is.  ``draws`` below 1 or ``order`` below 0 raises ValueError."""
    if draws < 1 or order < 0:
        raise ValueError(f"draws={draws}, order={order}: bootstrap needs draws >= 1, order >= 0")
    acc = [None, None]
    for sums in _bootstrap_sample_blocks(problem, theta_hat, hfac, draws, order, seed):
        acc = [_merge_comoments(acc[0], sums[:, 1]),
               None if order < 2 else _merge_comoments(acc[1], sums[:, -1])]
    return tuple(None if a is None else a[2] / a[0] for a in acc)


def bootstrap_linear_samples(problem: EstimatingProblem, theta_hat, hfac,
                             draws: int, seed: int = 0) -> np.ndarray:
    """The order-1 approximations under ``draws`` multinomial bootstrap
    weights, shape (draws, D): the samples behind the first covariance of
    :func:`bootstrap_covariances`."""
    blocks = _bootstrap_sample_blocks(problem, theta_hat, hfac, draws, 1, seed)
    return np.concatenate([np.empty((0, problem.dim_theta)), *(s[:, 1] for s in blocks)])


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
        """The report as JSON-ready data; a slope or stderr that could not
        be fitted (NaN in :attr:`slopes`) is None, since JSON has no NaN."""
        return {
            "schema_version": SCHEMA_VERSION,
            "model_id": self.model_id,
            "order": self.order,
            "n_grid": list(self.n_grid),
            "max_errors": {str(k): [float(e) for e in v]
                           for k, v in sorted(self.max_errors.items())},
            "slopes": {str(k): {"slope": _finite_or_none(s), "stderr": _finite_or_none(se)}
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


def _finite_or_none(x) -> Optional[float]:
    x = float(x)
    return x if math.isfinite(x) else None


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
