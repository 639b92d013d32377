"""Computable constants and finite-sample error bounds for the expansion.

Every bound is assembled from a handful of scalar constants measured on the
problem itself: an operator-norm bound on the inverse base Jacobian, norms
of the higher G-derivatives, and per-order "set complexity" levels measuring
how far re-weighting can move each derivative.  Suprema over the parameter
domain are approximated by seeded sampling in a ball around the base fit, so
all reported constants are sampled sups, sound only as far as the sampling
region covers the true domain.

The bound ladder is mechanical: once the constants are known, the norm bound
for each expansion order is a fixed polynomial in lower-order bounds read
off the term tables, and the truncation error bound of the order-K
approximation is the order-(K+1) norm bound divided by K!.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from . import forward_ad as fad
from .expansion import SolveConfig, assemble_jacobian, exact_refit
from .models import EstimatingProblem
from .terms import term_tables


class ConditionNotSatisfiedError(RuntimeError):
    """The invertibility condition fails, so the bound ladder is vacuous."""


# -- norm utilities ----------------------------------------------------------


def array_p_norm(values, p) -> float:
    """Entrywise L_p norm of the flattened array (p in {1, 2, inf})."""
    flat = np.asarray(values, dtype=float).ravel()
    if p == 1:
        return float(np.sum(np.abs(flat)))
    if p == 2:
        return float(np.sqrt(np.sum(flat * flat)))
    if p in ("inf", np.inf):
        return float(np.max(np.abs(flat)))
    raise ValueError(f"unsupported norm order {p!r}")


def mean_term_norm_bound(per_term_entries: np.ndarray, p) -> float:
    """(1/N) sum over terms of per-term entry norms, an upper bound on the norm
    of the term average.

    ``per_term_entries`` stacks one flattened derivative array per row (the
    regularization term included); the bound follows from the triangle
    inequality entry by entry, and coincides with (1/N) times the flat L1
    norm of the stack at p = 1.
    """
    entries = np.asarray(per_term_entries, dtype=float)
    n_data = entries.shape[0] - 1   # rows are g_0, g_1, ..., g_N
    return float(sum(array_p_norm(row, p) for row in entries)) / n_data


def operator_norm_of_inverse(a: np.ndarray, max_dim_direct: int = 200) -> float:
    """||A^{-1}||_op: direct smallest singular value, power iteration when large.

    Beyond ``max_dim_direct`` the full SVD is skipped; the norm is the square
    root of the dominant eigenvalue of A^{-T} A^{-1}, found by power
    iteration on LU solves.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n <= max_dim_direct:
        smin = float(scipy.linalg.svdvals(a)[-1])
        if smin <= 0.0:
            raise np.linalg.LinAlgError("matrix is singular")
        return 1.0 / smin
    lu = scipy.linalg.lu_factor(a)
    v = np.ones(n) + np.arange(n) / n      # deterministic, generic start
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(500):
        w = scipy.linalg.lu_solve(lu, scipy.linalg.lu_solve(lu, v), trans=1)
        lam_new = float(np.linalg.norm(w))
        if not np.isfinite(lam_new):
            raise np.linalg.LinAlgError("matrix is singular")
        v = w / lam_new
        if abs(lam_new - lam) <= 1e-14 * max(lam_new, 1.0):
            lam = lam_new
            break
        lam = lam_new
    return math.sqrt(lam)


def perturbed_inverse_bound(c_op: float, r: float) -> float:
    """Bound on ||D^{-1}||_op when ||A - D||_2 <= r / c_op and ||A^{-1}||_op <= c_op."""
    if not 0.0 < r < 1.0:
        raise ValueError(f"perturbation ratio r must be in (0, 1), got {r}")
    return c_op / (1.0 - r)


# -- sampling the parameter domain -------------------------------------------


@dataclass(frozen=True, eq=False)
class DomainSampler:
    """Seeded uniform sampling in a ball around the base fit.

    The first point is always the center, so a radius of zero reduces every
    sampled supremum to an evaluation at the base fit.
    """

    center: np.ndarray
    radius: float
    n_samples: int = 256
    seed: int = 0

    def points(self) -> np.ndarray:
        center = np.asarray(self.center, dtype=float)
        if self.radius < 0:
            raise ValueError("radius must be >= 0")
        if self.radius == 0.0 or self.n_samples <= 1:
            return center[None, :]
        rng = np.random.default_rng(self.seed)
        dim = center.size
        raw = rng.standard_normal((self.n_samples - 1, dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        radii = self.radius * rng.random(self.n_samples - 1) ** (1.0 / dim)
        return np.vstack([center[None, :], center + raw * radii[:, None]])


# -- per-datum derivative entries ---------------------------------------------


def _tuple_major(multiset_array, k: int) -> np.ndarray:
    # (..., D, P) multiset columns -> (..., D**k * D) entries, ordered tuple
    # major and component minor, in C order (at k = 0 the reshape alone
    # would leave per_datum_tensor's column-major rows, and BLAS sums those
    # in a different order).
    dim = multiset_array.shape[-2]
    full = multiset_array[..., fad.basis_multisets(dim, k)[1]]
    return np.ascontiguousarray(
        np.swapaxes(full, -1, -2).reshape(*multiset_array.shape[:-2], -1))


def per_datum_derivative_entries(problem: EstimatingProblem, theta, k: int) -> np.ndarray:
    """All entries of the per-datum derivative arrays g_n^(k)(theta).

    Returns shape (N, D * D**k): row n flattens the order-k derivative array
    of g_n, ordered direction tuple major and component minor.  A layout
    view of :func:`forward_ad.per_datum_tensor`.
    """
    return _tuple_major(fad.per_datum_tensor(problem, theta, k)[1], k)


def _g0_derivative_entries(problem: EstimatingProblem, theta, k: int) -> np.ndarray:
    return _tuple_major(fad.per_datum_tensor(problem, theta, k)[0], k)


def full_derivative_entries(problem: EstimatingProblem, theta, k: int, w=None) -> np.ndarray:
    """Flattened entries of the order-k derivative array of G(theta, w)."""
    n = problem.n_terms
    weights = np.ones(n) if w is None else np.asarray(getattr(w, "values", w), float)
    g0, per = fad.per_datum_tensor(problem, theta, k)
    return _tuple_major(g0 + np.tensordot(weights, per, axes=1), k) / n


# -- constants ----------------------------------------------------------------


@dataclass(frozen=True)
class BoundConstants:
    """Sampled-sup constants feeding the bound ladder.

    ``m``, ``v``, ``t`` and the delta series are per-order dicts indexed
    0..K+1 (``m`` additionally includes order 0 for the epsilon correction,
    although only orders >= 1 enter any bound).  ``delta`` is the series the
    bounds consume: the exact leave-one-out maximum plus any epsilon term.
    """

    c_op: float
    l_h: float
    m: dict
    v: dict
    t: dict
    delta: dict
    delta_exact: dict
    delta_v: dict
    delta_t: dict
    delta_max: float
    rho: float
    c_tilde_op: float
    c_set: float
    order: int
    epsilon: float = 0.0

    @property
    def l_h_alternative(self) -> Optional[float]:
        """Third-derivative norm bound, the stricter Lipschitz reading."""
        return self.m.get(3)

    @property
    def condition_satisfied(self) -> bool:
        return self.c_set <= self.rho


@dataclass(frozen=True)
class _SampledStats:
    c_op: float
    m: dict
    v: dict
    t: dict
    loo_exact: dict


def _sample_stats(problem: EstimatingProblem, sampler: DomainSampler,
                  k_hi: int) -> _SampledStats:
    # One multiset pass per order and sampled point.  Entry norms weight
    # each multiset column by the number of ordered tuples it stands for,
    # so they equal the norms of the full D**(k+1) arrays.
    n, dim = problem.n_terms, problem.dim_theta
    c_op = 0.0
    m = {k: 0.0 for k in range(k_hi + 1)}
    v = {k: 0.0 for k in range(k_hi + 1)}
    t = {k: 0.0 for k in range(k_hi + 1)}
    loo = {k: 0.0 for k in range(k_hi + 1)}
    mults = {k: np.bincount(fad.basis_multisets(dim, k)[1]) for k in range(k_hi + 1)}
    for theta in sampler.points():
        for k, mult in mults.items():
            g0, per = fad.per_datum_tensor(problem, theta, k)
            summed = (g0 + per.sum(axis=0)) / n
            if k == 1:
                # the order-1 multisets are the D basis directions in order,
                # so summed is the Jacobian
                try:
                    c_op = max(c_op, operator_norm_of_inverse(summed))
                except np.linalg.LinAlgError:
                    raise SingularSampleError(theta) from None
            m[k] = max(m[k], math.sqrt(float(np.sum(summed * summed, axis=0) @ mult)))
            sq = np.sum(per * per, axis=1) @ mult
            v[k] = max(v[k], float(sq.mean()))
            t[k] = max(t[k], float(np.max(np.abs(per))))
            loo[k] = max(loo[k], float(np.sqrt(sq.max())) / n)
    return _SampledStats(c_op=c_op, m=m, v=v, t=t, loo_exact=loo)


class SingularSampleError(np.linalg.LinAlgError):
    """The Jacobian was singular at a sampled parameter point."""

    def __init__(self, theta):
        super().__init__(f"singular Jacobian at sampled point {np.asarray(theta)}")
        self.theta = np.asarray(theta, float)


def estimate_constants(problem: EstimatingProblem, theta_hat, sampler: DomainSampler,
                       order: int, rho: float = 0.5,
                       epsilon: float = 0.0) -> BoundConstants:
    """Measure every constant the bound ladder needs, for a given order.

    The delta series defaults to the exact LOO maximum (epsilon correction
    optional); the Jacobian Lipschitz level is the second-derivative norm
    bound.  rho fixes the slack in the invertibility condition.  The
    sampler must be centred on ``theta_hat``.
    """
    if not np.array_equal(np.asarray(sampler.center, dtype=float),
                          np.asarray(theta_hat, dtype=float)):
        raise ValueError("the sampler is not centred on theta_hat")
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be strictly inside (0, 1), got {rho}")
    if not 0 <= order < fad.K_MAX:
        raise ValueError(f"bound order {order} outside 0..{fad.K_MAX - 1}: "
                         f"its constants need derivatives of order {order + 1}")
    k_hi = max(order + 1, 2)
    stats = _sample_stats(problem, sampler, k_hi)
    n = problem.n_terms
    ks = range(order + 2)
    eps_term = {k: epsilon * stats.m[k] for k in ks}
    delta_exact = {k: stats.loo_exact[k] + eps_term[k] for k in ks}
    delta_v = {k: math.sqrt(stats.v[k] / n) + eps_term[k] for k in ks}
    delta_t = {k: stats.t[k] / n + eps_term[k] for k in ks}
    l_h = stats.m[2]
    c_set = stats.c_op * delta_exact.get(1, 0.0) + stats.c_op ** 2 * l_h * delta_exact[0]
    return BoundConstants(
        c_op=stats.c_op,
        l_h=l_h,
        m=dict(stats.m),
        v={k: stats.v[k] for k in ks},
        t={k: stats.t[k] for k in ks},
        delta=delta_exact,
        delta_exact=delta_exact,
        delta_v=delta_v,
        delta_t=delta_t,
        delta_max=max(delta_exact.values()),
        rho=rho,
        c_tilde_op=stats.c_op / (1.0 - rho),
        c_set=c_set,
        order=order,
        epsilon=epsilon,
    )


def default_sampler(problem: EstimatingProblem, theta_hat, order: int,
                    n_samples: int = 256, seed: int = 0,
                    radius: Optional[float] = None) -> DomainSampler:
    """Sampler with the self-consistent default radius 2 * C_op * delta_0.

    A radius-zero pass measures C_op and delta_0 at the base fit, and the
    region is enlarged to twice the resulting worst-case solution drift.  A
    problem's domain hint, or an explicit radius, overrides the default.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    if radius is None and problem.domain_hint is not None:
        radius = problem.domain_hint.radius
    if radius is None:
        pilot = estimate_constants(
            problem, theta_hat, DomainSampler(theta_hat, 0.0), order
        )
        radius = 2.0 * pilot.c_op * pilot.delta[0]
    return DomainSampler(theta_hat, float(radius), n_samples=n_samples, seed=seed)


# -- the bound ladder ----------------------------------------------------------


@dataclass(frozen=True)
class ConditionCheck:
    satisfied: bool
    c_set: float
    c_tilde_op: float


def check_condition(constants: BoundConstants, rho: float) -> ConditionCheck:
    """Invertibility condition: C_op d_1 + C_op^2 L_H d_0 <= rho < 1."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be strictly inside (0, 1), got {rho}")
    c_set = constants.c_op * constants.delta[1] + \
        constants.c_op ** 2 * constants.l_h * constants.delta[0]
    return ConditionCheck(
        satisfied=c_set <= rho,
        c_set=c_set,
        c_tilde_op=constants.c_op / (1.0 - rho),
    )


def derivative_norm_bounds(constants: BoundConstants, order: int) -> dict:
    """Norm bounds B_1..B_{order+1} with ||d_k|| <= B_k, built inductively.

    Each order's bound reads its term table: a term with multiset K and flag
    omega contributes a * (delta_{|K|} + (1 - omega) * M_{|K|}) times the
    product of the bounds of the orders it consumes.
    """
    check = check_condition(constants, constants.rho)
    if not check.satisfied:
        raise ConditionNotSatisfiedError(
            f"condition fails: C_set = {check.c_set:.6g} > rho = {constants.rho}; "
            "norm bounds would be vacuous"
        )
    if order + 1 > constants.order + 1:
        raise ValueError(
            f"constants were estimated for order {constants.order}; "
            f"cannot bound order {order + 1}"
        )
    table = term_tables(order + 1)
    c_tilde = check.c_tilde_op
    bounds: dict = {}
    for k in range(1, order + 2):
        total = 0.0
        for t in table.for_order(k):
            size = len(t.kset)
            level = constants.delta[size] + (1 - t.omega) * constants.m.get(size, 0.0)
            prod = 1.0
            for j in t.kset:
                prod *= bounds[j]
            total += t.coeff * level * prod
        bounds[k] = c_tilde * total
    return bounds


def taylor_error_bound(order: int, norm_bounds: dict) -> float:
    """Truncation bound for the order-K approximation: B_{K+1} / K!."""
    return norm_bounds[order + 1] / math.factorial(order)


def theta_difference_bound(constants: BoundConstants) -> float:
    """Plain re-solve drift bound C_op * delta_0 (reported alongside order 0)."""
    return constants.c_op * constants.delta[0]


# -- empirical verification of the inverse-norm guarantee ----------------------


@dataclass(frozen=True)
class SegmentPoint:
    t: float
    inverse_norm: float
    ok: bool


@dataclass(frozen=True)
class SegmentReport:
    points: tuple
    c_tilde_op: float

    @property
    def passed(self) -> bool:
        return all(p.ok for p in self.points)


def hessian_inverse_norm_check(problem: EstimatingProblem, theta_hat, w,
                               c_tilde_op: float, n_points: int = 9,
                               cfg: Optional[SolveConfig] = None) -> SegmentReport:
    """Verify ||H(w~)^{-1}||_op <= C_tilde_op along the segment to w.

    Walks interpolated weights from the all-ones vector to w, re-solving at
    each and measuring the inverse operator norm at the solution.  A
    violation signals constants estimated on too small a sampling region.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    values = np.asarray(getattr(w, "values", w), dtype=float)
    ones = np.ones(problem.n_terms)
    points = []
    theta = theta_hat
    for t in np.linspace(0.0, 1.0, n_points):
        wt = (1.0 - t) * ones + t * values
        theta = exact_refit(problem, wt, theta, cfg)
        h = assemble_jacobian(problem, theta, wt)
        inv_norm = operator_norm_of_inverse(h)
        points.append(SegmentPoint(float(t), inv_norm, inv_norm <= c_tilde_op))
    return SegmentReport(points=tuple(points), c_tilde_op=c_tilde_op)


# -- report assembly ------------------------------------------------------------


def bounds_report(problem: EstimatingProblem, theta_hat, sampler: DomainSampler,
                  order: int, rho: float = 0.5, epsilon: float = 0.0) -> dict:
    """JSON-ready bound report: per-order constants plus the global summary."""
    constants = estimate_constants(problem, theta_hat, sampler, order, rho, epsilon)
    check = check_condition(constants, rho)
    per_k = {}
    for k in range(order + 2):
        per_k[str(k)] = {
            "M": constants.m[k],
            "delta_exact": constants.delta_exact[k],
            "delta_v": constants.delta_v[k],
            "delta_t": constants.delta_t[k],
        }
    report = {
        "C_op": constants.c_op,
        "C_tilde_op": check.c_tilde_op,
        "C_set": check.c_set,
        "L_H": constants.l_h,
        "L_H_alternative": constants.l_h_alternative,
        "rho": rho,
        "epsilon": epsilon,
        "condition_satisfied": check.satisfied,
        "sup_estimate": "sampled sup",
        "sampler": {
            "radius": sampler.radius,
            "n_samples": sampler.n_samples,
            "seed": sampler.seed,
        },
        "per_k": per_k,
        "theta_difference_bound": theta_difference_bound(constants),
    }
    if check.satisfied:
        nb = derivative_norm_bounds(constants, order)
        for k in range(1, order + 2):
            per_k[str(k)]["B"] = nb[k]
        report["err_bound_per_K"] = {
            str(k): taylor_error_bound(k, nb) for k in range(order + 1)
        }
    return report
