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
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

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


def operator_norm_of_inverse(a: np.ndarray) -> float:
    """||A^{-1}||_op, the reciprocal of A's smallest singular value."""
    smin = float(np.linalg.svd(np.asarray(a, dtype=float), compute_uv=False)[-1])
    if smin <= 0.0:
        raise np.linalg.LinAlgError("matrix is singular")
    return 1.0 / smin


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
    sampled supremum to an evaluation at the base fit.  A radius of None is
    the default 2 * C_op * delta_0, which :func:`estimate_constants` measures
    at the center before it draws the other points; ``points`` refuses it.
    Any other radius must be a number >= 0 when the sampler is built.
    """

    center: np.ndarray
    radius: Optional[float] = None
    n_samples: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.radius is not None and not self.radius >= 0:
            raise ValueError(f"radius must be a number >= 0, got {self.radius}")

    def points(self) -> np.ndarray:
        center = np.asarray(self.center, dtype=float)
        if self.radius is None:
            raise ValueError("radius must be a number >= 0, got None")
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
    """Flattened entries of the order-k derivative array of G(theta, w), ordered
    direction tuple major and component minor: :func:`forward_ad.g_theta_tensor`
    transposed."""
    weights = np.ones(problem.n_terms) if w is None else w
    return fad.g_theta_tensor(problem, theta, weights, k).T.ravel()


# -- constants ----------------------------------------------------------------


@dataclass(frozen=True)
class BoundConstants:
    """Sampled-sup constants feeding the bound ladder.

    ``m``, ``v``, ``t`` and the delta series are per-order dicts indexed
    0..K+1 (``m`` additionally includes order 0 for the epsilon correction,
    although only orders >= 1 enter any bound).  ``delta_exact`` is the
    series the bounds consume: the exact leave-one-out maximum plus any
    epsilon term.  ``radius`` is the ball the constants were sampled in.
    """

    c_op: float
    l_h: float
    m: dict
    v: dict
    t: dict
    delta_exact: dict
    delta_v: dict
    delta_t: dict
    delta_max: float
    rho: float
    c_tilde_op: float
    c_set: float
    order: int
    radius: float
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


def _point_stats(problem: EstimatingProblem, theta, k_hi: int, out=None):
    # The statistics at one point, from one Taylor pass of degree k_hi, and
    # the pass's per-row arrays, written into ``out``, those of an earlier
    # pass of the same degree, when given.  Entry norms weight each multiset
    # column by the number of ordered tuples it stands for, so they equal the
    # norms of the full D**(k+1) arrays.  Each order's rows are read in the
    # pass's contiguous (D, P, N) layout, one sweep per statistic, with no
    # (N, D, P) temporaries.  Finite rows can still overflow when summed or
    # squared, so a statistic that is not finite raises NonFiniteValueError,
    # and numpy's warnings, which would only repeat it, are off.
    n, dim = problem.n_terms, problem.dim_theta
    c_op = 0.0
    m, v, t, loo = {}, {}, {}, {}
    tensors = fad.per_datum_tensors(problem, theta, range(k_hi + 1), out=out)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (g0, per) in tensors.items():
            mult = np.bincount(fad.basis_multisets(dim, k)[1])
            base = per.transpose(1, 2, 0)
            summed = (g0 + base.sum(axis=2)) / n
            if not np.isfinite(summed).all():
                raise fad.NonFiniteValueError(f"non-finite order-{k} derivative of G "
                                              f"at sampled point {np.asarray(theta).tolist()}")
            if k == 1:
                # the order-1 multisets are the D basis directions in order,
                # so summed is the Jacobian
                try:
                    c_op = operator_norm_of_inverse(summed)
                except np.linalg.LinAlgError:
                    raise SingularSampleError(theta) from None
            m[k] = math.sqrt(float(np.sum(summed * summed, axis=0) @ mult))
            sq = mult @ np.einsum("dpn,dpn->pn", base, base)
            v[k] = float(sq.mean())
            t[k] = float(max(base.max(), -base.min()))
            loo[k] = float(np.sqrt(sq.max())) / n
    if not np.isfinite([c_op, *m.values(), *v.values(), *t.values(), *loo.values()]).all():
        raise fad.NonFiniteValueError("non-finite bound statistic at sampled point "
                                      f"{np.asarray(theta).tolist()}")
    return _SampledStats(c_op=c_op, m=m, v=v, t=t, loo_exact=loo), tensors


def _sample_stats(problem: EstimatingProblem, sampler: DomainSampler, k_hi: int):
    # The largest of each statistic over the sampled points, and the radius
    # they were drawn in.  The centre is measured first, and a radius of
    # None resolves to 2 * C_op * delta_0 there; its pass allocates the
    # per-row arrays that every later point overwrites.
    centre, rows = _point_stats(problem, np.asarray(sampler.center, dtype=float), k_hi)
    radius = (2.0 * centre.c_op * centre.loo_exact[0] if sampler.radius is None
              else sampler.radius)
    stats = [centre]
    for theta in replace(sampler, radius=radius).points()[1:]:
        point, rows = _point_stats(problem, theta, k_hi, rows)
        stats.append(point)

    def sup(field):
        return {k: max(getattr(s, field)[k] for s in stats) for k in range(k_hi + 1)}

    return _SampledStats(c_op=max(s.c_op for s in stats), m=sup("m"), v=sup("v"),
                         t=sup("t"), loo_exact=sup("loo_exact")), float(radius)


class SingularSampleError(np.linalg.LinAlgError):
    """The Jacobian was singular at a sampled parameter point."""

    def __init__(self, theta):
        super().__init__(f"singular Jacobian at sampled point {np.asarray(theta)}")
        self.theta = np.asarray(theta, float)


def _stats_order(order: int) -> int:
    # The highest derivative order the constants of an order-K bound read.
    if not 0 <= order < fad.K_MAX:
        raise ValueError(f"bound order {order} outside 0..{fad.K_MAX - 1}: "
                         f"its constants need derivatives of order {order + 1}")
    return max(order + 1, 2)


def estimate_constants(problem: EstimatingProblem, theta_hat, sampler: DomainSampler,
                       order: int, rho: float = 0.5,
                       epsilon: float = 0.0) -> BoundConstants:
    """Measure every constant the bound ladder needs, for a given order.

    The delta series defaults to the exact LOO maximum (epsilon correction
    optional); the Jacobian Lipschitz level is the second-derivative norm
    bound.  rho fixes the slack in the invertibility condition.  The
    sampler must be centred on ``theta_hat``, which is measured first: a
    radius of None resolves there to 2 * C_op * delta_0, the result's
    ``radius``, before the other points are drawn.
    """
    if not np.array_equal(np.asarray(sampler.center, dtype=float),
                          np.asarray(theta_hat, dtype=float)):
        raise ValueError("the sampler is not centred on theta_hat")
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be strictly inside (0, 1), got {rho}")
    stats, radius = _sample_stats(problem, sampler, _stats_order(order))
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
        delta_exact=delta_exact,
        delta_v=delta_v,
        delta_t=delta_t,
        delta_max=max(delta_exact.values()),
        rho=rho,
        c_tilde_op=stats.c_op / (1.0 - rho),
        c_set=c_set,
        order=order,
        radius=radius,
        epsilon=epsilon,
    )


def default_sampler(theta_hat, n_samples: int = 256, seed: int = 0,
                    radius: Optional[float] = None) -> DomainSampler:
    """``DomainSampler(theta_hat, radius, n_samples, seed)``; a radius of None
    is resolved by :func:`estimate_constants` at the base fit, the first point."""
    return DomainSampler(theta_hat, radius, n_samples=n_samples, seed=seed)


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
    return ConditionCheck(
        satisfied=constants.c_set <= rho,
        c_set=constants.c_set,
        c_tilde_op=constants.c_op / (1.0 - rho),
    )


def derivative_norm_bounds(constants: BoundConstants, order: int) -> dict:
    """Norm bounds B_1..B_{order+1} with ||d_k|| <= B_k, built inductively.

    Each order's bound reads its term table: a term with multiset K and flag
    omega contributes a * (delta_{|K|} + (1 - omega) * M_{|K|}) times the
    product of the bounds of the orders it consumes.
    """
    if not constants.condition_satisfied:
        raise ConditionNotSatisfiedError(
            f"condition fails: C_set = {constants.c_set:.6g} > rho = {constants.rho}; "
            "norm bounds would be vacuous"
        )
    if order + 1 > constants.order + 1:
        raise ValueError(
            f"constants were estimated for order {constants.order}; "
            f"cannot bound order {order + 1}"
        )
    table = term_tables(order + 1)
    c_tilde = constants.c_tilde_op
    bounds: dict = {}
    for k in range(1, order + 2):
        total = 0.0
        for t in table.for_order(k):
            size = len(t.kset)
            level = constants.delta_exact[size] + (1 - t.omega) * constants.m.get(size, 0.0)
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
    return constants.c_op * constants.delta_exact[0]


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


# Evenly spaced weights, both ends included, that the segment check solves at.
SEGMENT_POINTS = 9


def hessian_inverse_norm_check(problem: EstimatingProblem, theta_hat, w, c_tilde_op: float,
                               cfg: Optional[SolveConfig] = None) -> SegmentReport:
    """Verify ||H(w~)^{-1}||_op <= C_tilde_op along the segment to w.

    Walks SEGMENT_POINTS interpolated weights from the all-ones vector to
    w, re-solving at each and measuring the inverse operator norm at the
    solution.  A violation signals constants estimated on too small a
    sampling region.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    values = np.asarray(getattr(w, "values", w), dtype=float)
    ones = np.ones(problem.n_terms)
    points = []
    theta = theta_hat
    for t in np.linspace(0.0, 1.0, SEGMENT_POINTS):
        wt = (1.0 - t) * ones + t * values
        theta = exact_refit(problem, wt, theta, cfg)
        h = assemble_jacobian(problem, theta, wt)
        inv_norm = operator_norm_of_inverse(h)
        points.append(SegmentPoint(float(t), inv_norm, inv_norm <= c_tilde_op))
    return SegmentReport(points=tuple(points), c_tilde_op=c_tilde_op)


# -- report assembly ------------------------------------------------------------


def bounds_report(problem: EstimatingProblem, theta_hat, sampler: DomainSampler,
                  order: int, rho: float = 0.5, epsilon: float = 0.0) -> dict:
    """JSON-ready bound report: per-order constants plus the global summary.

    The set complexity is that of the leave-one-out weights, so the problem
    needs two rows: the only leave-one-out weight of one row is all zeros.
    The report's ``sampler.radius`` is the radius the constants resolved.
    """
    if problem.n_terms < 2:
        raise ValueError(f"leave-one-out bounds need at least 2 rows, got {problem.n_terms}")
    constants = estimate_constants(problem, theta_hat, sampler, order, rho, epsilon)
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
        "C_tilde_op": constants.c_tilde_op,
        "C_set": constants.c_set,
        "L_H": constants.l_h,
        "L_H_alternative": constants.l_h_alternative,
        "rho": rho,
        "epsilon": epsilon,
        "condition_satisfied": constants.condition_satisfied,
        "sup_estimate": "sampled sup",
        "sampler": {
            "radius": constants.radius,
            "n_samples": sampler.n_samples,
            "seed": sampler.seed,
        },
        "per_k": per_k,
        "theta_difference_bound": theta_difference_bound(constants),
    }
    if constants.condition_satisfied:
        nb = derivative_norm_bounds(constants, order)
        for k in range(1, order + 2):
            per_k[str(k)]["B"] = nb[k]
        report["err_bound_per_K"] = {
            str(k): taylor_error_bound(k, nb) for k in range(order + 1)
        }
    return report
