"""Base solves and the Taylor expansion of the solution in the weights.

The expansion around the all-ones weights needs one Newton solve, one
dense factorization of the Jacobian H = dG/dtheta at the base fit, and the
per-datum derivative arrays of G there, every order from one forward pass
on first use.  After that, every weight vector costs only derivative
contractions and one product with the inverse Jacobian: the order-k
coefficient solves

    H * d_k = -(sum of table terms of order k),

where each table term is a G-derivative contracted against lower-order
coefficients.  Terms without the weight derivative contract the row sums of
the cached arrays; weight-direction terms contract the cached rows the
weights change, so no forward pass runs per weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import forward_ad as fad
from .models import EstimatingProblem, evaluate_g
from .terms import DerivativeTerm, TermTable


class SolverError(RuntimeError):
    """Newton iteration failed; carries the last iterate and residual norm."""

    def __init__(self, message: str, iterate=None, residual_norm=None):
        super().__init__(message)
        self.iterate = None if iterate is None else np.asarray(iterate, float)
        self.residual_norm = residual_norm


class SingularHessianError(SolverError):
    """The Jacobian of G in theta is numerically singular.

    The expansion requires the base Jacobian to be strongly positive
    definite (uniformly invertible); a reciprocal condition estimate below
    the floor means that requirement fails at this point.
    """


# Each rejected Newton step is scaled by BACKTRACK_RATIO, at most
# MAX_BACKTRACKS times, before the line search counts as stalled.
BACKTRACK_RATIO = 0.5
MAX_BACKTRACKS = 40
# A base Jacobian whose reciprocal condition number is below this is singular.
RCOND_FLOOR = 1e-12


@dataclass
class SolveConfig:
    """Newton solve controls: the residual tolerance on ||G||_2, by default
    1e-10 * sqrt(D), and the iteration limit."""

    tol_grad: Optional[float] = None
    max_iter: int = 100

    def __post_init__(self):
        if self.tol_grad is not None and self.tol_grad <= 0:
            raise ValueError("tol_grad must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")

    def resolved_tol(self, dim: int) -> float:
        return self.tol_grad if self.tol_grad is not None else 1e-10 * math.sqrt(dim)


def _as_weights(w, n: int) -> np.ndarray:
    values = np.asarray(getattr(w, "values", w), dtype=float)
    if values.shape != (n,):
        raise ValueError(f"weight length {values.shape} does not match {n} terms")
    return values


def assemble_jacobian(problem: EstimatingProblem, theta, w) -> np.ndarray:
    """H(theta, w) = dG/dtheta from one direction-batched forward pass."""
    return fad.g_theta_tensor(problem, theta, w, 1)


def _newton_step(h: np.ndarray, g: np.ndarray, theta, gnorm: float) -> np.ndarray:
    """The Newton step -H^{-1} g, from numpy's LAPACK gesv.  H and g come
    from passes that reject non-finite values."""
    try:
        return -np.linalg.solve(h, g)
    except np.linalg.LinAlgError:
        raise SingularHessianError(
            f"singular Jacobian during Newton solve at residual {gnorm:.3e}",
            iterate=theta, residual_norm=gnorm,
        ) from None


def _damped_newton(problem: EstimatingProblem, weights: np.ndarray, theta: np.ndarray,
                   g: np.ndarray, cfg: SolveConfig) -> np.ndarray:
    """Damped Newton with backtracking on ||G||_2 from theta, where G = g."""
    tol = cfg.resolved_tol(problem.dim_theta)
    gnorm = float(np.linalg.norm(g))
    for _ in range(cfg.max_iter):
        if gnorm <= tol:
            return theta
        step = _newton_step(assemble_jacobian(problem, theta, weights), g, theta, gnorm)
        scale = 1.0
        for _ in range(MAX_BACKTRACKS):
            cand = theta + scale * step
            g_cand = evaluate_g(problem, cand, weights)
            cand_norm = float(np.linalg.norm(g_cand))
            if cand_norm < gnorm:
                theta, g, gnorm = cand, g_cand, cand_norm
                break
            scale *= BACKTRACK_RATIO
        else:
            raise SolverError(
                f"line search stalled at residual {gnorm:.3e}",
                iterate=theta, residual_norm=gnorm,
            )
    if gnorm <= tol:
        return theta
    raise SolverError(
        f"no convergence in {cfg.max_iter} iterations (residual {gnorm:.3e}, tol {tol:.3e})",
        iterate=theta, residual_norm=gnorm,
    )


def solve_base(problem: EstimatingProblem, w=None,
               cfg: Optional[SolveConfig] = None) -> np.ndarray:
    """Solve G(theta, w) = 0 by damped Newton with backtracking on ||G||_2,
    from theta = 0."""
    cfg = cfg or SolveConfig()
    n, dim = problem.n_terms, problem.dim_theta
    weights = np.ones(n) if w is None else _as_weights(w, n)
    theta = np.zeros(dim)
    return _damped_newton(problem, weights, theta, evaluate_g(problem, theta, weights), cfg)


def exact_refit(problem: EstimatingProblem, w, theta_hat,
                cfg: Optional[SolveConfig] = None, start=None,
                max_start_residual: Optional[float] = None) -> np.ndarray:
    """Re-solve at new weights, from ``start`` or else from the base solution.

    Without ``start`` this is :func:`solve_base`'s iteration from theta_hat.
    From a given start, typically the order-K expansion, which is already
    near the root, the first Newton step is taken unconditionally, so the
    result is never the start itself unless that step fails to lower
    ||G||, which means the start was at the rounding floor; the damped
    iteration then runs as in :func:`solve_base`.  A start where G is not
    finite, or whose residual ||G(start, w)|| is not below
    ``max_start_residual`` (the residual at theta_hat, say), is dropped for
    theta_hat.  :func:`refit_block` re-fits many weights at once and calls
    this for the weights its chord iteration does not settle.
    """
    cfg = cfg or SolveConfig()
    weights = _as_weights(w, problem.n_terms)
    if start is not None:
        theta = np.array(start, dtype=float)
        ceiling = math.inf if max_start_residual is None else max_start_residual
        try:
            g = evaluate_g(problem, theta, weights)
            gnorm = float(np.linalg.norm(g))
        except fad.NonFiniteValueError:
            gnorm = math.inf  # never below the ceiling
        if gnorm < ceiling:
            cand = theta + _newton_step(assemble_jacobian(problem, theta, weights),
                                        g, theta, gnorm)
            g_cand = evaluate_g(problem, cand, weights)
            if float(np.linalg.norm(g_cand)) < gnorm:
                theta, g = cand, g_cand
            return _damped_newton(problem, weights, theta, g, cfg)
    theta = np.array(theta_hat, dtype=float)
    return _damped_newton(problem, weights, theta, evaluate_g(problem, theta, weights), cfg)


def _all_finite(a: np.ndarray) -> bool:
    # np.count_nonzero skips the reduction machinery of .all(): 0.8 against
    # 1.7 us on a (3,) array with numpy 2.4 on a 2-core Xeon, and every
    # solve checks twice.
    return np.count_nonzero(np.isfinite(a)) == a.size


@dataclass(frozen=True, eq=False)
class HessianFactor:
    """The inverse of the base Jacobian, for repeated solves.

    It also keeps the base fit ``theta_hat`` it was built at, and memoizes
    the derivatives of G there (all-ones weights) on first use: the
    per-datum arrays of :func:`forward_ad.per_datum_tensors` for the orders
    that :meth:`rows` is asked for, and the summed tensors of :meth:`tensor`,
    read off cached rows when there are some and otherwise reduced row block
    by row block, so no per-datum array of that order is kept.
    :meth:`prepare` fills several orders from one Taylor pass: the order-K
    expansion's rows of orders 0..K-1 and its order-K tensor from one pass
    of degree K.
    """

    matrix: np.ndarray
    inverse: np.ndarray
    cond_estimate: float
    problem: EstimatingProblem
    theta_hat: np.ndarray
    _tensors: dict = field(default_factory=dict, repr=False)
    _rows: dict = field(default_factory=dict, repr=False)
    _expanded: set = field(default_factory=set, repr=False)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """H^{-1} b for a (D,) or (D, B) ``b``, as one product with the
        inverse.  numpy's product warns on an infinite operand, so b is
        checked first, and the result, which can overflow, after."""
        if not _all_finite(b):
            raise fad.NonFiniteValueError("non-finite right-hand side of the Hessian system")
        x = self.inverse.dot(b)
        if not _all_finite(x):
            raise fad.NonFiniteValueError("non-finite solution of the Hessian system")
        return x

    def prepare(self, rows=(), tensors=()) -> None:
        """Cache :meth:`rows` for the orders ``rows`` and :meth:`tensor` for
        the orders ``tensors``, everything missing from one Taylor pass."""
        want_rows = [k for k in rows if k not in self._rows]
        want_sums = [k for k in tensors if k not in self._tensors
                     and k not in self._rows and k not in want_rows]
        if want_rows or want_sums:
            out = fad.per_datum_tensors(self.problem, self.theta_hat, want_rows,
                                        summed=want_sums)
            self._rows.update((k, out[k]) for k in want_rows)
            self._tensors.update((k, self._summed(k, *out[k])) for k in want_sums)

    def prepare_expansion(self, order: int) -> None:
        """Cache what an order-``order`` expansion reads, from one Taylor pass:
        the rows of every order below it and, from order 2, the summed tensor
        of its own order; once per order, as the caches are never emptied."""
        if order not in self._expanded:
            self.prepare(rows=range(order), tensors=(order,) if order >= 2 else ())
            self._expanded.add(order)

    def _summed(self, k: int, g0: np.ndarray, summed: np.ndarray) -> np.ndarray:
        # (D, D**k) tensor of G from the multiset row sum of the terms g_n
        inverse = fad.basis_multisets(self.problem.dim_theta, k)[1]
        return (g0 + summed)[:, inverse] / self.problem.n_terms

    def rows(self, k: int) -> tuple:
        """(g0, per): the order-k derivatives of g_0 and of every g_n at theta_hat."""
        if k not in self._rows:
            self.prepare(rows=(k,))
        return self._rows[k]

    def tensor(self, k: int) -> np.ndarray:
        """The order-k derivative array of G at theta_hat, shape (D, D**k)."""
        if k not in self._tensors:
            if k in self._rows:
                g0, per = self._rows[k]
                self._tensors[k] = self._summed(k, g0, per.sum(axis=0))
            else:
                self.prepare(tensors=(k,))
        return self._tensors[k]


def factorize_hessian(problem: EstimatingProblem, theta_hat) -> HessianFactor:
    """Assemble H at the base fit and invert it through its SVD.

    One SVD gives both the reciprocal condition number and the inverse
    V diag(1/s) U^T; the estimating equations need not be gradients, so H
    need not be symmetric.  Measured at D = 3 and 8 with one BLAS thread,
    for one right-hand side and for 64, one product with the inverse, its
    checks included, is no slower than LAPACK's LU solve (getrs), while the
    three products V (s^-1 (U^T b)) take 1.5 to 1.7 times as long.
    """
    h = assemble_jacobian(problem, theta_hat, np.ones(problem.n_terms))
    u, s, vt = np.linalg.svd(h)
    rcond = float(s[-1] / s[0]) if s[0] > 0 else 0.0
    if rcond < RCOND_FLOOR:
        raise SingularHessianError(
            "base Jacobian is numerically singular "
            f"(reciprocal condition {rcond:.3e} < {RCOND_FLOOR:.0e}); "
            "the expansion requires it to be strongly positive definite",
        )
    return HessianFactor(matrix=h, inverse=(vt.T / s) @ u.T, cond_estimate=rcond,
                         problem=problem, theta_hat=np.array(theta_hat, dtype=float))


def evaluate_dtheta(problem: EstimatingProblem, theta_hat, hfac: HessianFactor,
                    order_terms: Sequence[DerivativeTerm], dset: dict, delta_w) -> np.ndarray:
    """One expansion coefficient: -H^{-1} (sum of one order's table terms).

    A term with m directions is one :func:`forward_ad.g_weight_derivative`
    call on ``hfac.rows(m)`` if it is a weight-direction term, else one
    :func:`forward_ad.contract` of ``hfac.tensor(m)``: arrays cached at the
    point ``hfac`` was built at, which ``theta_hat`` must be
    (``hfac.theta_hat`` itself is not compared).  For a (B, N) block
    ``delta_w`` the coefficients in ``dset`` and the result are (B, D), and
    the order ends in one solve with B right-hand sides; a
    non-finite value anywhere in the block raises NonFiniteValueError.
    """
    if theta_hat is not hfac.theta_hat and not np.array_equal(theta_hat, hfac.theta_hat):
        raise ValueError("theta_hat differs from the point the Hessian factor was built at")
    d = 0.0
    for term in order_terms:
        dirs = [dset[j] for j in term.kset]
        if term.omega:
            value = fad.g_weight_derivative(problem, theta_hat, delta_w, dirs,
                                            hfac.rows(len(dirs))[1])
        else:
            value = fad.contract(hfac.tensor(len(dirs)), dirs)
            if not np.isfinite(value).all():
                raise fad.NonFiniteValueError(f"non-finite contraction for term {term}")
        d = d + term.coeff * value
    return -hfac.solve(d.T).T


@dataclass(frozen=True, eq=False)
class TaylorExpansion:
    """Base solution plus the weight-direction derivatives d_1..d_K, each
    (D,) for one weight vector and (B, D) for a block of B."""

    theta_hat: np.ndarray
    dthetas: tuple
    order: int

    def partial_sums(self) -> np.ndarray:
        """theta_hat + sum_{j<=k} d_j / j! for k = 0..order: (order + 1, D),
        or (B, order + 1, D) for a block, from one cumulative sum over j."""
        terms = [self.theta_hat, *(d / math.factorial(j) for j, d in enumerate(self.dthetas, 1))]
        return np.cumsum(np.stack(terms, axis=-2), axis=-2)

    def partial_sum(self, k: int) -> np.ndarray:
        """The order-k approximation, row k of :meth:`partial_sums`."""
        if not 0 <= k <= self.order:
            raise ValueError(f"order {k} outside 0..{self.order}")
        return self.partial_sums()[..., k, :]

    @property
    def theta_ij(self) -> np.ndarray:
        return self.partial_sums()[..., -1, :]


def evaluate_theta_ij(problem: EstimatingProblem, theta_hat, hfac: HessianFactor,
                      table: TermTable, delta_w, order: int) -> TaylorExpansion:
    """Run the expansion loop through the requested order.

    ``delta_w`` is one weight offset w - 1 of length N, or a (B, N) block of
    them; the coefficients are then (D,) or (B, D), and for a block the
    expansion's ``theta_hat`` is repeated per row.  Accumulates the
    derivative set bottom-up, one :func:`evaluate_dtheta` call per order on
    that order's table terms.  Their arrays come from one forward pass per
    factor, of degree ``order`` (:meth:`~HessianFactor.prepare_expansion`):
    the per-datum arrays of the orders below it and the row sum of its own.
    """
    if order > table.max_order:
        raise ValueError(f"order {order} exceeds table max {table.max_order}")
    delta_w = np.asarray(getattr(delta_w, "delta", delta_w), dtype=float)
    theta_hat = np.asarray(theta_hat, dtype=float)
    if theta_hat is not hfac.theta_hat and not np.array_equal(theta_hat, hfac.theta_hat):
        raise ValueError("theta_hat differs from the point the Hessian factor was built at")
    hfac.prepare_expansion(order)
    dset: dict = {}
    for k in range(1, order + 1):
        dset[k] = evaluate_dtheta(problem, hfac.theta_hat, hfac, table.for_order(k),
                                  dset, delta_w)
    if delta_w.ndim == 2:
        theta_hat = np.broadcast_to(theta_hat, (len(delta_w), theta_hat.size))
    return TaylorExpansion(theta_hat=theta_hat, dthetas=tuple(dset.values()), order=order)


# Weight vectors re-fitted together by :func:`refit_block`.
REFIT_BLOCK = 64
# Leaves of a block's G evaluation, (weights, rows), hold at most this many
# entries; more rows are swept in blocks, so memory does not grow with N.
REFIT_LEAF_ELEMENTS = 2 * fad.BLOCK_ELEMENTS
# Chord steps a weight may take before it must have stopped at the floor.
CHORD_STEPS = 8
# A chord step shorter than this, relative to ||theta||, is taken for
# rounding and stops the weight without a G evaluation.  Steps at the floor
# measured 0.3-4.4 eps (logistic, D = 3 and 8).
CHORD_ROUNDING = 4 * np.finfo(float).eps


def evaluate_g_block(problem: EstimatingProblem, thetas, weights) -> np.ndarray:
    """G(thetas[b], weights[b]) for each of B points, shape (B, D).

    ``weights`` is a (B, N) array, one weight vector per row.  One
    ``batch_fn`` call per row block, with theta leaves of shape (B, 1) that
    the problem broadcasts against its rows; each block's (B, rows) leaves,
    and the view of the weights they multiply, hold at most
    REFIT_LEAF_ELEMENTS entries, so memory does not grow with N.  Rows where
    G is not finite are returned as they are, for the caller to judge.
    """
    thetas = np.asarray(thetas, dtype=float)
    weights = np.asarray(weights, dtype=float)
    m, n = weights.shape
    x = [thetas[:, d, None] for d in range(problem.dim_theta)]
    out = np.empty((m, problem.dim_theta))
    step = max(1, REFIT_LEAF_ELEMENTS // m)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for d, v in enumerate(problem.term_fn(0, x)):
            out[:, d:d + 1] = v  # a (B, 1) leaf or a constant
        for lo in range(0, n, step):
            w = weights[:, lo:lo + step]
            for d, o in enumerate(problem.batch_fn(x, np.arange(lo, lo + w.shape[1]))):
                out[:, d] += (w * o).sum(axis=1)
    return out / n


def _chord_jacobians(hfac: HessianFactor, weights: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """The Jacobian at (theta_b, w_b) to second order in v_b = theta_b - theta_hat.

    J(theta_hat, w_b) + J'(theta_hat, w_b)[v_b] + tensor(3)[v_b, v_b] / 2,
    shape (B, D, D), for the rows w_b of the (B, N) ``weights``, read off the
    derivatives cached at theta_hat: the weighted row sums of the order-1
    and order-2 rows, one product with the block each, and the order-3
    tensor.  What it leaves out is O(|v_b|^3 + |w_b - 1| |v_b|^2 / N).
    """
    n, dim = hfac.problem.n_terms, hfac.problem.dim_theta
    hfac.prepare(rows=(1, 2), tensors=(3,))
    v = thetas - hfac.theta_hat
    sums = []
    for k in (1, 2):
        g0, per = hfac.rows(k)
        summed = (g0.ravel() + weights @ per.reshape(n, -1)).reshape(len(v), *g0.shape)
        sums.append(summed[:, :, fad.basis_multisets(dim, k)[1]] / n)
    t3 = (hfac.tensor(3).reshape(dim ** 3, dim) @ v.T).reshape(dim, dim, dim, -1)
    return (sums[0] + np.einsum("bijl,bl->bij", sums[1].reshape(-1, dim, dim, dim), v)
            + 0.5 * np.einsum("ijkb,bk->bij", t3, v))


def _row_norms(a: np.ndarray) -> np.ndarray:
    # NaN for a row that is not finite, which compares as no lower than any
    # residual and as above any ceiling or tolerance.
    return np.sqrt(np.einsum("ij,ij->i", a, a))


def refit_block(problem: EstimatingProblem, hfac: HessianFactor, weights, starts,
                cfg: Optional[SolveConfig] = None) -> list:
    """Exact re-fits of a block of weight vectors, each from its own start.

    A chord (simplified Newton) iteration theta <- theta - Ĥ_b^{-1}
    G(theta, w_b), with Ĥ_b from :func:`_chord_jacobians` (Kelley, *Iterative
    Methods for Linear and Nonlinear Equations*, 1995, ch. 5): no forward
    pass, one batched inversion of the D x D matrices Ĥ_b, and per step one
    batched product and one :func:`evaluate_g_block` call for the weights
    still moving.  A weight keeps a step only if it lowers ||G||, and stops
    at the first step that does not, or that is no longer than rounding
    (CHORD_ROUNDING): the rounding floor.  From an order-K expansion,
    O(N^-(K+1)) from the root, that mostly takes one step.

    ``weights`` holds B weight vectors, or is a (B, N) array of them.  They
    are stacked into one (B, N) array, once: the ceilings ||G(theta_hat,
    w_b)|| are one product of it with the cached order-0 rows, the weighted
    row sums in Ĥ_b one product per order, and every G evaluation reads
    views of its rows.

    A weight falls back to :func:`exact_refit` from its start, with
    ``max_start_residual`` = ||G(theta_hat, w)||, when its start is not
    below that ceiling (a start equal to theta_hat, as at order 0, is
    exempt: its residual is the ceiling), G there is not finite, it has
    not stopped within CHORD_STEPS steps or stopped above
    ``cfg.resolved_tol(D)``, or a Ĥ_b of the block is singular.  Returns
    one entry per weight: the root, or the :class:`SolverError` or
    :class:`~hoij.forward_ad.NonFiniteValueError` its fallback raised.
    """
    cfg = cfg or SolveConfig()
    n = problem.n_terms
    values = np.array([_as_weights(w, n) for w in weights]).reshape(len(weights), n)
    thetas = np.array(starts, dtype=float).reshape(len(values), problem.dim_theta)
    g0, per = hfac.rows(0)
    ceilings = _row_norms((g0[:, 0] + values @ per[:, :, 0]) / n)
    done = np.zeros(len(values), dtype=bool)
    if len(values):
        g = evaluate_g_block(problem, thetas, values)
        gnorms = _row_norms(g)
        # At theta_hat the ceiling is the start's own residual, rounded
        # another way, so comparing the two would decide by rounding.
        at_base = (thetas == hfac.theta_hat).all(axis=1) & np.isfinite(gnorms)
        chord = np.flatnonzero((gnorms < ceilings) | at_base)
        try:
            inverses = np.linalg.inv(_chord_jacobians(hfac, values[chord], thetas[chord]))
        except np.linalg.LinAlgError:  # a singular Ĥ_b: the block falls back
            chord = chord[:0]
        active = np.arange(len(chord))
        for _ in range(CHORD_STEPS):
            if not active.size:
                break
            idx = chord[active]
            step = np.einsum("bij,bj->bi", inverses[active], g[idx])
            moves = _row_norms(step) > CHORD_ROUNDING * _row_norms(thetas[idx])
            active, idx, step = active[moves], idx[moves], step[moves]
            if not active.size:
                break
            cand = thetas[idx] - step
            g_cand = evaluate_g_block(problem, cand, values[idx])
            cand_norms = _row_norms(g_cand)
            better = cand_norms < gnorms[idx]
            kept = idx[better]
            thetas[kept], g[kept], gnorms[kept] = cand[better], g_cand[better], cand_norms[better]
            active = active[better]
        done[chord] = gnorms[chord] <= cfg.resolved_tol(problem.dim_theta)
        done[chord[active]] = False  # still moving after CHORD_STEPS steps
    out = []
    for i, w in enumerate(weights):
        if done[i]:
            out.append(thetas[i])
            continue
        try:
            out.append(exact_refit(problem, w, hfac.theta_hat, cfg, start=starts[i],
                                   max_start_residual=float(ceilings[i])))
        except (SolverError, fad.NonFiniteValueError) as err:
            out.append(err)
    return out
