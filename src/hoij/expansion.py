"""Base solves and the Taylor expansion of the solution in the weights.

The expansion around the all-ones weights needs one Newton solve, one
dense factorization of the Jacobian H = dG/dtheta at the base fit, and the
derivatives of G there, every order from one forward pass on first use.
After that, a weight offset Delta w, or a block of them, costs a univariate
Taylor recursion (Taylor-mode differentiation of the implicit function;
Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 13).  The
solution theta(t) = theta_hat + u(t), u(t) = sum_j d_j t^j / j!, solves
G(theta_hat + u(t), 1 + t Delta w) = 0, and the t^k coefficient of G is
H d_k / k! + c_k with

    c_k = sum_{2 <= |a| <= k} d^a G [u^a]_k / a!
          + sum_{|a| < k} W_a [u^a]_{k-1} / a!,

over index multisets a, where d^a G are the cached summed derivatives,
W_a the same derivatives of the terms weighted by Delta w / N, and [.]_k
the t^k coefficient.  So d_k = -k! H^{-1} c_k.  Each monomial u^a is its
parent multiset's times one coordinate, so its coefficients cost one
product per earlier coefficient; no D**k array is formed and no term table
is read.  The weights enter through one weighted row sum of the cached
per-datum arrays per derivative order.

The term-table engine, one contraction per term of the paper's tables, is
kept as the recursion's oracle for one weight vector
(:func:`evaluate_dtheta`).
"""

from __future__ import annotations

import functools
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
    that :meth:`rows` is asked for, and the summed derivatives over index
    multisets of :meth:`sums`, read off cached rows when there are some and
    otherwise reduced row block by row block, so no per-datum array of that
    order is kept.  :meth:`tensor` expands a sum to its (D, D**k) array on
    each call.  :meth:`prepare` fills several orders from one Taylor pass:
    the order-K expansion's rows of orders 0..K-1 and its order-K sum from
    one pass of degree K.
    """

    matrix: np.ndarray
    inverse: np.ndarray
    cond_estimate: float
    problem: EstimatingProblem
    theta_hat: np.ndarray
    _sums: dict = field(default_factory=dict, repr=False)
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

    def prepare(self, rows=(), sums=()) -> None:
        """Cache :meth:`rows` for the orders ``rows`` and :meth:`sums` for
        the orders ``sums``, everything missing from one Taylor pass."""
        want_rows = [k for k in rows if k not in self._rows]
        want_sums = [k for k in sums if k not in self._sums
                     and k not in self._rows and k not in want_rows]
        if want_rows or want_sums:
            out = fad.per_datum_tensors(self.problem, self.theta_hat, want_rows,
                                        summed=want_sums)
            self._rows.update((k, out[k]) for k in want_rows)
            self._sums.update((k, (out[k][0] + out[k][1]) / self.problem.n_terms)
                              for k in want_sums)

    def prepare_expansion(self, order: int) -> None:
        """Cache what an order-``order`` expansion reads, from one Taylor pass:
        the rows of every order below it and, from order 2, the sum of its
        own order; once per order, as the caches are never emptied."""
        if order not in self._expanded:
            self.prepare(rows=range(order), sums=(order,) if order >= 2 else ())
            self._expanded.add(order)

    def rows(self, k: int) -> tuple:
        """(g0, per): the order-k derivatives of g_0 and of every g_n at theta_hat."""
        if k not in self._rows:
            self.prepare(rows=(k,))
        return self._rows[k]

    def sums(self, k: int) -> np.ndarray:
        """The order-k derivatives of G at theta_hat over index multisets,
        shape (D, P): column p is the mixed partial in the multiset
        ``forward_ad.basis_multisets(D, k)[0][p]``."""
        if k not in self._sums:
            if k in self._rows:
                g0, per = self._rows[k]
                self._sums[k] = (g0 + per.sum(axis=0)) / self.problem.n_terms
            else:
                self.prepare(sums=(k,))
        return self._sums[k]

    def tensor(self, k: int) -> np.ndarray:
        """The order-k derivative array of G at theta_hat, shape (D, D**k),
        expanded from :meth:`sums` on each call."""
        return self.sums(k)[:, fad.basis_multisets(self.problem.dim_theta, k)[1]]


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
    """One expansion coefficient of one weight vector from the paper's term
    table: -H^{-1} (sum of one order's table terms).

    A term with m directions is one :func:`forward_ad.contract` of a
    (D, D**m) array cached at the point ``hfac`` was built at, which
    ``theta_hat`` must be (``hfac.theta_hat`` itself is not compared): for
    a weight-direction term the :func:`forward_ad.g_weight_derivative` row
    sum of ``hfac.rows(m)``, expanded from multisets to ordered tuples, and
    for any other ``hfac.tensor(m)``.  ``delta_w`` is one weight
    offset of length N, and ``dset`` maps each order below to its (D,)
    coefficient.

    This is the term-table engine.  It is public, off the expansion's hot
    path, and the oracle against which :func:`evaluate_theta_ij`'s
    recursion is tested; the bench's tracer wraps it by this name.
    """
    if theta_hat is not hfac.theta_hat and not np.array_equal(theta_hat, hfac.theta_hat):
        raise ValueError("theta_hat differs from the point the Hessian factor was built at")
    delta_w = np.asarray(getattr(delta_w, "delta", delta_w), dtype=float)
    if delta_w.shape != (problem.n_terms,):
        raise ValueError(f"weight offset of shape {delta_w.shape} is not ({problem.n_terms},)")
    d = 0.0
    for term in order_terms:
        dirs = [dset[j] for j in term.kset]
        m = len(dirs)
        if term.omega:
            summed = fad.g_weight_derivative(problem, theta_hat, delta_w, hfac.rows(m)[1])
            tensor = summed[:, fad.basis_multisets(problem.dim_theta, m)[1]]
        else:
            tensor = hfac.tensor(m)
        value = fad.contract(tensor, dirs)
        if not np.isfinite(value).all():
            kind = "weight-direction contraction" if term.omega else "contraction"
            raise fad.NonFiniteValueError(f"non-finite {kind} for term {term}")
        d = d + term.coeff * value
    return -hfac.solve(d)


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
    """The expansion through the requested order, by the Taylor recursion.

    ``delta_w`` is one weight offset w - 1 of length N, or a (B, N) block of
    them; the coefficients are then (D,) or (B, D), and for a block the
    expansion's ``theta_hat`` is repeated per row.  ``table`` is the term
    table the expansion would be read from; its ``max_order`` bounds
    ``order``, which must be at least 0, and the recursion reads none of its
    terms.  The arrays come from one forward pass per factor, of degree
    ``order`` (:meth:`~HessianFactor.prepare_expansion`): the per-datum
    arrays of the orders below it and the row sum of its own.  The weights enter through
    one :func:`forward_ad.g_weight_derivative` call per derivative order
    0..order-1: on the whole block, one product, unless every offset of the
    block changes fewer than N / GATHER_RATIO rows; then once per offset,
    where the call can gather the rows that offset changes.  A non-finite
    value anywhere in the block raises NonFiniteValueError.
    """
    if order < 0:
        raise ValueError(f"order {order} is below 0")
    if order > table.max_order:
        raise ValueError(f"order {order} exceeds table max {table.max_order}")
    delta_w = np.asarray(getattr(delta_w, "delta", delta_w), dtype=float)
    if delta_w.ndim not in (1, 2) or delta_w.shape[-1] != problem.n_terms:
        raise ValueError(f"weight offsets of shape {delta_w.shape} do not match "
                         f"{problem.n_terms} terms")
    theta_hat = np.asarray(theta_hat, dtype=float)
    if theta_hat is not hfac.theta_hat and not np.array_equal(theta_hat, hfac.theta_hat):
        raise ValueError("theta_hat differs from the point the Hessian factor was built at")
    hfac.prepare_expansion(order)
    dthetas = _taylor_coefficients(problem, hfac, delta_w.reshape(-1, problem.n_terms), order)
    if delta_w.ndim == 2:
        theta_hat = np.broadcast_to(theta_hat, (len(delta_w), theta_hat.size))
    else:
        dthetas = [d[0] for d in dthetas]
    return TaylorExpansion(theta_hat=theta_hat, dthetas=tuple(dthetas), order=order)


@functools.lru_cache(maxsize=None)
def _monomial_maps(dim: int, order: int) -> tuple:
    # The index multisets of orders 0..order >= 1 in D = dim variables, laid end
    # to end in the order of basis_multisets: (offsets, parent, last,
    # scale).  The order-m multisets sit at offsets[m]:offsets[m + 1].  For
    # the multiset a at position offsets[2] + i, parent[i] is the position
    # of a without its last index and last[i] that of the index alone, so
    # u^a = u^parent * u_last; scale is 1 / a! at every position.
    multisets = [tuple(a) for m in range(order + 1)
                 for a in fad.basis_multisets(dim, m)[0].tolist()]
    position = {a: q for q, a in enumerate(multisets)}
    offsets = np.cumsum([0] + [len(fad.basis_multisets(dim, m)[0])
                               for m in range(order + 1)]).tolist()
    higher = multisets[offsets[2]:]
    parent = np.array([position[a[:-1]] for a in higher], dtype=int)
    last = np.array([position[a[-1:]] for a in higher], dtype=int)
    scale = np.array([1.0 / math.prod(math.factorial(a.count(i)) for i in set(a))
                      for a in multisets])
    return offsets, parent, last, scale


def _weight_sums(problem: EstimatingProblem, hfac: HessianFactor, delta_w: np.ndarray,
                 offsets: list, order: int) -> np.ndarray:
    # delta_w @ rows(m) / N over the multisets of every order m < order, end
    # to end as in _monomial_maps, shape (B, D, offsets[order]).  A block
    # whose every offset changes fewer than N / GATHER_RATIO rows is reduced
    # one offset per call, where the call can gather the rows its offset
    # changes; any other block is one product per order.  The rows are
    # scanned one offset at a time, so a dense block stops at its first: a
    # scan of a whole (87, 3000) bootstrap block takes about as long as one
    # product with it.
    n, b = problem.n_terms, len(delta_w)
    sparse = b == 1 or all(fad.GATHER_RATIO * np.count_nonzero(dw) < n for dw in delta_w)
    out = np.empty((b, problem.dim_theta, offsets[order]))
    for m in range(order):
        per, cols = hfac.rows(m)[1], slice(offsets[m], offsets[m + 1])
        if sparse:
            for i, dw in enumerate(delta_w):
                out[i, :, cols] = fad.g_weight_derivative(problem, hfac.theta_hat, dw, per)
        else:
            out[:, :, cols] = fad.g_weight_derivative(problem, hfac.theta_hat, delta_w, per)
    return out


def _taylor_coefficients(problem: EstimatingProblem, hfac: HessianFactor,
                         delta_w: np.ndarray, order: int) -> list:
    # d_1..d_order, each (B, D), for the (B, N) offsets delta_w, by the
    # recursion of the module docstring.  u[k], k >= 1, holds the t^k
    # coefficients [u^a]_k of the monomials over the multisets of
    # _monomial_maps, (B, P): zero at the empty multiset and wherever
    # |a| > k, and d_k / k! at order 1.
    if not order:
        return []
    b, dim = len(delta_w), problem.dim_theta
    offsets, parent, last, scale = _monomial_maps(dim, order)
    # W_a / a! over the orders below ``order``, and d^a G / a! over 2..order;
    # a! is 1 below order 2
    weights = _weight_sums(problem, hfac, delta_w, offsets, order)
    if order >= 3:
        weights *= scale[:offsets[order]]
    if order >= 2:
        tensors = np.concatenate([hfac.sums(m) for m in range(2, order + 1)],
                                 axis=1).T * scale[offsets[2]:, None]
    u = [None]
    dthetas = []
    # a non-finite value fails the solve below, so numpy's warnings would
    # only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, order + 1):
            if k == 1:  # [u^a]_0 is 1 at the empty multiset, 0 elsewhere
                higher = np.zeros((b, offsets[-1] - offsets[2]))
                c = weights[:, :, 0]
            else:
                higher = u[1][:, last] * u[k - 1][:, parent]
                for j in range(2, k):
                    higher += u[j][:, last] * u[k - j][:, parent]
                c = (weights @ u[k - 1][:, :offsets[order], None])[:, :, 0] + higher @ tensors
            d = hfac.solve(c.T).T * -math.factorial(k)
            dthetas.append(d)
            if k < order:
                u.append(np.concatenate((np.zeros((b, 1)), d / math.factorial(k), higher),
                                        axis=1))
    return dthetas


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
    hfac.prepare(rows=(1, 2), sums=(3,))
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


def refit_block(hfac: HessianFactor, values, starts,
                cfg: Optional[SolveConfig] = None) -> tuple:
    """Exact re-fits of a block of weight vectors, each from its own start,
    for the problem ``hfac`` was built for.

    A chord (simplified Newton) iteration theta <- theta - Ĥ_b^{-1}
    G(theta, w_b), with Ĥ_b from :func:`_chord_jacobians` (Kelley, *Iterative
    Methods for Linear and Nonlinear Equations*, 1995, ch. 5): no forward
    pass, one batched inversion of the D x D matrices Ĥ_b, and per step one
    batched product and one :func:`evaluate_g_block` call for the weights
    still moving.  A weight keeps a step only if it lowers ||G||, and stops
    at the first step that does not, or that is no longer than rounding
    (CHORD_ROUNDING): the rounding floor.  From an order-K expansion,
    O(N^-(K+1)) from the root, that mostly takes one step.

    ``values`` is a (B, N) array, one weight vector per row, and ``starts``
    holds the B starts, (B, D).  The ceilings ||G(theta_hat, w_b)|| are one
    product of ``values`` with the cached order-0 rows, the weighted row
    sums in Ĥ_b one product per order, and every G evaluation reads views of
    its rows; a ``values`` not of shape (B, N) raises ValueError.

    A weight falls back to :func:`exact_refit` from its start, with
    ``max_start_residual`` = ||G(theta_hat, w)||, when its start is not
    below that ceiling (a start equal to theta_hat, as at order 0, is
    exempt: its residual is the ceiling), G there is not finite, it has
    not stopped within CHORD_STEPS steps or stopped above
    ``cfg.resolved_tol(D)``, or a Ĥ_b of the block is singular.  Returns
    ``(roots, errors)``: the (B, D) roots, NaN where the fallback failed,
    and per weight None or the message of the :class:`SolverError` or
    :class:`~hoij.forward_ad.NonFiniteValueError` its fallback raised.
    """
    problem, cfg = hfac.problem, cfg or SolveConfig()
    n = problem.n_terms
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != n:
        raise ValueError(f"weights of shape {values.shape} are not (B, {n})")
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
    errors = [None] * len(values)
    for i in np.flatnonzero(~done):
        try:
            thetas[i] = exact_refit(problem, values[i], hfac.theta_hat, cfg, start=starts[i],
                                    max_start_residual=float(ceilings[i]))
        except (SolverError, fad.NonFiniteValueError) as err:
            thetas[i], errors[i] = np.nan, str(err)
    return thetas, errors
