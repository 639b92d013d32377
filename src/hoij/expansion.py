"""Base solves and the Taylor expansion of the solution in the weights.

The expansion around the all-ones weights needs one Newton solve, one
dense factorization of the Jacobian H = dG/dtheta at the base fit, and the
per-datum derivative arrays of G there, one forward pass per order on first
use.  After that, every weight vector costs only derivative contractions and
triangular solves: the order-k coefficient solves

    H * d_k = -(sum of table terms of order k),

where each table term is a G-derivative contracted against lower-order
coefficients.  Terms without the weight derivative contract the row sums of
the cached arrays; weight-direction terms contract the cached rows the
weights change, so no forward pass runs per weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

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


@dataclass
class SolveConfig:
    """Newton solve controls; tol_grad defaults to 1e-10 * sqrt(D)."""

    tol_grad: Optional[float] = None
    max_iter: int = 100
    backtrack_ratio: float = 0.5
    max_backtracks: int = 40
    warm_start: Optional[np.ndarray] = None

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


def solve_base(problem: EstimatingProblem, w=None,
               cfg: Optional[SolveConfig] = None) -> np.ndarray:
    """Solve G(theta, w) = 0 by damped Newton with backtracking on ||G||_2."""
    cfg = cfg or SolveConfig()
    n, dim = problem.n_terms, problem.dim_theta
    weights = np.ones(n) if w is None else _as_weights(w, n)
    tol = cfg.resolved_tol(dim)
    theta = (np.zeros(dim) if cfg.warm_start is None
             else np.asarray(cfg.warm_start, dtype=float).copy())

    g = evaluate_g(problem, theta, weights)
    gnorm = float(np.linalg.norm(g))
    for _ in range(cfg.max_iter):
        if gnorm <= tol:
            return theta
        h = assemble_jacobian(problem, theta, weights)
        try:
            step = -scipy.linalg.solve(h, g)
        except scipy.linalg.LinAlgError:
            raise SingularHessianError(
                f"singular Jacobian during Newton solve at residual {gnorm:.3e}",
                iterate=theta, residual_norm=gnorm,
            ) from None
        scale = 1.0
        for _ in range(cfg.max_backtracks):
            cand = theta + scale * step
            g_cand = evaluate_g(problem, cand, weights)
            cand_norm = float(np.linalg.norm(g_cand))
            if cand_norm < gnorm:
                theta, g, gnorm = cand, g_cand, cand_norm
                break
            scale *= cfg.backtrack_ratio
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


def exact_refit(problem: EstimatingProblem, w, theta_hat,
                cfg: Optional[SolveConfig] = None) -> np.ndarray:
    """Re-solve at new weights, warm-started from the base solution."""
    cfg = replace(cfg or SolveConfig(), warm_start=np.asarray(theta_hat, float))
    return solve_base(problem, w, cfg)


@dataclass(frozen=True, eq=False)
class HessianFactor:
    """Dense LU factorization of the base Jacobian for repeated solves.

    It also keeps the base fit ``theta_hat`` it was built at, and memoizes
    the derivatives of G there (all-ones weights) on first use: the
    per-datum arrays of :func:`forward_ad.per_datum_tensor` for the orders
    that :meth:`rows` is asked for, and the summed tensors of :meth:`tensor`,
    read off cached rows when there are some and otherwise from
    :func:`forward_ad.g_theta_tensor`, whose pass keeps no per-datum array.
    """

    matrix: np.ndarray
    lu: tuple
    cond_estimate: float
    problem: EstimatingProblem
    theta_hat: np.ndarray
    _tensors: dict = field(default_factory=dict, repr=False)
    _rows: dict = field(default_factory=dict, repr=False)

    def solve(self, b: np.ndarray) -> np.ndarray:
        # LAPACK's getrs, as in scipy.linalg.lu_solve, without the wrapper's
        # checks: they cost more than the solve at small D.  One finiteness
        # check of the result stands in for the wrapper's check of b.
        x, info = scipy.linalg.lapack.dgetrs(*self.lu, b)
        if info != 0:
            raise ValueError(f"getrs rejected its argument {-info}")
        if not np.isfinite(x).all():
            raise fad.NonFiniteValueError("non-finite solution of the Hessian system")
        return x

    def rows(self, k: int) -> tuple:
        """(g0, per): the order-k derivatives of g_0 and of every g_n at theta_hat."""
        r = self._rows.get(k)
        if r is None:
            r = fad.per_datum_tensor(self.problem, self.theta_hat, k)
            self._rows[k] = r
        return r

    def tensor(self, k: int) -> np.ndarray:
        """The order-k derivative array of G at theta_hat, shape (D, D**k)."""
        t = self._tensors.get(k)
        if t is None:
            n = self.problem.n_terms
            if k in self._rows:
                g0, per = self._rows[k]
                inverse = fad.basis_multisets(self.problem.dim_theta, k)[1]
                t = (g0 + per.sum(axis=0))[:, inverse] / n
            else:
                t = fad.g_theta_tensor(self.problem, self.theta_hat, np.ones(n), k)
            self._tensors[k] = t
        return t

    def contract(self, directions) -> np.ndarray:
        """The order-len(directions) tensor applied to each direction."""
        return fad.contract(self.tensor(len(directions)), directions)


def factorize_hessian(problem: EstimatingProblem, theta_hat,
                      rcond_floor: float = 1e-12) -> HessianFactor:
    """Assemble and LU-factorize H at the base fit.

    LU with partial pivoting rather than a symmetric factorization: the
    estimating equations need not be gradients, so H need not be symmetric.
    """
    h = assemble_jacobian(problem, theta_hat, np.ones(problem.n_terms))
    svals = scipy.linalg.svdvals(h)
    rcond = float(svals[-1] / svals[0]) if svals[0] > 0 else 0.0
    if rcond < rcond_floor:
        raise SingularHessianError(
            "base Jacobian is numerically singular "
            f"(reciprocal condition {rcond:.3e} < {rcond_floor:.0e}); "
            "the expansion requires it to be strongly positive definite",
        )
    lu = scipy.linalg.lu_factor(h)
    return HessianFactor(matrix=h, lu=lu, cond_estimate=rcond, problem=problem,
                         theta_hat=np.array(theta_hat, dtype=float))


def _term_directions(term: DerivativeTerm, dset: dict) -> tuple:
    try:
        return tuple(dset[j] for j in term.kset)
    except KeyError as err:
        raise KeyError(
            f"term {term} needs derivative of order {err.args[0]}, "
            f"but only orders {sorted(dset)} are available"
        ) from None


def evaluate_term(problem: EstimatingProblem, theta_hat, term: DerivativeTerm,
                  dset: dict, delta_w) -> np.ndarray:
    """One table term's value at the base weights (coefficient NOT applied).

    ``dset`` maps order j to the already computed coefficient vector d_j.
    Flag 0 contracts the theta-derivative of G at the all-ones weights;
    flag 1 contracts the weight-direction derivative along delta_w.  Both
    run a forward pass over the data; :func:`evaluate_dtheta` instead
    contracts the arrays cached on the Hessian factor.
    """
    dirs = _term_directions(term, dset)
    if term.omega == 0:
        return fad.g_theta_derivative(
            problem, theta_hat, np.ones(problem.n_terms), dirs
        )
    return fad.g_weight_derivative(problem, theta_hat, delta_w, dirs)


def evaluate_dtheta(problem: EstimatingProblem, theta_hat, hfac: HessianFactor,
                    order_terms: Sequence[DerivativeTerm], dset: dict,
                    delta_w) -> np.ndarray:
    """One expansion coefficient: -H^{-1} (sum of coefficient-weighted terms).

    Every term contracts the derivative arrays cached on ``hfac``, so
    ``theta_hat`` must be the point it was built at.
    """
    if not np.array_equal(theta_hat, hfac.theta_hat):
        raise ValueError("theta_hat differs from the point the Hessian factor was built at")
    d = np.zeros(problem.dim_theta)
    for t in order_terms:
        dirs = _term_directions(t, dset)
        if t.omega == 1:
            value = fad.g_weight_derivative(problem, theta_hat, delta_w, dirs,
                                            hfac.rows(len(dirs))[1])
        else:
            value = hfac.contract(dirs)
            if not np.all(np.isfinite(value)):
                raise fad.NonFiniteValueError(f"non-finite contraction for term {t}")
        d = d + t.coeff * value
    return -hfac.solve(d)


@dataclass(frozen=True, eq=False)
class TaylorExpansion:
    """Base solution plus the weight-direction derivatives d_1..d_K."""

    theta_hat: np.ndarray
    dthetas: tuple
    order: int

    def partial_sum(self, k: int) -> np.ndarray:
        """theta_hat + sum_{j<=k} d_j / j!, the order-k approximation."""
        if not 0 <= k <= self.order:
            raise ValueError(f"order {k} outside 0..{self.order}")
        out = self.theta_hat.copy()
        for j in range(1, k + 1):
            out += self.dthetas[j - 1] / math.factorial(j)
        return out

    @property
    def theta_ij(self) -> np.ndarray:
        return self.partial_sum(self.order)


def evaluate_theta_ij(problem: EstimatingProblem, theta_hat, hfac: HessianFactor,
                      table: TermTable, delta_w, order: int) -> TaylorExpansion:
    """Run the expansion loop through the requested order.

    Accumulates the derivative set bottom-up; everything reuses the single
    factorization in ``hfac``.  Weight-direction terms read the per-datum
    arrays of orders below ``order``, which ``hfac`` keeps, and their row
    sums serve the other terms, so each order costs one forward pass per
    factor; the order-``order`` array is needed only for its row sum.
    """
    if order > table.max_order:
        raise ValueError(f"order {order} exceeds table max {table.max_order}")
    delta_w = np.asarray(getattr(delta_w, "delta", delta_w), dtype=float)
    theta_hat = np.asarray(theta_hat, dtype=float)
    for j in range(order):
        hfac.rows(j)
    dset: dict = {}
    dthetas = []
    for k in range(1, order + 1):
        dk = evaluate_dtheta(problem, theta_hat, hfac, table.for_order(k), dset, delta_w)
        dset[k] = dk
        dthetas.append(dk)
    return TaylorExpansion(theta_hat=theta_hat, dthetas=tuple(dthetas), order=order)
