"""Forward-mode automatic differentiation on truncated Taylor scalars.

A ``TaylorScalar`` of order K carries coefficients c_0..c_K of a truncated
polynomial in one formal perturbation.  All arithmetic is exact truncated
polynomial arithmetic ((a*b)_k = sum_{j<=k} a_j b_{k-j}), and the elementary
functions exp/log/sigmoid propagate coefficients by their standard
recurrences, so c_k is exactly f^(k)/k! of whatever smooth expression
produced the scalar.

Mixed directional derivatives are computed by nesting: each nesting level is
an order-1 TaylorScalar (a dual number) whose coefficients may themselves be
TaylorScalars.  Evaluating a function on inputs nested through k levels and
reading off the coefficient of the product of all k perturbations gives the
exact k-th mixed directional derivative; evaluating a D-dimensional function
costs O(2^k) scalar work per input regardless of D.

Coefficient leaves are floats or numpy arrays.  Array leaves let a single
evaluation carry every data row of an estimating problem at once, which is
how the weighted-sum helpers below stay fast for large N.  A leading leaf
axis can also carry every multiset of basis directions at once:
:func:`per_datum_tensor` uses it to give the per-datum derivatives of every
g_n over multisets in one pass, one row block at a time.  Everything else
at a fixed point is a contraction of those arrays: :func:`g_theta_tensor`
is their weighted row sum, and :func:`g_weight_derivative` contracts the
rows a weight vector changes when it is handed the cached arrays.
"""

from __future__ import annotations

import functools
import itertools
import numbers

import numpy as np
from scipy.special import expit

# Hard ceiling on the nesting depth (and hence on expansion order).  Term
# tables and acceptance targets use K <= 4; 6 leaves headroom.
K_MAX = 6

# Leaves of a direction-batched pass (direction multisets x data rows) hold at
# most this many elements; more rows are swept in blocks, so the pass's
# memory does not grow with N.
BLOCK_ELEMENTS = 4096


class NonFiniteValueError(ArithmeticError):
    """A derivative evaluation produced NaN or infinity."""


class TaylorScalar:
    """Truncated Taylor polynomial in one formal perturbation.

    ``coeffs[k]`` is the k-th Taylor coefficient; each coefficient is a
    float, a numpy array (batch of values), or a nested TaylorScalar
    belonging to an inner perturbation level.  Two TaylorScalars combined by
    arithmetic are assumed to live at the same nesting level (inputs built
    with :func:`nested_input` guarantee this); anything else is treated as a
    constant.
    """

    __slots__ = ("coeffs",)

    # Keep numpy from broadcasting elementwise over this object; reflected
    # operators below handle ndarray operands as constant payloads.
    __array_ufunc__ = None

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __repr__(self):
        return f"TaylorScalar({self.coeffs!r})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, TaylorScalar):
            a, b = self._aligned(other)
            return TaylorScalar([x + y for x, y in zip(a, b)])
        out = list(self.coeffs)
        out[0] = out[0] + other
        return TaylorScalar(out)

    __radd__ = __add__

    def __neg__(self):
        return TaylorScalar([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, TaylorScalar):
            a, b = self._aligned(other)
            return TaylorScalar([x - y for x, y in zip(a, b)])
        out = list(self.coeffs)
        out[0] = out[0] - other
        return TaylorScalar(out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TaylorScalar):
            a, b = self._aligned(other)
            n = len(a)
            return TaylorScalar(
                [
                    _sum_terms([a[j] * b[k - j] for j in range(k + 1)])
                    for k in range(n)
                ]
            )
        return TaylorScalar([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TaylorScalar):
            a, b = self._aligned(other)
            out = [a[0] / b[0]]
            for k in range(1, len(a)):
                acc = a[k]
                for j in range(1, k + 1):
                    acc = acc - b[j] * out[k - j]
                out.append(acc / b[0])
            return TaylorScalar(out)
        return TaylorScalar([c / other for c in self.coeffs])

    def __rtruediv__(self, other):
        return self._constant_like(other) / self

    def __pow__(self, p):
        if isinstance(p, numbers.Integral):
            n = int(p)
            if n < 0:
                return self._constant_like(1.0) / (self ** (-n))
            result = self._constant_like(1.0)
            base = self
            while n:
                if n & 1:
                    result = result * base
                base = base * base
                n >>= 1
            return result
        return exp(log(self) * float(p))

    # -- helpers -----------------------------------------------------------

    def _aligned(self, other):
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError(
                "TaylorScalar order mismatch: "
                f"{self.order} vs {other.order}"
            )
        return self.coeffs, other.coeffs

    def _constant_like(self, value):
        out = [0.0] * len(self.coeffs)
        out[0] = value
        return TaylorScalar(out)


def _sum_terms(terms):
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    return acc


# -- elementary functions on scalar-likes -----------------------------------


def exp(x):
    """exp on floats, arrays, or TaylorScalars (standard coefficient recurrence)."""
    if isinstance(x, TaylorScalar):
        a = x.coeffs
        out = [exp(a[0])]
        for k in range(1, len(a)):
            acc = _sum_terms([(j * a[j]) * out[k - j] for j in range(1, k + 1)])
            out.append(acc / k)
        return TaylorScalar(out)
    return np.exp(x)


def log(x):
    """Natural log on floats, arrays, or TaylorScalars."""
    if isinstance(x, TaylorScalar):
        a = x.coeffs
        out = [log(a[0])]
        for k in range(1, len(a)):
            acc = a[k]
            if k > 1:
                corr = _sum_terms(
                    [(j * out[j]) * a[k - j] for j in range(1, k)]
                )
                acc = acc - corr / k
            out.append(acc / a[0])
        return TaylorScalar(out)
    return np.log(x)


def sigmoid(x):
    """Logistic sigmoid; the base case uses a numerically stable expit."""
    if isinstance(x, TaylorScalar):
        a = x.coeffs
        y0 = sigmoid(a[0])
        ys = [y0]
        # u = y * (1 - y); u_k is available once y_0..y_k are known, and the
        # recurrence y_k = (1/k) sum_j j a_j u_{k-j} only consumes u_{<k}.
        us = [y0 * (1.0 - y0)]
        for k in range(1, len(a)):
            yk = _sum_terms([(j * a[j]) * us[k - j] for j in range(1, k + 1)]) / k
            ys.append(yk)
            if k < len(a) - 1:
                sq = _sum_terms([ys[i] * ys[k - i] for i in range(k + 1)])
                us.append(yk - sq)
        return TaylorScalar(ys)
    return expit(x)


# -- nesting, seeding, extraction --------------------------------------------


def nested_input(theta0, directions):
    """Lift a float point through one order-1 level per direction.

    Returns a list of scalar-likes representing
    theta0 + eps_1 v_1 + ... + eps_k v_k with nilpotent eps_j.
    """
    x = [float(t) for t in theta0]
    for v in directions:
        if len(v) != len(x):
            raise ValueError(
                f"direction length {len(v)} != parameter dimension {len(x)}"
            )
        x = [TaylorScalar([xi, float(vi)]) for xi, vi in zip(x, v)]
    return x


def tangent(x):
    """First Taylor coefficient; constants have tangent zero."""
    if isinstance(x, TaylorScalar):
        return x.coeffs[1]
    return 0.0


def nested_coefficient(y, k):
    """Coefficient of eps_1 * ... * eps_k, i.e. the mixed directional derivative."""
    for _ in range(k):
        y = tangent(y)
    return y


def primal(x):
    """Strip all perturbation levels, returning the underlying value."""
    while isinstance(x, TaylorScalar):
        x = x.coeffs[0]
    return x


def _check_directions(directions, dim):
    k = len(directions)
    if k > K_MAX:
        raise ValueError(f"derivative order {k} exceeds the maximum {K_MAX}")
    for v in directions:
        if np.shape(v)[-1] != dim:
            raise ValueError(
                f"direction length {np.shape(v)[-1]} != parameter dimension {dim}"
            )


def directional_derivative(f, theta0, directions):
    """Exact mixed directional derivative of f at theta0.

    f maps a sequence of D scalar-likes to a sequence of scalar-likes and
    must be built from the arithmetic and elementary functions above.  With
    directions (v_1, ..., v_k) the return value is the order-k derivative
    tensor of f contracted against v_1 ... v_k.
    """
    k = len(directions)
    if k < 1:
        raise ValueError("at least one direction is required")
    _check_directions(directions, len(theta0))
    x = nested_input(theta0, directions)
    try:
        y = f(x)
    except ZeroDivisionError as err:
        raise NonFiniteValueError(f"division by zero during evaluation: {err}") from None
    out = np.array([float(nested_coefficient(yi, k)) for yi in y])
    if not np.all(np.isfinite(out)):
        raise NonFiniteValueError(
            f"non-finite directional derivative of order {k}: {out}"
        )
    return out


# -- weighted sums over an estimating problem's terms ------------------------


def _reduce_leaves(x, coeffs, coeff_total):
    # Contract the row axis of a scalar-like's array leaves against a
    # coefficient vector; float leaves are constant across rows.
    if isinstance(x, TaylorScalar):
        return TaylorScalar(
            [_reduce_leaves(c, coeffs, coeff_total) for c in x.coeffs]
        )
    if isinstance(x, np.ndarray):
        return float(coeffs @ x)
    return float(x) * coeff_total


def weighted_term_sum(problem, theta, coeffs, rows):
    """sum_i coeffs[i] * g_{rows[i]+1}(theta), as a list of D scalar-likes.

    ``rows`` holds 0-based data-row indices (the regularization term g_0 is
    never included here).  Uses the problem's vectorized batch evaluator
    when available, otherwise falls back to a per-datum loop over term_fn.
    """
    rows = np.asarray(rows, dtype=int)
    coeffs = np.asarray(coeffs, dtype=float)
    if rows.size == 0:
        return [0.0] * problem.dim_theta
    if problem.batch_fn is not None:
        outs = problem.batch_fn(theta, rows)
        total = float(coeffs.sum())
        return [_reduce_leaves(o, coeffs, total) for o in outs]
    acc = [0.0] * problem.dim_theta
    for c, r in zip(coeffs, rows):
        g = problem.term_fn(int(r) + 1, theta)
        acc = [a + float(c) * gj for a, gj in zip(acc, g)]
    return acc


def estimating_fn_scalars(problem, theta, weights):
    """G(theta, w) = (1/N)(g_0 + sum_n w_n g_n) in scalar-like arithmetic."""
    n = problem.n_terms
    g0 = problem.term_fn(0, theta)
    data = weighted_term_sum(problem, theta, np.asarray(weights, float), np.arange(n))
    return [(g0[j] + data[j]) / n for j in range(problem.dim_theta)]


def g_theta_derivative(problem, theta, weights, directions):
    """Directional derivative of theta -> G(theta, w) along the given directions.

    An empty direction tuple returns G itself.  The weighted sum over data is
    contracted row by row, so no order-(k+1) derivative array is formed.
    """
    weights = np.asarray(getattr(weights, "values", weights), dtype=float)
    k = len(directions)
    _check_directions(directions, problem.dim_theta)
    x = nested_input(theta, directions)
    g = estimating_fn_scalars(problem, x, weights)
    out = np.array([float(nested_coefficient(gj, k)) for gj in g])
    if not np.all(np.isfinite(out)):
        raise NonFiniteValueError(
            f"non-finite estimating-function derivative of order {k}"
        )
    return out


@functools.lru_cache(maxsize=None)
def basis_multisets(dim, k):
    """Index multisets of an order-k symmetric tensor in D = dim variables.

    Returns ``(multisets, inverse)``: the C(D+k-1, k) sorted index tuples as
    a (P, k) array, and for each of the D**k ordered tuples (row-major) the
    position of its multiset.  At k = 0 the one multiset is empty.  Both
    arrays are cached and read-only.
    """
    multisets = list(itertools.combinations_with_replacement(range(dim), k))
    position = {m: i for i, m in enumerate(multisets)}
    inverse = np.array([position[tuple(sorted(t))]
                        for t in itertools.product(range(dim), repeat=k)], dtype=int)
    multisets = np.array(multisets, dtype=int).reshape(len(multisets), k)
    multisets.setflags(write=False)
    inverse.setflags(write=False)
    return multisets, inverse


def contract(tensor, directions):
    """A (D, D**k) derivative array applied to each of its k directions."""
    out = tensor
    for v in directions:
        v = np.asarray(v, dtype=float)
        out = out.reshape(-1, v.size) @ v
    return out.reshape(len(tensor))


def direction_products(directions, rows):
    """Row-wise outer products of k (B, D) direction blocks, shape (B, D**k).

    Ordered like a (D, D**k) derivative array's columns, so the product
    with its transpose applies the array to each row's directions.
    """
    if not directions:
        return np.ones((rows, 1))
    out = directions[0]
    for v in directions[1:]:
        out = (out[:, :, None] * v[:, None, :]).reshape(rows, -1)
    return out


def _batched_coefficient(values, k, width):
    # (D, width) mixed coefficients of scalar-likes with (width, 1) leaves;
    # a component with no such leaf has a constant coefficient.
    out = np.empty((len(values), width))
    for i, v in enumerate(values):
        out[i] = np.reshape(nested_coefficient(v, k), -1)
    return out


def _multiset_input(theta, dim, multisets):
    # theta lifted through k order-1 levels that carry the (P, k) basis
    # multisets at once.  At level i the tangent of theta_d is 1 for the
    # multisets whose i-th index is d: a (P, 1) leaf, constant across rows.
    x = [float(t) for t in theta]
    if len(x) != dim:
        raise ValueError(f"theta length {len(x)} != parameter dimension {dim}")
    for col in multisets.T:
        x = [TaylorScalar([xi, (col == d)[:, None].astype(float)])
             for d, xi in enumerate(x)]
    return x


def g_theta_tensor(problem, theta, weights, k):
    """The order-k derivative array of theta -> G(theta, w), shape (D, D**k).

    Entry [i, j_1 D**(k-1) + ... + j_k] is the mixed partial of G_i in
    theta_{j_1} .. theta_{j_k}: the weighted row sum (g_0 + w @ per) / N of
    :func:`per_datum_tensor`, expanded from multisets to ordered tuples.
    """
    if not 1 <= k <= K_MAX:
        raise ValueError(f"derivative order {k} outside 1..{K_MAX}")
    weights = np.asarray(getattr(weights, "values", weights), dtype=float)
    g0, summed = per_datum_tensor(problem, theta, k, weights)
    out = (g0 + summed)[:, basis_multisets(problem.dim_theta, k)[1]] / problem.n_terms
    if not np.all(np.isfinite(out)):
        raise NonFiniteValueError(
            f"non-finite estimating-function derivative tensor of order {k}"
        )
    return out


def per_datum_tensor(problem, theta, k, weights=None):
    """Order-k derivatives of g_0 and of every g_n at theta, over multisets.

    Returns ``(g0, per)`` with shapes (D, P) and (N, D, P), where P =
    C(D+k-1, k) and column p is the mixed partial in the basis-direction
    multiset ``basis_multisets(D, k)[0][p]``; ``per[:, :, inverse]`` is each
    row's full (D, D**k) array.  At k = 0, P = 1 and the columns hold the
    values g_n(theta).  One nested pass carries every multiset along a
    leading leaf axis, so each symmetric entry is computed once (Griewank,
    Utke & Walther 2000); the rows go in blocks that keep each leaf within
    BLOCK_ELEMENTS entries.

    With ``weights`` (length N), the second array is instead the weighted
    row sum ``weights @ per``, shape (D, P), reduced block by block, so
    memory does not grow with N.
    """
    dim, n = problem.dim_theta, problem.n_terms
    if not 0 <= k <= K_MAX:
        raise ValueError(f"derivative order {k} outside 0..{K_MAX}")
    multisets, _ = basis_multisets(dim, k)
    width = len(multisets)
    x = _multiset_input(theta, dim, multisets)
    g0 = _batched_coefficient(problem.term_fn(0, x), k, width)
    step = max(1, BLOCK_ELEMENTS // width)
    if weights is None:
        per = np.empty((dim, width, n))  # filled row block by row block
    else:
        if np.shape(weights) != (n,):
            raise ValueError(f"weight length {np.shape(weights)} does not match {n} terms")
        per = np.zeros((dim, width))
        block = np.empty((dim, width, min(step, n)))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        part = per[:, :, lo:hi] if weights is None else block[:, :, :hi - lo]
        if problem.batch_fn is None:
            for r in range(lo, hi):
                part[:, :, r - lo] = _batched_coefficient(problem.term_fn(r + 1, x), k, width)
        else:
            for j, o in enumerate(problem.batch_fn(x, np.arange(lo, hi))):
                # leaves are (P, rows), (P, 1), (rows,) or floats
                part[j] = nested_coefficient(o, k)
        if weights is not None:
            per += part @ weights[lo:hi]
    if weights is None:
        per = per.transpose(2, 0, 1)
    if not (np.all(np.isfinite(g0)) and np.all(np.isfinite(per))):
        raise NonFiniteValueError(
            f"non-finite per-datum derivative of order {k}"
        )
    return g0, per


def g_weight_derivative(problem, theta, delta_w, directions, per_datum=None):
    """Mixed theta-derivative of (1/N) sum_n g_n(theta) delta_w_n.

    This is the weight-direction derivative of G: the regularization term
    g_0 drops out.  With no directions it returns the weighted sum itself.

    ``per_datum``, when given, must be the (N, D, P) array of
    ``per_datum_tensor(problem, theta, len(directions))`` at this same
    theta: delta_w is then contracted with it, with no forward pass, and
    theta is not read.  delta_w may then also be a (B, N) block of weight
    offsets with (B, D) directions, one per row: one product of the block
    with the rows gives the (B, D) values.  Without ``per_datum`` one nested
    pass sweeps the rows a length-N delta_w changes.
    """
    delta_w = np.asarray(getattr(delta_w, "delta", delta_w), dtype=float)
    k = len(directions)
    dim, n = problem.dim_theta, problem.n_terms
    _check_directions(directions, dim)
    if per_datum is not None:
        want = (n, dim, len(basis_multisets(dim, k)[0]))
        if per_datum.shape != want:
            raise ValueError(f"per-datum array of shape {per_datum.shape} is not "
                             f"the order-{k} array, shape {want}")
        # (N, D * P), a view.  One product over every row beats gathering
        # the changed rows (an O(N) scan and a copy) unless D * P >= 32 and
        # fewer than N / 32 rows change.  Measured on a 2-core Xeon, with
        # the rows last in a transposed copy: at D * P <= 18 the product won
        # at every N <= 100 000 and every count of changed rows; at D * P =
        # 288, N = 100 000 and one row the gather took 0.4 ms against 10 ms;
        # near the bound the worse choice cost at most 2.3 times the better
        # one (13 against 6 us).
        per = per_datum.reshape(n, -1)
        inverse = basis_multisets(dim, k)[1]
        if delta_w.ndim == 2:
            m = len(delta_w)
            summed = (delta_w @ per).reshape(m, dim, -1)[:, :, inverse]
            out = np.einsum("bij,bj->bi", summed, direction_products(directions, m)) / n
        else:
            if per.shape[1] >= 32 and 32 * np.count_nonzero(delta_w) < n:
                rows = np.flatnonzero(delta_w)
                summed = delta_w[rows] @ per[rows]
            else:
                summed = delta_w @ per
            out = contract(summed.reshape(dim, -1)[:, inverse], directions) / n
    else:
        if delta_w.ndim != 1:
            raise ValueError("a block of weights needs the per-datum array")
        rows = np.nonzero(delta_w)[0]
        if rows.size == 0:
            return np.zeros(dim)
        x = nested_input(theta, directions)
        total = weighted_term_sum(problem, x, delta_w[rows], rows)
        out = np.array([float(nested_coefficient(tj, k)) / n for tj in total])
    if not np.all(np.isfinite(out)):
        raise NonFiniteValueError(
            f"non-finite weight-direction derivative of order {k}"
        )
    return out
