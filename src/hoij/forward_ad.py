"""Forward-mode automatic differentiation on truncated Taylor scalars.

A ``TaylorScalar`` of order K carries coefficients c_0..c_K of a truncated
polynomial in one formal perturbation.  All arithmetic is exact truncated
polynomial arithmetic ((a*b)_k = sum_{j<=k} a_j b_{k-j}), and the elementary
functions exp/log/sigmoid propagate coefficients by their standard
recurrences, so c_k is exactly f^(k)/k! of whatever smooth expression
produced the scalar.

Derivatives of every order 0..d at a point come from one univariate Taylor
pass of degree d (Griewank, Utke & Walther 2000): theta + t i along the
C(D+d-1, d) lattice directions i with |i| = d, all carried at once along a
leading leaf axis.  The pass's k-th coefficients along those directions
determine the order-k partials over index multisets through one fixed
interpolation matrix per (D, d, k), applied as one dense product when the
lattice has at most DENSE_DIRECTIONS directions and through its nonzero
blocks above that.  A multiply costs at most (d+1)(d+2)/2 leaf products,
where d nested order-1 levels cost 3^d, and every value carries d+1 leaves,
not 2^d.  The seeded coefficients 2..d are structural zeros, the float
0.0, and arithmetic forms no product or quotient with one: exp of a linear
index makes 2d - 1 leaf-sized array operations, 7 at degree 4, not 21.
Coefficient leaves are floats or numpy arrays, so one evaluation also
carries every data row of an estimating problem:
:func:`per_datum_tensors` gives the per-datum derivatives of every g_n, one
row block at a time, and everything else at a fixed point contracts those
arrays.  :func:`g_theta_tensor` is their weighted row sum,
:func:`g_theta_derivative` contracts it with directions, and
:func:`g_weight_derivative` is the row sum of one cached per-datum array
weighted by a weight offset, or a block of them, over index multisets; it
runs no pass and takes no directions.

This pass is the one derivative engine.  Its oracle, nested order-1 dual
numbers, whose coefficient of the product of all k perturbations is the
exact mixed directional derivative with no interpolation involved, lives
with the tests (``tests/helpers.py``); TaylorScalar coefficients may be
TaylorScalars for that reason.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers

import numpy as np

# Hard ceiling on the derivative order (the degree of a pass), hence on
# expansion order.  Term tables and acceptance targets use K <= 4; 6 leaves
# headroom.
K_MAX = 6

# Leaves of a direction-batched pass (lattice directions x data rows) hold at
# most this many elements; more rows are swept in blocks, so the pass's
# memory does not grow with N.
BLOCK_ELEMENTS = 4096

# A weight offset is sparse when it changes fewer than N / GATHER_RATIO of
# the N rows: :func:`g_weight_derivative` may then gather those rows rather
# than multiply every row.
GATHER_RATIO = 32


class NonFiniteValueError(ArithmeticError):
    """A derivative evaluation produced NaN or infinity."""


class TaylorScalar:
    """Truncated Taylor polynomial in one formal perturbation.

    ``coeffs[k]`` is the k-th Taylor coefficient; each coefficient is a
    float, a numpy array (batch of values), or a nested TaylorScalar
    belonging to an inner perturbation level.  Two TaylorScalars combined by
    arithmetic are assumed to live at the same nesting level (inputs nested
    one level per perturbation guarantee this); anything else is treated as
    a constant.
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
            return TaylorScalar([_add(x, y) for x, y in zip(a, b)])
        out = list(self.coeffs)
        out[0] = out[0] + other
        return TaylorScalar(out)

    __radd__ = __add__

    def __neg__(self):
        return TaylorScalar([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, TaylorScalar):
            a, b = self._aligned(other)
            return TaylorScalar([_sub(x, y) for x, y in zip(a, b)])
        out = list(self.coeffs)
        out[0] = out[0] - other
        return TaylorScalar(out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TaylorScalar):
            a, b = self._aligned(other)
            return TaylorScalar([_convolution(a, b, k, range(k + 1))
                                 for k in range(len(a))])
        return TaylorScalar([_mul(c, other) for c in self.coeffs])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, TaylorScalar):
            a, b = self._aligned(other)
            out = [_div(a[0], b[0])]
            for k in range(1, len(a)):
                acc = a[k]
                for j in range(1, k + 1):
                    acc = _sub(acc, _mul(b[j], out[k - j]))
                out.append(_div(acc, b[0]))
            return TaylorScalar(out)
        return TaylorScalar([_div(c, other) for c in self.coeffs])

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


# -- structural zeros ----------------------------------------------------------
#
# A coefficient that is the Python float 0.0, as _taylor_input seeds the
# coefficients 2..d and _constant_like all but c_0, is a structural zero: a
# product or quotient with it is exactly zero, so it is not formed and the
# coefficient stays the float 0.0, which _fill broadcasts.  A sum skips it.
# Without this, 0.0 * leaf makes an array of zeros that every later
# recurrence multiplies and adds: at degree 4, exp would do 21 array
# operations per block where 7 are needed.  The skipped terms are exact
# zeros, so values do not change, but for the sign of an exact zero and a
# 0 * inf that would have read NaN.


def _zero(c):
    return c.__class__ is float and c == 0.0


def _add(x, y):
    return y if _zero(x) else x if _zero(y) else x + y


def _sub(x, y):
    return x if _zero(y) else -y if _zero(x) else x - y


def _mul(x, y):
    return 0.0 if _zero(x) or _zero(y) else x * y


def _div(x, y):
    return 0.0 if _zero(x) else x / y


def _convolution(a, b, k, js, weighted=False):
    # sum over j in js of a_j b_{k-j}, or of (j a_j) b_{k-j} when weighted,
    # in order, without the terms with a structural zero; 1 * a_1 is not
    # formed.
    acc = 0.0
    for j in js:
        if not (_zero(a[j]) or _zero(b[k - j])):
            acc = _add(acc, (j * a[j] if weighted and j > 1 else a[j]) * b[k - j])
    return acc


# -- elementary functions on scalar-likes -----------------------------------


def exp(x):
    """exp on floats, arrays, or TaylorScalars (standard coefficient recurrence)."""
    if isinstance(x, TaylorScalar):
        a = x.coeffs
        out = [exp(a[0])]
        for k in range(1, len(a)):
            acc = _convolution(a, out, k, range(1, k + 1), weighted=True)
            out.append(acc if k == 1 else _div(acc, k))
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
                corr = _convolution(out, a, k, range(1, k), weighted=True)
                acc = _sub(acc, _div(corr, k))
            out.append(_div(acc, a[0]))
        return TaylorScalar(out)
    return np.log(x)


def sigmoid(x):
    """Logistic sigmoid 1 / (1 + exp(-x)), computed without overflow."""
    if isinstance(x, TaylorScalar):
        a = x.coeffs
        y0 = sigmoid(a[0])
        ys = [y0]
        # u = y * (1 - y); u_k is available once y_0..y_k are known, and the
        # recurrence y_k = (1/k) sum_j j a_j u_{k-j} only consumes u_{<k}.
        us = [y0 * (1.0 - y0)]
        for k in range(1, len(a)):
            yk = _convolution(a, us, k, range(1, k + 1), weighted=True)
            ys.append(yk if k == 1 else _div(yk, k))
            if k < len(a) - 1:
                us.append(_sub(ys[k], _convolution(ys, ys, k, range(k + 1))))
        return TaylorScalar(ys)
    # e = exp(-|x|) is at most 1, and the sigmoid is 1 / (1 + e) for x >= 0
    # and e / (1 + e) below.  A float in gives a float out.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _check_directions(directions, dim):
    # The directions as (D,) float arrays, once checked.
    if len(directions) > K_MAX:
        raise ValueError(f"derivative order {len(directions)} exceeds the maximum {K_MAX}")
    directions = [np.asarray(v, dtype=float) for v in directions]
    for v in directions:
        if v.shape != (dim,):
            raise ValueError(f"direction of shape {v.shape} is not ({dim},)")
    return directions


def stack_rows(values):
    """One scalar-like per data row, stacked into one with a trailing row axis.

    This is how a ``batch_fn`` returns the rows it evaluates: leaves of shape
    (W, 1) become (W, rows) and floats become (rows,), level by level for
    nested coefficients; a row that is a constant where others are
    TaylorScalars has structural zeros past c_0.  A coefficient that is the
    float 0.0 in every row stays the float 0.0.
    """
    if any(isinstance(v, TaylorScalar) for v in values):
        size = max(len(v.coeffs) for v in values if isinstance(v, TaylorScalar))
        coeffs = [v.coeffs if isinstance(v, TaylorScalar) else [v] + [0.0] * (size - 1)
                  for v in values]
        return TaylorScalar([stack_rows([c[k] for c in coeffs]) for k in range(size)])
    if all(_zero(v) for v in values):
        return 0.0
    leaves = [np.asarray(v, dtype=float) for v in values]
    shape = np.broadcast_shapes(*(leaf.shape for leaf in leaves))
    if not shape:
        return np.array(leaves)
    return np.concatenate([np.broadcast_to(leaf, shape) for leaf in leaves], axis=-1)


def _multiset_keys(multisets, dim):
    # Each sorted index multiset, the last axis of an int array, read as a
    # base-dim number: these increase in the order of basis_multisets, and
    # they stay below dim**k, no more than the D**k ordered tuples the
    # multisets' inverse lists.
    return multisets @ dim ** np.arange(multisets.shape[-1] - 1, -1, -1)


@functools.lru_cache(maxsize=None)
def basis_multisets(dim, k):
    """Index multisets of an order-k symmetric tensor in D = dim variables.

    Returns ``(multisets, inverse)``: the C(D+k-1, k) sorted index tuples as
    a (P, k) array, and for each of the D**k ordered tuples (row-major) the
    position of its multiset.  At k = 0 the one multiset is empty.  Both
    arrays are cached and read-only.
    """
    multisets = np.array(list(itertools.combinations_with_replacement(range(dim), k)),
                         dtype=int).reshape(math.comb(dim + k - 1, k), k)
    tuples = np.indices((dim,) * k).reshape(k, dim ** k).T
    inverse = np.searchsorted(_multiset_keys(multisets, dim),
                              _multiset_keys(np.sort(tuples, axis=1), dim))
    multisets.setflags(write=False)
    inverse.setflags(write=False)
    return multisets, inverse


def contract(tensor, directions):
    """A (D, D**k) derivative array applied to its k directions, (D,) float
    arrays."""
    for v in directions:
        tensor = tensor.reshape(-1, len(v)) @ v
    return tensor.reshape(len(tensor))


@functools.lru_cache(maxsize=None)
def lattice_directions(dim, degree):
    """The C(D+d-1, d) lattice directions i with |i| = d = degree, shape (P, D).

    Row p counts how often each index occurs in the multiset
    ``basis_multisets(dim, degree)[0][p]``, so at degree 1 the rows are the
    D basis vectors in order.  Cached and read-only.
    """
    multisets, _ = basis_multisets(dim, degree)
    out = (multisets[:, :, None] == np.arange(dim)).sum(axis=1).astype(float)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _subspace_inverse(dim, degree, k):
    # k! times the pseudo-inverse of the (P_degree, P_k) matrix with entries
    # (k! / a!) i^a over the lattice directions i and multisets a in ``dim``
    # variables: the order-k partials from the order-k coefficients.
    # i^a is the product of i's entries over the multiset of a: at most
    # K_MAX**K_MAX in int64, so exactly the float powers, and several times
    # cheaper than taking them over a (P_degree, P_k, dim) array.
    directions = lattice_directions(dim, degree).astype(np.int64)
    alphas = lattice_directions(dim, k).astype(int)
    factorials = np.array([math.factorial(j) for j in range(k + 1)])
    multinomial = math.factorial(k) / np.prod(factorials[alphas], axis=1)
    monomials = np.prod(directions[:, basis_multisets(dim, k)[0]], axis=2)
    # The pseudo-inverse from the SVD, which factorize_hessian uses too.
    u, s, vt = np.linalg.svd(monomials * multinomial, full_matrices=False)
    return math.factorial(k) * (vt.T / s) @ u.T


@functools.lru_cache(maxsize=None)
def _interpolation_groups(dim, degree, k):
    # The nonzero blocks of interpolation_matrix, one per support size s,
    # as (rows, cols, coef).  Each of the C(dim, s) sets S of s coordinates
    # has n_full order-k multisets that use exactly S, and C_s lattice
    # directions on S; every set maps the second to the first through the
    # same (n_full, C_s) matrix ``coef`` of the map in s variables.
    # ``cols`` is (C_s, sets) and ``rows`` is (n_full, sets), flattened.
    # A multiset in s variables maps onto a set by indexing the set with it.
    def positions(multisets, order):
        # positions in basis_multisets(dim, order) of sorted (..., order) multisets
        return np.searchsorted(_multiset_keys(basis_multisets(dim, order)[0], dim),
                               _multiset_keys(multisets, dim))

    groups = []
    for s in range(1, min(k, dim) + 1):
        full = lattice_directions(s, k).min(axis=1) > 0
        supports = np.array(list(itertools.combinations(range(dim), s)))
        rows = positions(supports[:, basis_multisets(s, k)[0][full]], k)
        cols = positions(supports[:, basis_multisets(s, degree)[0]], degree)
        groups.append((rows.T.ravel(), cols.T, _subspace_inverse(s, degree, k)[full]))
    return groups


# Lattices of at most this many directions apply each order's map as one
# dense (P_k, P_d) product; larger ones gather by support size.  Measured
# on a 2-core Xeon with one BLAS thread, per block of BLOCK_ELEMENTS //
# directions rows, orders k = 1..d, grouped gathers against the dense
# product, in us:
#   (D, d) = (3, 3),  10 directions: 26 / 45 / 67 against 9 / 9 / 13
#   (D, d) = (5, 4),  70 directions: 16 / 38 / 83 / 163 against 13 / 24 / 48 / 83
#   (D, d) = (6, 4), 126 directions: 18 / 42 / 106 / 246 against 14 / 32 / 70 / 151
#   (D, d) = (8, 3), 120 directions: 22 / 57 / 307 against 21 / 69 / 223
#   (D, d) = (7, 4), 210 directions: 17 / 41 / 132 / 375 against 23 / 61 / 154 / 418
#   (D, d) = (8, 4), 330 directions: 14 / 46 / 160 / 572 against 34 / 100 / 317 / 1740
# Summed over a pass's orders, dense won at every (D, d) measured up to 126
# directions and lost at every one from 210.
DENSE_DIRECTIONS = 128


@functools.lru_cache(maxsize=None)
def _dense_map(dim, degree, k):
    out = interpolation_matrix(dim, degree, k)
    out.setflags(write=False)
    return out


def _interpolate(coeffs, dim, degree, k, out):
    # out (B, P_k, C) <- the order-k partials of (B, P_degree, C) order-k
    # coefficients: one dense product on small lattices, else per support
    # size one gather and one product, with the directions leading
    if coeffs.shape[1] <= DENSE_DIRECTIONS:
        np.matmul(_dense_map(dim, degree, k), coeffs, out=out)
        return
    coeffs, out = coeffs.transpose(1, 0, 2), out.transpose(1, 0, 2)
    for rows, cols, coef in _interpolation_groups(dim, degree, k):
        product = coef @ coeffs[cols].reshape(coef.shape[1], -1)
        out[rows] = product.reshape(len(rows), *coeffs.shape[1:])


def interpolation_matrix(dim, degree, k):
    """The (P_k, P_d) map from order-k Taylor coefficients to partials.

    Along a direction i the k-th Taylor coefficient of t -> f(theta + t i)
    is c_k(i) = sum over multi-indices |a| = k of i^a / a! times the partial
    d^a f.  Over the :func:`lattice_directions` of ``degree`` d these are
    linear equations in the partials over ``basis_multisets(dim, k)``:
    square at k = d and overdetermined below it (Griewank, Utke & Walther
    2000).  The partial in a depends only on f along the s coordinates a
    uses, so row a reads only the directions on those coordinates, and it
    is the row of the same map in s variables: k! times the pseudo-inverse
    of the matrix with entries (k! / a!) i^a.  That multinomial column
    scaling keeps the matrices inverted at condition number at most 165 up
    to (D, d) = (8, 6); the plain monomials i^a reach 9e4 there.  At k = d
    the map is the inverse of the square system; below it, a left inverse.
    A pass over at most DENSE_DIRECTIONS lattice directions applies this
    dense form, cached; a larger one applies it through its nonzero blocks.
    """
    if not 1 <= k <= degree:
        raise ValueError(f"order {k} outside 1..{degree}")
    out = np.zeros((len(basis_multisets(dim, k)[0]), len(lattice_directions(dim, degree))))
    for rows, cols, coef in _interpolation_groups(dim, degree, k):
        out[rows.reshape(len(coef), -1, 1), cols.T] = coef[:, None, :]
    return out


def _taylor_input(theta, dim, degree):
    # theta + t i along every lattice direction i at once: one degree-d Taylor
    # scalar per component, whose first coefficient is a (P, 1) leaf,
    # constant across rows.  At degree 0, plain floats.
    x = [float(t) for t in theta]
    if len(x) != dim:
        raise ValueError(f"theta length {len(x)} != parameter dimension {dim}")
    if degree == 0:
        return x
    directions = lattice_directions(dim, degree)
    return [TaylorScalar([xi, directions[:, [d]]] + [0.0] * (degree - 1))
            for d, xi in enumerate(x)]


def _coefficient(v, k):
    # The k-th Taylor coefficient of a scalar-like; a constant has only c_0.
    if isinstance(v, TaylorScalar):
        return v.coeffs[k]
    return v if k == 0 else 0.0


def _fill(part, outs, k):
    # part (D, W, rows) <- the order-k coefficients of a row block's outputs:
    # D scalar-likes whose leaves are (W, rows), (W, 1), (rows,) or floats.
    for j, o in enumerate(outs):
        part[j] = _coefficient(o, k)


def g_theta_tensor(problem, theta, weights, k):
    """The order-k derivative array of theta -> G(theta, w), shape (D, D**k).

    Entry [i, j_1 D**(k-1) + ... + j_k] is the mixed partial of G_i in
    theta_{j_1} .. theta_{j_k}: the weighted row sum (g_0 + w @ per) / N of
    :func:`per_datum_tensor`, expanded from multisets to ordered tuples.  At
    k = 0 it is G itself, shape (D, 1).
    """
    if not 0 <= k <= K_MAX:
        raise ValueError(f"derivative order {k} outside 0..{K_MAX}")
    weights = np.asarray(getattr(weights, "values", weights), dtype=float)
    g0, summed = per_datum_tensor(problem, theta, k, weights)
    out = (g0 + summed)[:, basis_multisets(problem.dim_theta, k)[1]] / problem.n_terms
    if not np.all(np.isfinite(out)):
        raise NonFiniteValueError(
            f"non-finite estimating-function derivative tensor of order {k}"
        )
    return out


def g_theta_derivative(problem, theta, weights, directions):
    """Directional derivative of theta -> G(theta, w) along the given directions.

    The order-k array of :func:`g_theta_tensor` applied to each of its k
    directions; an empty direction tuple returns G itself.
    """
    directions = _check_directions(directions, problem.dim_theta)
    out = contract(g_theta_tensor(problem, theta, weights, len(directions)), directions)
    if not np.isfinite(out).all():
        raise NonFiniteValueError(
            f"non-finite estimating-function derivative of order {len(directions)}")
    return out


def per_datum_tensors(problem, theta, orders, weights=None, summed=(), out=None):
    """Derivatives of g_0 and of every g_n at theta, for several orders at once.

    Returns ``{k: (g0, per)}`` for each order k in ``orders`` and in
    ``summed``, with shapes (D, P) and (N, D, P), where P = C(D+k-1, k) and
    column p is the mixed partial in the basis-direction multiset
    ``basis_multisets(D, k)[0][p]``; ``per[:, :, inverse]`` is each row's
    full (D, D**k) array.  At k = 0, P = 1 and the columns hold the values
    g_n(theta).  For the orders in ``summed`` the second array is instead the
    weighted row sum ``weights @ per``, shape (D, P), with all-ones weights
    by default, reduced block by block, so memory does not grow with N.

    One univariate Taylor pass of degree d, the largest order asked for,
    seeds theta along the :func:`lattice_directions` of degree d as (P_d, 1)
    leaves and gives every order 0..d (Griewank, Utke & Walther 2000).
    Order 0 is the pass's primal leaf.  Order k >= 1 is its k-th coefficient
    mapped by :func:`interpolation_matrix`, after the row sum for the summed
    orders; at degree 1 the directions are the basis vectors and the map is
    the identity, so it is skipped.  The rows go in blocks that keep each
    leaf within BLOCK_ELEMENTS entries.  The pass runs with numpy's
    floating-point warnings off: a non-finite result raises
    NonFiniteValueError instead.

    ``out``, when given, is the dict an earlier call returned for the same
    problem and per-row orders.  Each per-row order is then written into
    that call's (N, D, P) array, in place of a new one, and the returned
    dict holds those same arrays, overwritten.  The g_0 arrays and the
    summed orders are small and always new.  So a caller that reduces the
    rows of many points to a few numbers, as the bound constants do,
    allocates one set of per-row arrays, not one per point.
    """
    dim, n = problem.dim_theta, problem.n_terms
    orders, summed = sorted(set(orders)), sorted(set(summed))
    if not orders + summed:
        raise ValueError("no derivative order asked for")
    if set(orders) & set(summed):
        raise ValueError(f"orders {sorted(set(orders) & set(summed))} asked for "
                         "both per row and summed")
    for k in orders + summed:
        if not 0 <= k <= K_MAX:
            raise ValueError(f"derivative order {k} outside 0..{K_MAX}")
    if summed:
        weights = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
        if weights.shape != (n,):
            raise ValueError(f"weight length {weights.shape} does not match {n} terms")
    degree = max(orders + summed)
    x = _taylor_input(theta, dim, degree)
    width = len(lattice_directions(dim, degree))

    def mapped(k, coeffs):
        # the (D, P_k) partials of (D, width) order-k coefficients
        if k == 0 or degree == 1:
            return coeffs
        out = np.empty((dim, len(basis_multisets(dim, k)[0]), 1))
        _interpolate(coeffs[:, :, None], dim, degree, k, out)
        return out[:, :, 0]

    step = max(1, BLOCK_ELEMENTS // width)
    per = {k: np.empty((dim, len(basis_multisets(dim, k)[0]), n)) if out is None
           else _reused_rows(out, k, dim, n) for k in orders}
    sums = {k: np.zeros((dim, 1 if k == 0 else width)) for k in summed}
    # reused row block by row block: each order's coefficients as
    # (D, width, rows), which its interpolation maps into the per-row array;
    # for the grouped maps, a view of (width, D, rows), so that each gather
    # reads whole directions
    block = np.empty((dim, width, min(step, n)))
    result = {}
    # a non-finite value raises below, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            outs = problem.batch_fn(x, np.arange(lo, hi))
            for k in orders + summed:
                if k in sums:
                    part = block[:, :1 if k == 0 else width, :hi - lo]
                    _fill(part, outs, k)
                    sums[k] += part @ weights[lo:hi]
                elif k == 0 or degree == 1:
                    _fill(per[k][:, :, lo:hi], outs, k)
                else:
                    part = block[:, :, :hi - lo]
                    if width > DENSE_DIRECTIONS:
                        part = block.reshape(-1)[:part.size].reshape(width, dim, -1).transpose(1, 0, 2)
                    _fill(part, outs, k)
                    _interpolate(part, dim, degree, k, per[k][:, :, lo:hi])
        values = problem.term_fn(0, x)
        for k in orders + summed:
            g0 = np.empty((dim, 1 if k == 0 else width))
            _fill(g0[:, :, None], values, k)
            g0 = mapped(k, g0)
            rows = per[k].transpose(2, 0, 1) if k in per else mapped(k, sums[k])
            if not (np.all(np.isfinite(g0)) and np.all(np.isfinite(rows))):
                raise NonFiniteValueError(f"non-finite per-datum derivative of order {k}")
            result[k] = (g0, rows)
    return result


def _reused_rows(out, k, dim, n):
    # The (D, P, N) array behind the order-k rows of an earlier call's result.
    rows = out[k][1] if k in out else None
    shape = (n, dim, len(basis_multisets(dim, k)[0]))
    if not (isinstance(rows, np.ndarray) and rows.shape == shape and rows.dtype == float
            and rows.flags.writeable and rows.transpose(1, 2, 0).flags.c_contiguous):
        raise ValueError(f"out holds no writable per-row array of order {k} "
                         f"and shape {shape} in the pass's layout")
    return rows.transpose(1, 2, 0)


def per_datum_tensor(problem, theta, k, weights=None):
    """Order-k derivatives of g_0 and of every g_n at theta, over multisets.

    ``(g0, per)`` of :func:`per_datum_tensors` for the one order k, from a
    pass of degree k; with ``weights`` (length N), per is the weighted row
    sum, shape (D, P).
    """
    if weights is None:
        return per_datum_tensors(problem, theta, (k,))[k]
    return per_datum_tensors(problem, theta, (), weights, summed=(k,))[k]


def g_weight_derivative(problem, theta, delta_w, per_datum):
    """Theta-derivatives of (1/N) sum_n g_n(theta) delta_w_n over index
    multisets: the row sum delta_w @ per_datum / N.

    This is the weight-direction derivative of G: the regularization term
    g_0 drops out.  It is public, and it is where the expansion's weights
    enter: :func:`~hoij.expansion.evaluate_theta_ij` calls it once per
    derivative order on the per-datum arrays its factor caches.

    ``per_datum`` is an (N, D, P) per-datum array of
    :func:`per_datum_tensor` at theta, which is not read; column p of the
    result is the mixed partial in the multiset ``basis_multisets(D, k)[0][p]``
    of that array's order k.  ``delta_w`` is one weight offset of length N,
    giving shape (D, P), or a (B, N) block of them, giving (B, D, P) from
    one product of the block with the rows.
    """
    delta_w = np.asarray(getattr(delta_w, "delta", delta_w), dtype=float)
    dim, n = problem.dim_theta, problem.n_terms
    if per_datum.shape != (n, dim, per_datum.shape[-1]):
        raise ValueError(f"per-datum array of shape {per_datum.shape} is not of shape "
                         f"({n}, {dim}, P)")
    # (N, D * P), a view.  One product over every row beats gathering the
    # changed rows (an O(N) scan and a copy) unless D * P >= 32 and fewer
    # than N / GATHER_RATIO rows change.  Measured on a 2-core Xeon, with
    # the rows last in a transposed copy: at D * P <= 18 the product won at
    # every N <= 100 000 and every count of changed rows; at D * P = 288,
    # N = 100 000 and one row the gather took 0.4 ms against 10 ms; near
    # the bound the worse choice cost at most 2.3 times the better one (13
    # against 6 us).
    per = per_datum.reshape(n, -1)
    if (delta_w.ndim == 1 and per.shape[1] >= 32
            and GATHER_RATIO * np.count_nonzero(delta_w) < n):
        rows = np.flatnonzero(delta_w)
        summed = delta_w[rows] @ per[rows]
    else:
        summed = delta_w @ per
    out = summed.reshape(*delta_w.shape[:-1], dim, -1) / n
    if np.count_nonzero(np.isfinite(out)) != out.size:
        raise NonFiniteValueError("non-finite weight-direction derivative")
    return out
