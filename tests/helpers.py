"""Shared test oracles: finite differences, nested dual numbers and seeded
problem builders.

The finite-difference routines are intentionally independent of the forward
AD path they check: they only ever call plain float evaluations.  Nested
order-1 levels are the oracle for the univariate Taylor pass of
``hoij.forward_ad``: each level is a dual number whose coefficients may
themselves be TaylorScalars, and the coefficient of the product of all k
perturbations is the exact mixed directional derivative, with no
interpolation involved (``directional_derivative``,
``nested_g_theta_derivative``, ``nested_g_weight_derivative`` and the
per-term ``evaluate_term``); ``contracted_g_weight_derivative`` applies the
weighted row sum of ``forward_ad.g_weight_derivative`` to the same
directions.  The per-tuple derivative loops are the bounds
layer's reference: one nested forward pass per ordered basis-direction
tuple, with no multiset batching.  The nested multiset pass is the
reference for ``per_datum_tensor``: k nested order-1 levels give each
order-k partial directly.  The block-loop tensor, its weighted row sum, is
the reference for ``g_theta_tensor``.  ``bench_module`` loads a module of
the bench directory, for the tests that hold the program to what the bench
reads from it.
"""

import importlib.util
import itertools
import math
import os
import sys
from pathlib import Path

import numpy as np

import hoij
from hoij import Dataset, make_problem
from hoij import forward_ad as fad
from hoij.bounds import SingularSampleError, _SampledStats, operator_norm_of_inverse
from hoij.expansion import assemble_jacobian

# Step sizes tuned per derivative order: large enough to dominate roundoff
# after one Richardson step, small enough for the O(h^4) truncation to stay
# below the comparison tolerances.
FD_STEP = {1: 1e-4, 2: 1e-3, 3: 1e-2, 4: 2e-2}


def fd_directional(f, x, dirs, h):
    """Nested central differences along the directions, all at step h."""
    if not dirs:
        return np.asarray(f(x), dtype=float)
    v = np.asarray(dirs[-1], dtype=float)
    rest = dirs[:-1]
    hi = fd_directional(f, np.asarray(x, float) + h * v, rest, h)
    lo = fd_directional(f, np.asarray(x, float) - h * v, rest, h)
    return (hi - lo) / (2.0 * h)


def richardson_directional(f, x, dirs, h):
    """One Richardson step over the nested central differences (O(h^4))."""
    return (4.0 * fd_directional(f, x, dirs, h / 2) - fd_directional(f, x, dirs, h)) / 3.0


def fd_nth_scalar(f, k, h):
    """k-th derivative at 0 of a scalar-parameter curve, Richardson-extrapolated."""
    def stencil(hh):
        if k == 1:
            return (f(hh) - f(-hh)) / (2.0 * hh)
        if k == 2:
            return (f(hh) - 2.0 * f(0.0) + f(-hh)) / hh ** 2
        if k == 3:
            return (f(2 * hh) - 2.0 * f(hh) + 2.0 * f(-hh) - f(-2 * hh)) / (2.0 * hh ** 3)
        raise ValueError(f"no stencil for order {k}")
    return (4.0 * stencil(h / 2) - stencil(h)) / 3.0


def rel_err(approx, reference, floor=1e-3):
    """Relative gap with an absolute floor covering FD noise on zero values.

    The floor only matters when the true derivative is (near) zero: the
    nested central-difference oracle then returns pure roundoff of order
    eps / h^k (up to ~1e-9 at the order-4 step), which must not be scored
    against a zero denominator.  Genuine derivative magnitudes in these
    tests are at least 1e-2, so the floor never masks a real comparison.
    """
    approx = np.asarray(approx, float)
    reference = np.asarray(reference, float)
    denom = max(np.linalg.norm(approx), np.linalg.norm(reference), floor)
    return float(np.linalg.norm(approx - reference) / denom)


ALL_MODELS = ["mean", "linear_regression", "logistic_regression", "exp_loss"]


def build_problem(model_id, rng, n=12, dim=2, reg=None):
    """A well-conditioned seeded instance of a registered model."""
    x = rng.uniform(-1.0, 1.0, (n, dim))
    if model_id == "linear_regression":
        y = x @ (1.0 + np.arange(dim)) + 0.1 * rng.standard_normal(n)
        return make_problem(model_id, Dataset(x, y), reg)
    if model_id == "logistic_regression":
        y = (rng.random(n) < 0.5).astype(float)
        return make_problem(model_id, Dataset(x, y), reg)
    return make_problem(model_id, Dataset(x), reg)


def max_rel_gap(got, want):
    """Largest entry gap relative to the largest reference entry."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    scale = np.max(np.abs(want))
    gap = np.max(np.abs(got - want))
    return gap / scale if scale > 0 else gap


def mean_dataset_1236():
    """The 4-point running example with closed-form leave-one-out answers."""
    return Dataset(np.array([[1.0], [2.0], [3.0], [6.0]]))


def subprocess_env():
    """Environment for a child ``python -m hoij.cli`` that imports this hoij."""
    src = str(Path(hoij.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_module(name):
    """A module of the bench directory, read from its file as it is."""
    # registered while it runs: its dataclasses look their module up
    spec = importlib.util.spec_from_file_location(f"hoij_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


# -- nested order-1 levels -------------------------------------------------------


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
        x = [fad.TaylorScalar([xi, float(vi)]) for xi, vi in zip(x, v)]
    return x


def tangent(x):
    """First Taylor coefficient; constants have tangent zero."""
    if isinstance(x, fad.TaylorScalar):
        return x.coeffs[1]
    return 0.0


def nested_coefficient(y, k):
    """Coefficient of eps_1 * ... * eps_k, i.e. the mixed directional derivative."""
    for _ in range(k):
        y = tangent(y)
    return y


def directional_derivative(f, theta0, directions):
    """Exact mixed directional derivative of f at theta0.

    f maps a sequence of D scalar-likes to a sequence of scalar-likes and
    must be built from the arithmetic and elementary functions of
    ``hoij.forward_ad``.  With directions (v_1, ..., v_k) the return value is
    the order-k derivative tensor of f contracted against v_1 ... v_k.
    """
    k = len(directions)
    if k < 1:
        raise ValueError("at least one direction is required")
    fad._check_directions(directions, len(theta0))
    x = nested_input(theta0, directions)
    try:
        y = f(x)
    except ZeroDivisionError as err:
        raise fad.NonFiniteValueError(f"division by zero during evaluation: {err}") from None
    out = np.array([float(nested_coefficient(yi, k)) for yi in y])
    if not np.all(np.isfinite(out)):
        raise fad.NonFiniteValueError(
            f"non-finite directional derivative of order {k}: {out}"
        )
    return out


def _reduce_leaves(x, coeffs, coeff_total):
    # Contract the row axis of a scalar-like's array leaves against a
    # coefficient vector; float leaves are constant across rows.
    if isinstance(x, fad.TaylorScalar):
        return fad.TaylorScalar(
            [_reduce_leaves(c, coeffs, coeff_total) for c in x.coeffs]
        )
    if isinstance(x, np.ndarray):
        return float(coeffs @ x)
    return float(x) * coeff_total


def weighted_term_sum(problem, theta, coeffs, rows):
    """sum_i coeffs[i] * g_{rows[i]+1}(theta), as a list of D scalar-likes,
    from one ``batch_fn`` call over the 0-based data rows."""
    rows = np.asarray(rows, dtype=int)
    coeffs = np.asarray(coeffs, dtype=float)
    if rows.size == 0:
        return [0.0] * problem.dim_theta
    total = float(coeffs.sum())
    return [_reduce_leaves(o, coeffs, total) for o in problem.batch_fn(theta, rows)]


def estimating_fn_scalars(problem, theta, weights):
    """G(theta, w) = (1/N)(g_0 + sum_n w_n g_n) in scalar-like arithmetic."""
    n = problem.n_terms
    g0 = problem.term_fn(0, theta)
    data = weighted_term_sum(problem, theta, np.asarray(weights, float), np.arange(n))
    return [(g0[j] + data[j]) / n for j in range(problem.dim_theta)]


def nested_g_theta_derivative(problem, theta, weights, directions):
    """``forward_ad.g_theta_derivative`` from one nested pass over every row.

    An empty direction tuple returns G itself.
    """
    weights = np.asarray(getattr(weights, "values", weights), dtype=float)
    k = len(directions)
    fad._check_directions(directions, problem.dim_theta)
    x = nested_input(theta, directions)
    g = estimating_fn_scalars(problem, x, weights)
    out = np.array([float(nested_coefficient(gj, k)) for gj in g])
    if not np.all(np.isfinite(out)):
        raise fad.NonFiniteValueError(
            f"non-finite estimating-function derivative of order {k}"
        )
    return out


def nested_g_weight_derivative(problem, theta, delta_w, directions):
    """``forward_ad.g_weight_derivative`` applied to directions, shape (D,),
    from one nested pass over the rows a length-N delta_w changes."""
    delta_w = np.asarray(getattr(delta_w, "delta", delta_w), dtype=float)
    k = len(directions)
    fad._check_directions(directions, problem.dim_theta)
    rows = np.nonzero(delta_w)[0]
    if rows.size == 0:
        return np.zeros(problem.dim_theta)
    x = nested_input(theta, directions)
    total = weighted_term_sum(problem, x, delta_w[rows], rows)
    return np.array([float(nested_coefficient(tj, k)) / problem.n_terms for tj in total])


def contracted_g_weight_derivative(problem, theta, delta_w, directions, per_datum=None):
    """``forward_ad.g_weight_derivative`` applied to its directions, shape
    (D,), as ``expansion.evaluate_dtheta`` applies it: the weighted row sum
    of ``per_datum``, by default the rows of order len(directions) from a
    pass at theta, expanded to ordered tuples and contracted with
    ``forward_ad.contract``.  ``nested_g_weight_derivative`` is its oracle."""
    directions = fad._check_directions(directions, problem.dim_theta)
    k = len(directions)
    if per_datum is None:
        per_datum = fad.per_datum_tensor(problem, theta, k)[1]
    summed = fad.g_weight_derivative(problem, theta, delta_w, per_datum)
    return fad.contract(summed[:, fad.basis_multisets(problem.dim_theta, k)[1]], directions)


def evaluate_term(problem, theta_hat, term, dset, delta_w):
    """One table term's value at the base weights (coefficient NOT applied).

    ``dset`` maps order j to the already computed coefficient vector d_j.
    Flag 0 contracts the theta-derivative of G at the all-ones weights;
    flag 1 contracts the weight-direction derivative along delta_w.  Both
    run a nested pass over the data, where ``expansion.evaluate_dtheta``
    contracts the arrays cached on the Hessian factor.
    """
    try:
        dirs = tuple(dset[j] for j in term.kset)
    except KeyError as err:
        raise KeyError(
            f"term {term} needs derivative of order {err.args[0]}, "
            f"but only orders {sorted(dset)} are available"
        ) from None
    if term.omega == 0:
        return nested_g_theta_derivative(problem, theta_hat, np.ones(problem.n_terms), dirs)
    return nested_g_weight_derivative(problem, theta_hat, delta_w, dirs)


# -- per-tuple and multiset references -----------------------------------------------


def per_tuple_entries(problem, theta, k):
    """(g_0 entries of length D * D**k, per-datum entries of shape (N, D * D**k)).

    One nested pass per ordered basis tuple; entries are ordered tuple major
    and component minor.
    """
    dim, n = problem.dim_theta, problem.n_terms
    eye = np.eye(dim)
    rows = np.arange(n)
    g0, cols = [], []
    for tup in itertools.product(range(dim), repeat=k):
        x = nested_input(theta, [eye[d] for d in tup])
        g0.extend(float(nested_coefficient(gj, k)) for gj in problem.term_fn(0, x))
        for out in problem.batch_fn(x, rows):
            leaf = nested_coefficient(out, k)
            cols.append(leaf.astype(float) if isinstance(leaf, np.ndarray)
                        else np.full(n, float(leaf)))
    return np.array(g0), np.column_stack(cols)


def per_tuple_sample_stats(problem, sampler, k_hi):
    """Sampled statistics of the bounds layer, from the per-tuple entries,
    and the sampler's radius, which must be a number."""
    n = problem.n_terms
    c_op = 0.0
    m, v, t, loo = ({k: 0.0 for k in range(k_hi + 1)} for _ in range(4))
    for theta in sampler.points():
        h = assemble_jacobian(problem, theta, np.ones(n))
        try:
            c_op = max(c_op, operator_norm_of_inverse(h))
        except np.linalg.LinAlgError:
            raise SingularSampleError(theta) from None
        for k in range(k_hi + 1):
            g0, entries = per_tuple_entries(problem, theta, k)
            m[k] = max(m[k], float(np.linalg.norm((g0 + entries.sum(axis=0)) / n)))
            sq = np.sum(entries * entries, axis=1)
            v[k] = max(v[k], float(sq.mean()))
            t[k] = max(t[k], float(np.max(np.abs(entries))))
            loo[k] = max(loo[k], math.sqrt(sq.max()) / n)
    return _SampledStats(c_op=c_op, m=m, v=v, t=t, loo_exact=loo), float(sampler.radius)


def _multiset_input(theta, dim, multisets):
    # theta lifted through k order-1 levels that carry the (P, k) basis
    # multisets at once.  At level i the tangent of theta_d is 1 for the
    # multisets whose i-th index is d: a (P, 1) leaf, constant across rows.
    x = [float(t) for t in theta]
    if len(x) != dim:
        raise ValueError(f"theta length {len(x)} != parameter dimension {dim}")
    for col in multisets.T:
        x = [fad.TaylorScalar([xi, (col == d)[:, None].astype(float)])
             for d, xi in enumerate(x)]
    return x


def _batched_coefficient(values, k, width):
    # (D, width) mixed coefficients of scalar-likes with (width, 1) leaves;
    # a component with no such leaf has a constant coefficient.
    out = np.empty((len(values), width))
    for i, v in enumerate(values):
        out[i] = np.reshape(nested_coefficient(v, k), -1)
    return out


def nested_per_datum_tensor(problem, theta, k, weights=None):
    """``forward_ad.per_datum_tensor`` from one nested pass of k order-1 levels.

    Every level carries all C(D+k-1, k) basis-direction multisets along a
    leading leaf axis, and the mixed coefficient of all k levels is the
    partial in that multiset, so no interpolation is involved.  Same
    returns, row blocks and weights mode as the univariate pass it checks.
    """
    dim, n = problem.dim_theta, problem.n_terms
    if not 0 <= k <= fad.K_MAX:
        raise ValueError(f"derivative order {k} outside 0..{fad.K_MAX}")
    multisets, _ = fad.basis_multisets(dim, k)
    width = len(multisets)
    x = _multiset_input(theta, dim, multisets)
    g0 = _batched_coefficient(problem.term_fn(0, x), k, width)
    step = max(1, fad.BLOCK_ELEMENTS // width)
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
        for j, o in enumerate(problem.batch_fn(x, np.arange(lo, hi))):
            # leaves are (P, rows), (P, 1), (rows,) or floats
            part[j] = nested_coefficient(o, k)
        if weights is not None:
            per += part @ weights[lo:hi]
    if weights is None:
        per = per.transpose(2, 0, 1)
    if not (np.all(np.isfinite(g0)) and np.all(np.isfinite(per))):
        raise fad.NonFiniteValueError(
            f"non-finite per-datum derivative of order {k}"
        )
    return g0, per


def block_loop_g_theta_tensor(problem, theta, w, k):
    """(D, D**k) derivative array of G from the nested pass, its row blocks
    reduced against the weights as they go."""
    g0, summed = nested_per_datum_tensor(problem, theta, k, np.asarray(w, dtype=float))
    return (g0 + summed)[:, fad.basis_multisets(problem.dim_theta, k)[1]] / problem.n_terms
