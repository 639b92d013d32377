"""Shared test oracles: finite differences and seeded problem builders.

The finite-difference routines are intentionally independent of the forward
AD path they check: they only ever call plain float evaluations.  The
per-tuple derivative loops are the bounds layer's reference: one nested
forward pass per ordered basis-direction tuple, with no multiset batching.
The block-loop tensor is the reference for ``g_theta_tensor``: it reduces
each row block's leaves as it goes instead of keeping the rows.
"""

import itertools
import math
import os
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
        x = fad.nested_input(theta, [eye[d] for d in tup])
        g0.extend(float(fad.nested_coefficient(gj, k)) for gj in problem.term_fn(0, x))
        if problem.batch_fn is not None:
            for out in problem.batch_fn(x, rows):
                leaf = fad.nested_coefficient(out, k)
                cols.append(leaf.astype(float) if isinstance(leaf, np.ndarray)
                            else np.full(n, float(leaf)))
        else:
            vals = np.array([[float(fad.nested_coefficient(gj, k))
                              for gj in problem.term_fn(int(r) + 1, x)] for r in rows])
            cols.extend(vals.T)
    return np.array(g0), np.column_stack(cols)


def per_tuple_sample_stats(problem, sampler, k_hi):
    """Sampled statistics of the bounds layer, from the per-tuple entries."""
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
    return _SampledStats(c_op=c_op, m=m, v=v, t=t, loo_exact=loo)


def _block_reduce(x, coeffs):
    # Contract the row axis (the last) of a direction-batched pass's leaves;
    # (P, 1) leaves and floats are constant across rows.
    if isinstance(x, fad.TaylorScalar):
        return fad.TaylorScalar([_block_reduce(c, coeffs) for c in x.coeffs])
    if isinstance(x, np.ndarray) and x.shape[-1] == coeffs.size and x.ndim > 1:
        return (x @ coeffs)[..., None]
    if isinstance(x, np.ndarray) and x.ndim == 1:
        return float(coeffs @ x)
    return x * float(coeffs.sum())


def block_loop_g_theta_tensor(problem, theta, w, k):
    """(D, D**k) derivative array of G from a row-block loop that reduces
    every block's multiset-batched leaves against the weights."""
    dim, n = problem.dim_theta, problem.n_terms
    w = np.asarray(w, dtype=float)
    multisets, inverse = fad.basis_multisets(dim, k)
    width = len(multisets)
    x = fad._multiset_input(theta, dim, multisets)
    acc = fad._batched_coefficient(problem.term_fn(0, x), k, width)
    step = max(1, fad.BLOCK_ELEMENTS // width)
    for lo in range(0, n, step):
        rows = np.arange(lo, min(lo + step, n))
        if problem.batch_fn is not None:
            outs = [_block_reduce(o, w[rows]) for o in problem.batch_fn(x, rows)]
        else:
            outs = [0.0] * dim
            for r in rows:
                outs = [a + w[r] * g for a, g in zip(outs, problem.term_fn(int(r) + 1, x))]
        acc += fad._batched_coefficient(outs, k, width)
    return acc[:, inverse] / n
