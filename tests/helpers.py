"""Shared test oracles: finite differences and seeded problem builders.

The finite-difference routines are intentionally independent of the forward
AD path they check: they only ever call plain float evaluations.
"""

import numpy as np

from hoij import Dataset, make_problem

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
