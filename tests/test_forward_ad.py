"""Forward-mode AD engine: Taylor arithmetic and directional derivatives."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hoij import forward_ad as fad
from hoij.forward_ad import TaylorScalar

import dataclasses
import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoij import EstimatingProblem, evaluate_g

from helpers import (
    ALL_MODELS,
    FD_STEP,
    block_loop_g_theta_tensor,
    build_problem,
    contracted_g_weight_derivative,
    directional_derivative,
    max_rel_gap,
    nested_g_theta_derivative,
    nested_g_weight_derivative,
    nested_per_datum_tensor,
    rel_err,
    richardson_directional,
)


class TestTaylorArithmetic:
    """Truncated-polynomial arithmetic must match the known series exactly."""

    def test_exp_series_coefficients(self):
        # exp(x) at 0: coefficient k is 1/k!
        x = TaylorScalar([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        y = fad.exp(x)
        for k, c in enumerate(y.coeffs):
            assert c == pytest.approx(1.0 / math.factorial(k), rel=1e-15)

    def test_log_inverts_exp(self):
        x = TaylorScalar([0.3, 1.0, -0.5, 0.25, 0.1])
        back = fad.log(fad.exp(x))
        for a, b in zip(back.coeffs, x.coeffs):
            assert a == pytest.approx(b, abs=1e-14)

    def test_product_is_cauchy_convolution(self):
        rng = np.random.default_rng(0)
        a = TaylorScalar(rng.standard_normal(5).tolist())
        b = TaylorScalar(rng.standard_normal(5).tolist())
        prod = a * b
        for k in range(5):
            expected = sum(a.coeffs[j] * b.coeffs[k - j] for j in range(k + 1))
            assert prod.coeffs[k] == pytest.approx(expected, rel=1e-15)

    def test_division_roundtrip(self):
        rng = np.random.default_rng(1)
        a = TaylorScalar(rng.standard_normal(6).tolist())
        b = TaylorScalar((rng.standard_normal(6) + 3.0).tolist())
        back = (a / b) * b
        for x, y in zip(back.coeffs, a.coeffs):
            assert x == pytest.approx(y, abs=1e-13)

    def test_integer_power_matches_repeated_product(self):
        a = TaylorScalar([1.5, -0.3, 0.2, 0.05])
        cube = a ** 3
        ref = a * a * a
        for x, y in zip(cube.coeffs, ref.coeffs):
            assert x == pytest.approx(y, rel=1e-15)

    def test_sigmoid_series_matches_composition(self):
        # sigmoid = 1 / (1 + exp(-x)) built from ring primitives
        a = TaylorScalar([0.4, 1.0, -0.2, 0.3, 0.0])
        direct = fad.sigmoid(a)
        composed = 1.0 / (1.0 + fad.exp(-a))
        for x, y in zip(direct.coeffs, composed.coeffs):
            assert x == pytest.approx(y, abs=1e-15)

    def test_sigmoid_of_arrays_and_floats(self):
        """Within 4 ulp of 1 / (1 + exp(-x)) per element by math.exp; exactly
        0 and 1 at -inf and +inf, NaN through, and no warning at +-1000."""
        x = np.concatenate([np.linspace(-700.0, 800.0, 30001),
                            np.random.default_rng(4).uniform(-40.0, 40.0, 3000)])
        want = np.array([1.0 / (1.0 + math.exp(-v)) for v in x])
        got = fad.sigmoid(x)
        assert np.max(np.abs(got - want) / np.spacing(want)) <= 4
        for v in x[::1001]:
            y = fad.sigmoid(float(v))
            assert isinstance(y, float) and y == got[np.flatnonzero(x == v)[0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            edge = fad.sigmoid(np.array([-np.inf, np.inf, np.nan, -1000.0, 1000.0]))
        assert edge[0] == 0.0 and edge[1] == 1.0 and np.isnan(edge[2])
        assert edge[3] == 0.0 and edge[4] == 1.0

    def test_float_zeros_match_zero_arrays(self):
        """Structural zeros, coefficients that are the float 0.0, are skipped
        in products, quotients and the exp/log/sigmoid recurrences: the
        results equal those with arrays of zeros in their place."""
        rng = np.random.default_rng(2)
        shape = (4, 3)
        a0 = rng.uniform(0.5, 1.5, shape)
        a1, b1, b3 = (rng.standard_normal(shape) for _ in range(3))
        for float_zeros in (
                [a0, a1, 0.0, 0.0, 0.0],
                [a0, 0.0, 0.0, a1, 0.0],
                [0.0, a1, 0.0, 0.0, b1]):
            array_zeros = [np.zeros(shape) if isinstance(c, float) else c for c in float_zeros]
            a, a_ref = TaylorScalar(float_zeros), TaylorScalar(array_zeros)
            b = TaylorScalar([a0 + 1.0, b1, 0.0, b3, 0.0])
            b_ref = TaylorScalar([a0 + 1.0, b1, np.zeros(shape), b3, np.zeros(shape)])
            cases = [(lambda x, y: x * y), (lambda x, y: y * x), (lambda x, y: x / y),
                     (lambda x, y: fad.exp(x) * 2.0), (lambda x, y: fad.sigmoid(x) - y),
                     (lambda x, y: fad.log(y) + x), (lambda x, y: fad.log(x * x + y))]
            for f in cases:
                got, want = f(a, b).coeffs, f(a_ref, b_ref).coeffs
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(np.broadcast_to(g, shape), w)
        # the zeros stay floats: no array of zeros is formed
        exp_coeffs = fad.exp(TaylorScalar([a0, a1, 0.0, 0.0, 0.0])).coeffs
        assert all(isinstance(c, np.ndarray) for c in exp_coeffs)
        for c in ((TaylorScalar([a0, a1, 0.0]) * 3.0).coeffs[2],
                  (TaylorScalar([a0, a1, 0.0]) * TaylorScalar([a0, 0.0, 0.0])).coeffs[2],
                  (TaylorScalar([a0, 0.0, 0.0]) / TaylorScalar([a0, 0.0, 0.0])).coeffs[2],
                  (TaylorScalar([0.0, 0.0, a1]) / TaylorScalar([a0, a1, 0.0])).coeffs[1]):
            assert type(c) is float and c == 0.0

    def test_float_power(self):
        a = TaylorScalar([2.0, 1.0, 0.0])
        y = a ** 0.5
        assert y.coeffs[0] == pytest.approx(math.sqrt(2.0))
        assert y.coeffs[1] == pytest.approx(0.5 / math.sqrt(2.0))

    def test_numpy_array_leaves(self):
        arr = np.array([1.0, 2.0, 3.0])
        x = TaylorScalar([arr, 1.0])
        y = x * arr + arr
        np.testing.assert_allclose(y.coeffs[0], arr * arr + arr)
        np.testing.assert_allclose(y.coeffs[1], arr)

    def test_order_mismatch_raises(self):
        with pytest.raises(ValueError, match="order mismatch"):
            TaylorScalar([0.0, 1.0]) * TaylorScalar([0.0, 1.0, 2.0])


class TestDirectionalDerivative:
    def test_exp_all_ones(self):
        out = directional_derivative(lambda x: [fad.exp(x[0])], [0.0],
                                     [[1.0], [1.0], [1.0]])
        assert out[0] == pytest.approx(1.0, abs=1e-15)

    def test_identity_is_linear(self):
        f = lambda x: [x[0]]
        assert directional_derivative(f, [5.0], [[2.0]])[0] == 2.0
        assert directional_derivative(f, [5.0], [[1.0], [1.0]])[0] == 0.0

    def test_exp_inner_product_mixed(self):
        # f(theta) = exp(theta . x) x at 0 along e_1, e_2 gives (x.v1)(x.v2) x
        xv = np.array([1.0, 2.0])
        f = lambda t: [fad.exp(t[0] * xv[0] + t[1] * xv[1]) * xv[d] for d in range(2)]
        out = directional_derivative(f, [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(out, [2.0, 4.0], rtol=1e-15)

    def test_order_cap(self):
        f = lambda x: [x[0]]
        with pytest.raises(ValueError, match="exceeds"):
            directional_derivative(f, [0.0], [[1.0]] * (fad.K_MAX + 1))

    def test_requires_direction(self):
        with pytest.raises(ValueError):
            directional_derivative(lambda x: [x[0]], [0.0], [])

    def test_non_finite_detected(self):
        # exp overflows to inf at the primal, which must not pass silently
        f = lambda x: [fad.exp(x[0])]
        with np.errstate(over="ignore"), pytest.raises(fad.NonFiniteValueError):
            directional_derivative(f, [800.0], [[1.0]])

    def test_division_by_zero_reported(self):
        f = lambda x: [fad.log(x[0])]
        for order in (1, 2, 3, 4):
            with np.errstate(divide="ignore"), \
                    pytest.raises(fad.NonFiniteValueError, match="division by zero"):
                directional_derivative(f, [0.0], [[1.0]] * order)


class TestEstimatingFunctionDerivatives:
    def test_mean_first_derivative_is_direction(self):
        rng = np.random.default_rng(7)
        prob = build_problem("mean", rng, n=6, dim=1)
        out = fad.g_theta_derivative(prob, [0.3], np.ones(6), ([2.0],))
        assert out[0] == pytest.approx(2.0, rel=1e-15)
        out2 = fad.g_theta_derivative(prob, [0.3], np.ones(6), ([1.0], [1.0]))
        assert out2[0] == 0.0

    def test_exp_loss_single_datum_second(self):
        from hoij import Dataset, make_problem
        prob = make_problem("exp_loss", Dataset(np.array([[1.0]])))
        out = fad.g_theta_derivative(prob, [0.0], np.ones(1), ([1.0], [1.0]))
        assert out[0] == pytest.approx(1.0, rel=1e-15)

    def test_weight_derivative_examples(self):
        from helpers import mean_dataset_1236
        from hoij import make_problem
        prob = make_problem("mean", mean_dataset_1236())
        dw = np.array([0.0, 0.0, 0.0, -1.0])
        k0 = contracted_g_weight_derivative(prob, [3.0], dw, ())
        assert k0[0] == pytest.approx(0.75, abs=1e-15)
        k1 = contracted_g_weight_derivative(prob, [3.0], dw, ([1.0],))
        assert k1[0] == pytest.approx(-0.25, abs=1e-15)

    def test_zero_delta_gives_zero(self):
        rng = np.random.default_rng(9)
        prob = build_problem("exp_loss", rng)
        for k in range(3):
            out = contracted_g_weight_derivative(prob, [0.1, -0.2], np.zeros(prob.n_terms),
                                                 tuple([1.0, 0.5] for _ in range(k)))
            np.testing.assert_array_equal(out, 0.0)

    def test_weight_derivative_is_weighted_minus_base(self):
        """G_w-derivative equals the difference of theta-derivatives at w and 1."""
        rng = np.random.default_rng(21)
        for model_id in ALL_MODELS:
            prob = build_problem(model_id, rng)
            w = rng.uniform(0.2, 1.8, prob.n_terms)
            theta = rng.uniform(-0.5, 0.5, prob.dim_theta)
            for k in range(0, 3):
                dirs = tuple(rng.uniform(-1, 1, prob.dim_theta) for _ in range(k))
                lhs = contracted_g_weight_derivative(prob, theta, w - 1.0, dirs)
                rhs = fad.g_theta_derivative(prob, theta, w, dirs) \
                    - fad.g_theta_derivative(prob, theta, np.ones(prob.n_terms), dirs)
                assert rel_err(lhs, rhs, floor=1e-10) < 1e-12

    def test_direction_permutation_symmetry(self):
        rng = np.random.default_rng(13)
        for model_id in ["logistic_regression", "exp_loss"]:
            prob = build_problem(model_id, rng)
            theta = rng.uniform(-0.4, 0.4, prob.dim_theta)
            w = rng.uniform(0.5, 1.5, prob.n_terms)
            dirs = [rng.uniform(-1, 1, prob.dim_theta) for _ in range(3)]
            base = fad.g_theta_derivative(prob, theta, w, dirs)
            for perm in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
                out = fad.g_theta_derivative(prob, theta, w, [dirs[i] for i in perm])
                np.testing.assert_allclose(out, base, rtol=1e-13, atol=1e-15)

    def test_multilinearity_in_each_direction(self):
        rng = np.random.default_rng(17)
        prob = build_problem("exp_loss", rng)
        theta = rng.uniform(-0.4, 0.4, 2)
        w = rng.uniform(0.5, 1.5, prob.n_terms)
        dirs = [rng.uniform(-1, 1, 2) for _ in range(3)]
        base = fad.g_theta_derivative(prob, theta, w, dirs)
        for j in range(3):
            scaled = [d.copy() for d in dirs]
            scaled[j] = 2.0 * scaled[j]
            out = fad.g_theta_derivative(prob, theta, w, scaled)
            np.testing.assert_allclose(out, 2.0 * base, rtol=1e-13)

    def test_finite_difference_agreement_spot(self):
        """Orders 1-3 vs Richardson central differences on two models."""
        from hoij import evaluate_g
        rng = np.random.default_rng(29)
        for model_id in ["logistic_regression", "exp_loss"]:
            prob = build_problem(model_id, rng)
            w = rng.uniform(0.2, 1.8, prob.n_terms)
            for order in (1, 2, 3):
                theta = rng.uniform(-0.5, 0.5, prob.dim_theta)
                dirs = [rng.uniform(-1, 1, prob.dim_theta) for _ in range(order)]
                ad = fad.g_theta_derivative(prob, theta, w, dirs)
                fd = richardson_directional(
                    lambda t: evaluate_g(prob, t, w), theta, dirs, FD_STEP[order]
                )
                assert rel_err(ad, fd) < 1e-6


def basis_oracle(prob, theta, w, k):
    """(D, D**k) array from one nested g_theta_derivative per ordered basis tuple."""
    eye = np.eye(prob.dim_theta)
    cols = [nested_g_theta_derivative(prob, theta, w, [eye[j] for j in tup])
            for tup in itertools.product(range(prob.dim_theta), repeat=k)]
    return np.column_stack(cols)


class TestDerivativeTensor:
    """g_theta_tensor against per-tuple directional derivatives."""

    def test_memory_does_not_grow_with_rows(self):
        """Rows are reduced block by block: the traced peak is the same at
        2 000 and 32 000 rows, far below one per-datum array."""
        peaks = []
        for n in (2000, 32000):
            prob = build_problem("logistic_regression", np.random.default_rng(37),
                                 n=n, dim=3)
            w = np.ones(n)
            fad.g_theta_tensor(prob, np.zeros(3), w, 2)  # warm caches
            tracemalloc.start()
            try:
                fad.g_theta_tensor(prob, np.zeros(3), w, 2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_datum_bytes = 32000 * 3 * math.comb(3 + 1, 2) * 8
        assert peaks[1] <= peaks[0] + fad.BLOCK_ELEMENTS
        assert peaks[1] < per_datum_bytes / 4

    @pytest.mark.parametrize("model_id", ALL_MODELS)
    def test_models_with_l2_term(self, model_id):
        rng = np.random.default_rng(31)
        prob = build_problem(model_id, rng, n=9, dim=3, reg={"l2": 0.3})
        theta = rng.uniform(-0.5, 0.5, 3)
        w = rng.uniform(0.2, 1.8, prob.n_terms)
        for k in range(1, 5):
            got = fad.g_theta_tensor(prob, theta, w, k)
            assert got.shape == (3, 3 ** k)
            assert max_rel_gap(got, basis_oracle(prob, theta, w, k)) <= 1e-12

    def test_term_fn_only_problem(self):
        rng = np.random.default_rng(32)
        full = build_problem("logistic_regression", rng, n=7, dim=2, reg={"l2": 0.1})
        prob = EstimatingProblem(full.dim_theta, full.n_terms, full.term_fn)
        theta = rng.uniform(-0.5, 0.5, 2)
        w = rng.uniform(0.2, 1.8, prob.n_terms)
        for k in range(1, 5):
            got = fad.g_theta_tensor(prob, theta, w, k)
            assert max_rel_gap(got, basis_oracle(prob, theta, w, k)) <= 1e-12
            np.testing.assert_allclose(got, fad.g_theta_tensor(full, theta, w, k),
                                       rtol=1e-12, atol=0)

    def test_rows_beyond_one_block(self):
        rng = np.random.default_rng(33)
        prob = build_problem("exp_loss", rng, n=450, dim=3)
        k = 3  # 10 multisets x 450 rows > BLOCK_ELEMENTS
        assert 10 * prob.n_terms > fad.BLOCK_ELEMENTS
        theta = rng.uniform(-0.5, 0.5, 3)
        w = rng.uniform(0.2, 1.8, prob.n_terms)
        got = fad.g_theta_tensor(prob, theta, w, k)
        assert max_rel_gap(got, basis_oracle(prob, theta, w, k)) <= 1e-12

    def test_leaves_stay_within_block(self, monkeypatch):
        rng = np.random.default_rng(34)
        prob = build_problem("logistic_regression", rng, n=40, dim=2)
        theta = rng.uniform(-0.5, 0.5, 2)
        w = np.ones(prob.n_terms)
        want = fad.g_theta_tensor(prob, theta, w, 2)
        monkeypatch.setattr(fad, "BLOCK_ELEMENTS", 12)  # 3 multisets x 4 rows
        sizes = []
        batch = prob.batch_fn

        def spy(theta_s, rows):
            sizes.append(len(rows))
            return batch(theta_s, rows)

        spied = EstimatingProblem(prob.dim_theta, prob.n_terms, prob.term_fn,
                                  batch_fn=spy)
        got = fad.g_theta_tensor(spied, theta, w, 2)
        assert sizes == [4] * 10
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_symmetric_and_non_finite(self):
        rng = np.random.default_rng(35)
        prob = build_problem("exp_loss", rng, n=5, dim=2)
        t = fad.g_theta_tensor(prob, [0.1, 0.2], np.ones(5), 3).reshape(2, 2, 2, 2)
        np.testing.assert_array_equal(t, t.transpose(0, 2, 1, 3))
        np.testing.assert_array_equal(t, t.transpose(0, 3, 2, 1))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(fad.NonFiniteValueError):
            fad.g_theta_tensor(prob, [900.0, 900.0], np.ones(5), 2)

    @pytest.mark.parametrize("model_id", ALL_MODELS + ["term_fn_only"])
    @pytest.mark.parametrize("block", [fad.BLOCK_ELEMENTS, 12])
    def test_matches_block_loop(self, model_id, block, monkeypatch):
        rng = np.random.default_rng(36)
        prob = build_problem(model_id if model_id in ALL_MODELS else "logistic_regression",
                             rng, n=40, dim=2, reg={"l2": 0.3})
        if model_id == "term_fn_only":
            prob = EstimatingProblem(prob.dim_theta, prob.n_terms, prob.term_fn)
        monkeypatch.setattr(fad, "BLOCK_ELEMENTS", block)
        theta = rng.uniform(-0.5, 0.5, 2)
        w = rng.uniform(0.2, 1.8, prob.n_terms)
        for k in range(1, 6):
            assert max_rel_gap(fad.g_theta_tensor(prob, theta, w, k),
                               block_loop_g_theta_tensor(prob, theta, w, k)) <= 1e-12

    def test_multisets(self):
        multisets, inverse = fad.basis_multisets(3, 2)
        assert multisets.tolist() == [[0, 0], [0, 1], [0, 2], [1, 1], [1, 2], [2, 2]]
        assert inverse.tolist() == [0, 1, 2, 1, 3, 4, 2, 4, 5]
        assert fad.basis_multisets(3, 0)[0].shape == (1, 0)
        assert fad.basis_multisets(3, 0)[1].tolist() == [0]


def term_oracle(prob, n, theta, k):
    """(D, D**k) derivatives of g_n, one directional derivative per ordered basis tuple."""
    def fn(x):
        return prob.term_fn(n, x)
    if k == 0:
        return np.array([float(v) for v in fn(list(theta))])[:, None]
    eye = np.eye(prob.dim_theta)
    return np.column_stack([
        directional_derivative(fn, theta, [eye[j] for j in tup])
        for tup in itertools.product(range(prob.dim_theta), repeat=k)])


def assert_matches_term_oracle(prob, theta, k, rows):
    g0, per = fad.per_datum_tensors(prob, theta, (k,))[k]
    width = math.comb(prob.dim_theta + k - 1, k)
    assert g0.shape == (prob.dim_theta, width)
    assert per.shape == (prob.n_terms, prob.dim_theta, width)
    inverse = fad.basis_multisets(prob.dim_theta, k)[1]
    assert max_rel_gap(g0[:, inverse], term_oracle(prob, 0, theta, k)) <= 1e-12
    for r in rows:
        assert max_rel_gap(per[r][:, inverse], term_oracle(prob, r + 1, theta, k)) <= 1e-12
    return g0, per


class TestPerDatumTensor:
    """per_datum_tensors against per-row, per-tuple directional derivatives."""

    @pytest.mark.parametrize("model_id", ALL_MODELS)
    def test_models_with_l2_term(self, model_id):
        rng = np.random.default_rng(41)
        prob = build_problem(model_id, rng, n=9, dim=3, reg={"l2": 0.3})
        theta = rng.uniform(-0.5, 0.5, 3)
        for k in range(5):
            assert_matches_term_oracle(prob, theta, k, rows=(0, 4, 8))

    def test_term_fn_only_problem(self):
        rng = np.random.default_rng(42)
        full = build_problem("logistic_regression", rng, n=7, dim=2, reg={"l2": 0.1})
        prob = EstimatingProblem(full.dim_theta, full.n_terms, full.term_fn)
        theta = rng.uniform(-0.5, 0.5, 2)
        for k in range(5):
            _, per = assert_matches_term_oracle(prob, theta, k, rows=range(7))
            np.testing.assert_allclose(per, fad.per_datum_tensors(full, theta, (k,))[k][1],
                                       rtol=1e-12, atol=0)

    def test_rows_in_several_blocks(self, monkeypatch):
        rng = np.random.default_rng(43)
        prob = build_problem("exp_loss", rng, n=40, dim=2, reg={"l2": 0.2})
        theta = rng.uniform(-0.5, 0.5, 2)
        monkeypatch.setattr(fad, "BLOCK_ELEMENTS", 12)  # 3 multisets x 4 rows
        sizes = []
        batch = prob.batch_fn

        def spy(theta_s, rows):
            sizes.append(len(rows))
            return batch(theta_s, rows)

        spied = EstimatingProblem(prob.dim_theta, prob.n_terms, prob.term_fn,
                                  batch_fn=spy)
        assert_matches_term_oracle(spied, theta, 2, rows=range(40))
        assert sizes == [4] * 10

    def test_row_sum_is_g_theta_tensor(self):
        rng = np.random.default_rng(44)
        prob = build_problem("logistic_regression", rng, n=11, dim=3, reg={"l2": 0.3})
        theta = rng.uniform(-0.5, 0.5, 3)
        w = rng.uniform(0.2, 1.8, prob.n_terms)
        for k in range(1, 5):
            g0, per = fad.per_datum_tensors(prob, theta, (k,))[k]
            summed = (g0 + np.tensordot(w, per, axes=1)) / prob.n_terms
            inverse = fad.basis_multisets(3, k)[1]
            assert max_rel_gap(summed[:, inverse],
                               fad.g_theta_tensor(prob, theta, w, k)) <= 1e-12

    def test_non_finite_and_order_range(self):
        """Overflow and log at 0 raise from passes of every degree, also the
        degrees 2..4 whose seeded coefficients are structural zeros."""
        rng = np.random.default_rng(45)
        prob = build_problem("exp_loss", rng, n=5, dim=2)
        x = rng.uniform(0.5, 1.5, 5)
        log_prob = EstimatingProblem(
            2, 5, lambda i, t: [0.0, 0.0] if i == 0 else [fad.log(t[0]) * x[i - 1], t[1]],
            batch_fn=lambda t, rows: [fad.log(t[0]) * x[rows], t[1] - x[rows]])
        for k in (0, 2, 3, 4):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(fad.NonFiniteValueError):
                fad.per_datum_tensors(prob, [900.0, 900.0], (k,))[k]
            for p in (log_prob, EstimatingProblem(2, 5, log_prob.term_fn)):
                with np.errstate(divide="ignore", invalid="ignore"), \
                        pytest.raises(fad.NonFiniteValueError):
                    fad.per_datum_tensors(p, [0.0, 0.3], range(k + 1))
        with pytest.raises(ValueError, match="order"):
            fad.per_datum_tensors(prob, [0.0, 0.0], (fad.K_MAX + 1,))


def monomial_matrix(dim, degree, k):
    """(P_degree, P_k) entries i^a / a!: the order-k Taylor coefficient along
    lattice direction i is this row against the partials over multisets a.
    Directions and multisets as index counts, in itertools order."""
    def counts(order):
        return np.array([np.bincount(np.array(m, dtype=int), minlength=dim)
                         for m in itertools.combinations_with_replacement(range(dim), order)])
    directions, alphas = counts(degree), counts(k)
    factorials = np.prod([[math.factorial(c) for c in a] for a in alphas], axis=1)
    chunks = np.array_split(directions, max(1, len(directions) // 128))
    return np.vstack([np.prod(c[:, None, :] ** alphas[None], axis=2) for c in chunks]) / factorials


class TestInterpolationMatrix:
    """The fixed maps from a univariate pass's coefficients to partials."""

    def test_lattice_directions(self):
        np.testing.assert_array_equal(fad.lattice_directions(3, 1), np.eye(3))
        assert fad.lattice_directions(3, 2).tolist() == [
            [2, 0, 0], [1, 1, 0], [1, 0, 1], [0, 2, 0], [0, 1, 1], [0, 0, 2]]

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    def test_reproduces_symmetric_tensors(self, dim):
        """Random partials, one per multiset, taken to coefficients along
        every lattice direction and back, at every order of every degree up
        to K_MAX; the condition number stays below 2e2."""
        rng = np.random.default_rng(dim)
        for degree in range(1, fad.K_MAX + 1):
            for k in range(1, degree + 1):
                m = fad.interpolation_matrix(dim, degree, k)
                monomials = monomial_matrix(dim, degree, k)
                partials = rng.standard_normal((monomials.shape[1], 3))
                assert max_rel_gap(m @ (monomials @ partials), partials) <= 1e-12, (degree, k)
                assert np.linalg.cond(m) < 2e2, (degree, k)

    @pytest.mark.parametrize("dim,degree", [(3, 3), (5, 4), (6, 4), (8, 3), (7, 4), (8, 4)])
    def test_dense_and_grouped_maps_agree(self, dim, degree, monkeypatch):
        """Each order's map applied as one dense product and through its
        nonzero blocks, at the (D, d) of DENSE_DIRECTIONS's table, whichever
        side of the threshold each sits on."""
        rng = np.random.default_rng(dim * 10 + degree)
        width = len(fad.lattice_directions(dim, degree))
        coeffs = rng.standard_normal((dim, width, 7))
        for k in range(1, degree + 1):
            out = {}
            for dense in (10 ** 6, 0):
                monkeypatch.setattr(fad, "DENSE_DIRECTIONS", dense)
                out[dense] = np.empty((dim, math.comb(dim + k - 1, k), 7))
                fad._interpolate(coeffs, dim, degree, k, out[dense])
            assert max_rel_gap(out[0], out[10 ** 6]) <= 1e-13, k
            want = np.einsum("pw,dwc->dpc", fad.interpolation_matrix(dim, degree, k), coeffs)
            assert max_rel_gap(out[0], want) <= 1e-13, k

    def test_monomials_from_int64_products(self):
        """The cold maps' monomials i^a come from int64 products of i's
        entries over the multiset of a; they equal the float powers, so each
        block's map equals, bit for bit, the one built from those, for every
        block that the maps at (D, d) = (8, 6), (5, 4) and (3, 6) read."""
        def float_power_map(dim, degree, k):
            directions = fad.lattice_directions(dim, degree)
            alphas = fad.lattice_directions(dim, k)
            factorials = np.array([math.factorial(j) for j in range(k + 1)])
            multinomial = math.factorial(k) / np.prod(factorials[alphas.astype(int)], axis=1)
            monomials = np.prod(directions[:, None, :] ** alphas[None, :, :], axis=2)
            u, s, vt = np.linalg.svd(monomials * multinomial, full_matrices=False)
            return math.factorial(k) * (vt.T / s) @ u.T

        for dim, degree in ((8, 6), (5, 4), (3, 6)):
            for k in range(1, degree + 1):
                for support in range(1, min(k, dim) + 1):
                    np.testing.assert_array_equal(fad._subspace_inverse(support, degree, k),
                                                  float_power_map(support, degree, k))

    def test_order_range(self):
        for k in (0, 3):
            with pytest.raises(ValueError, match="order"):
                fad.interpolation_matrix(2, 2, k)


def assert_matches_nested(got, want):
    """A pass's (g0, per) of one order against the nested pass's, g0 and
    each row of per (or per itself when it is a row sum) to 1e-12."""
    assert got[0].shape == want[0].shape and got[1].shape == want[1].shape
    assert max_rel_gap(got[0], want[0]) <= 1e-12
    pairs = zip(got[1], want[1]) if got[1].ndim == 3 else [(got[1], want[1])]
    for row, want_row in pairs:
        assert max_rel_gap(row, want_row) <= 1e-12


class TestUnivariatePass:
    """per_datum_tensors, one Taylor pass for every order, against the
    nested multiset pass of each order."""

    @pytest.mark.parametrize("dim", [1, 3, 5, 8])
    @pytest.mark.parametrize("l2", [0.0, 0.3])
    @pytest.mark.parametrize("model_id", ALL_MODELS)
    def test_every_order_from_one_pass(self, model_id, l2, dim):
        """A pass of every degree 1..6 (1..4 at D = 8), per row and summed,
        on both sides of the dense maps' DENSE_DIRECTIONS: at D = 5 degree
        5 has 126 lattice directions and degree 6 has 210, at D = 8 degree
        3 has 120 and degree 4 has 330."""
        top = 4 if dim == 8 else fad.K_MAX
        rng = np.random.default_rng(61 + dim)
        prob = build_problem(model_id, rng, n=7, dim=dim, reg={"l2": l2})
        theta = rng.uniform(-0.5, 0.5, dim)
        w = rng.uniform(0.2, 1.8, prob.n_terms)
        nested = [nested_per_datum_tensor(prob, theta, k) for k in range(top + 1)]
        for degree in range(1, top + 1):
            got = fad.per_datum_tensors(prob, theta, range(degree + 1))
            summed = fad.per_datum_tensors(prob, theta, (), w, summed=range(degree + 1))
            assert sorted(got) == sorted(summed) == list(range(degree + 1))
            for k in range(degree + 1):
                assert_matches_nested(got[k], nested[k])
                assert max_rel_gap(summed[k][0], nested[k][0]) <= 1e-12
                assert max_rel_gap(summed[k][1], np.tensordot(w, got[k][1], axes=1)) <= 1e-12

    def test_term_fn_only_problem(self, monkeypatch):
        """Passes of every degree, per row and summed, with the maps applied
        dense and, with DENSE_DIRECTIONS at 0, through their nonzero blocks."""
        rng = np.random.default_rng(62)
        full = build_problem("logistic_regression", rng, n=7, dim=3, reg={"l2": 0.1})
        prob = EstimatingProblem(full.dim_theta, full.n_terms, full.term_fn)
        theta = rng.uniform(-0.5, 0.5, 3)
        w = rng.uniform(0.2, 1.8, prob.n_terms)
        nested = [nested_per_datum_tensor(prob, theta, k) for k in range(fad.K_MAX + 1)]
        for dense in (fad.DENSE_DIRECTIONS, 0):
            monkeypatch.setattr(fad, "DENSE_DIRECTIONS", dense)
            for degree in range(1, fad.K_MAX + 1):
                got = fad.per_datum_tensors(prob, theta, range(degree + 1))
                summed = fad.per_datum_tensors(prob, theta, (), w, summed=range(degree + 1))
                batched = fad.per_datum_tensors(full, theta, range(degree + 1))
                for k in range(degree + 1):
                    assert_matches_nested(got[k], nested[k])
                    assert max_rel_gap(got[k][1], batched[k][1]) <= 1e-13
                    assert max_rel_gap(summed[k][1],
                                       np.tensordot(w, got[k][1], axes=1)) <= 1e-12

    @pytest.mark.parametrize("model_id", ["exp_loss", "term_fn_only"])
    def test_twelve_element_row_blocks(self, model_id, monkeypatch):
        """Leaves of at most 12 entries: at degree 4 in D = 3 (15 lattice
        directions) one row per block, per row and in weights mode."""
        rng = np.random.default_rng(63)
        prob = build_problem("exp_loss", rng, n=11, dim=3, reg={"l2": 0.2})
        if model_id == "term_fn_only":
            prob = EstimatingProblem(prob.dim_theta, prob.n_terms, prob.term_fn)
        theta = rng.uniform(-0.5, 0.5, 3)
        w = rng.uniform(0.2, 1.8, prob.n_terms)
        monkeypatch.setattr(fad, "BLOCK_ELEMENTS", 12)
        sizes = []
        batch = prob.batch_fn

        def spy(theta_s, rows):
            sizes.append(len(rows))
            return batch(theta_s, rows)

        prob = EstimatingProblem(prob.dim_theta, prob.n_terms, prob.term_fn, batch_fn=spy)
        rows = fad.per_datum_tensors(prob, theta, range(4))
        summed = fad.per_datum_tensors(prob, theta, (), w, summed=range(5))
        assert sizes == [1] * 22
        for k in range(5):
            if k < 4:
                assert_matches_nested(rows[k], nested_per_datum_tensor(prob, theta, k))
            assert_matches_nested(summed[k], nested_per_datum_tensor(prob, theta, k, w))

    def test_weights_mode(self):
        rng = np.random.default_rng(64)
        prob = build_problem("logistic_regression", rng, n=30, dim=4, reg={"l2": 0.3})
        theta = rng.uniform(-0.5, 0.5, 4)
        w = rng.uniform(-1.0, 2.0, prob.n_terms)
        got = fad.per_datum_tensors(prob, theta, (0, 2), w, summed=(1, 3, 5))
        rows = fad.per_datum_tensors(prob, theta, range(6))
        assert sorted(got) == [0, 1, 2, 3, 5]
        for k in sorted(got):
            if k in (1, 3, 5):
                assert got[k][1].shape == (4, math.comb(4 + k - 1, k))
                assert_matches_nested(got[k], nested_per_datum_tensor(prob, theta, k, w))
                assert max_rel_gap(got[k][1], np.tensordot(w, rows[k][1], axes=1)) <= 1e-12
            else:
                assert_matches_nested(got[k], nested_per_datum_tensor(prob, theta, k))
        ones = fad.per_datum_tensors(prob, theta, (), summed=(2,))[2][1]
        assert max_rel_gap(ones, rows[2][1].sum(axis=0)) <= 1e-12

    @pytest.mark.parametrize("model_id", ALL_MODELS)
    def test_order_zero_and_degree_one_unchanged(self, model_id):
        """The primal leaf of a pass of any degree is the nested pass's order
        0 bit for bit, and the degree-1 pass, with no interpolation, is its
        order 1, per row, summed and as the Jacobian."""
        rng = np.random.default_rng(65)
        for reg in (None, {"l2": 0.3}):
            prob = build_problem(model_id, rng, n=50, dim=3, reg=reg)
            theta = rng.uniform(-0.5, 0.5, 3)
            w = rng.uniform(0.2, 1.8, prob.n_terms)
            g0, per = nested_per_datum_tensor(prob, theta, 0)
            for degree in range(fad.K_MAX + 1):
                got = fad.per_datum_tensors(prob, theta, {0, degree})[0]
                np.testing.assert_array_equal(got[0], g0)
                np.testing.assert_array_equal(got[1], per)
            for got, want in ((fad.per_datum_tensors(prob, theta, (1,))[1],
                               nested_per_datum_tensor(prob, theta, 1)),
                              (fad.per_datum_tensors(prob, theta, (), w, summed=(1,))[1],
                               nested_per_datum_tensor(prob, theta, 1, w))):
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])
            np.testing.assert_array_equal(fad.g_theta_tensor(prob, theta, w, 1),
                                          block_loop_g_theta_tensor(prob, theta, w, 1))

    @pytest.mark.parametrize("dense", [True, False])
    def test_rows_written_into_out(self, monkeypatch, dense):
        """With ``out`` a pass writes each per-row order into the arrays an
        earlier call returned and returns those, equal bit for bit to a
        fresh pass's, with the maps applied dense and through their nonzero
        blocks; the summed orders and the g_0 arrays stay new."""
        if not dense:
            monkeypatch.setattr(fad, "DENSE_DIRECTIONS", 0)
        rng = np.random.default_rng(67)
        prob = build_problem("exp_loss", rng, n=30, dim=3, reg={"l2": 0.2})
        first = fad.per_datum_tensors(prob, rng.uniform(-0.5, 0.5, 3), range(4))
        w = rng.uniform(0.2, 1.8, prob.n_terms)
        for theta in rng.uniform(-0.5, 0.5, (3, 3)):
            fresh = fad.per_datum_tensors(prob, theta, range(4))
            got = fad.per_datum_tensors(prob, theta, range(4), out=first)
            for k in range(4):
                assert got[k][1].shape == fresh[k][1].shape
                assert np.shares_memory(got[k][1], first[k][1])
                assert not np.shares_memory(got[k][0], first[k][0])
                np.testing.assert_array_equal(got[k][0], fresh[k][0])
                np.testing.assert_array_equal(got[k][1], fresh[k][1])
            mixed = fad.per_datum_tensors(prob, theta, (0, 1), w, summed=(3,), out=first)
            want = fad.per_datum_tensors(prob, theta, (0, 1), w, summed=(3,))
            assert np.shares_memory(mixed[1][1], first[1][1])
            assert not np.shares_memory(mixed[3][1], first[3][1])
            for k in (0, 1, 3):
                np.testing.assert_array_equal(mixed[k][1], want[k][1])

    def test_out_checked_for_shape(self):
        rng = np.random.default_rng(68)
        prob = build_problem("exp_loss", rng, n=6, dim=2)
        other = build_problem("exp_loss", rng, n=7, dim=2)
        theta = [0.1, -0.2]
        held = fad.per_datum_tensors(prob, theta, (1, 2))
        with pytest.raises(ValueError, match="order 3"):
            fad.per_datum_tensors(prob, theta, (1, 3), out=held)
        with pytest.raises(ValueError, match="order 1"):
            fad.per_datum_tensors(other, theta, (1, 2), out=held)
        copied = {k: (g0, np.ascontiguousarray(rows)) for k, (g0, rows) in held.items()}
        with pytest.raises(ValueError, match="layout"):
            fad.per_datum_tensors(prob, theta, (1, 2), out=copied)

    def test_arguments(self):
        prob = build_problem("exp_loss", np.random.default_rng(66), n=5, dim=2)
        with pytest.raises(ValueError, match="no derivative order"):
            fad.per_datum_tensors(prob, [0.0, 0.0], ())
        with pytest.raises(ValueError, match="both per row and summed"):
            fad.per_datum_tensors(prob, [0.0, 0.0], (1, 2), summed=(2,))
        with pytest.raises(ValueError, match="order"):
            fad.per_datum_tensors(prob, [0.0, 0.0], (fad.K_MAX + 1,))
        with pytest.raises(ValueError, match="weight length"):
            fad.per_datum_tensors(prob, [0.0, 0.0], (), np.ones(4), summed=(1,))


INDEX_MODELS = [m for m in ALL_MODELS if m != "mean"]


def spied_batch_fn(prob, calls):
    """``prob`` with a batch_fn that appends the length of each row block
    it is called on to ``calls``; its index, if any, is kept."""
    batch = prob.batch_fn

    def spy(theta, rows):
        calls.append(len(rows))
        return batch(theta, rows)
    return dataclasses.replace(prob, batch_fn=spy)


class TestIndexPass:
    """The index models' passes of degree >= 2 run on one scalar Taylor
    pass of the residual, with no batch_fn call: against the lattice pass
    of the same problem with its index dropped."""

    @pytest.mark.parametrize("dim", [1, 3, 5, 8])
    @pytest.mark.parametrize("l2", [0.0, 0.3])
    @pytest.mark.parametrize("model_id", INDEX_MODELS)
    def test_matches_the_lattice_pass(self, model_id, l2, dim):
        """Per row, into ``out``, summed with all-ones and with random
        weights, and rows below the degree with the degree's sum, as
        prepare_expansion asks; order 0 bit for bit."""
        rng = np.random.default_rng(71 + dim)
        prob = build_problem(model_id, rng, n=9, dim=dim, reg={"l2": l2})
        lattice = dataclasses.replace(prob, index=None)
        theta = rng.uniform(-0.5, 0.5, dim)
        w = rng.uniform(-1.0, 2.0, prob.n_terms)
        for degree in range(2, fad.K_MAX + 1):
            orders = range(degree + 1)
            first = fad.per_datum_tensors(prob, rng.uniform(-0.5, 0.5, dim), orders)
            for rows, summed, weights, out in ((orders, (), None, None),
                                               (orders, (), None, first),
                                               ((), orders, None, None),
                                               ((), orders, w, None),
                                               (range(degree), (degree,), w, None)):
                got = fad.per_datum_tensors(prob, theta, rows, weights, summed, out)
                want = fad.per_datum_tensors(lattice, theta, rows, weights, summed)
                assert sorted(got) == sorted(want)
                for k in got:
                    for a, b in zip(got[k], want[k]):
                        assert a.shape == b.shape
                        assert max_rel_gap(a, b) <= 1e-13, (degree, k)
                if 0 in rows:
                    assert got[0][1].tobytes() == want[0][1].tobytes()
                if out is not None:
                    assert all(np.shares_memory(got[k][1], out[k][1]) for k in rows)

    @pytest.mark.parametrize("model_id", INDEX_MODELS)
    def test_summed_orders_in_row_blocks(self, model_id, monkeypatch):
        """With BLOCK_ELEMENTS at 12 the summed orders are reduced over many
        spans and sub-blocks of rows, and still match the lattice pass."""
        rng = np.random.default_rng(75)
        prob = build_problem(model_id, rng, n=40, dim=3, reg={"l2": 0.2})
        theta = rng.uniform(-0.5, 0.5, 3)
        w = rng.uniform(0.2, 1.8, prob.n_terms)
        want = fad.per_datum_tensors(dataclasses.replace(prob, index=None), theta, (0, 1), w,
                                     summed=(2, 3, 4))
        monkeypatch.setattr(fad, "BLOCK_ELEMENTS", 12)
        got = fad.per_datum_tensors(prob, theta, (0, 1), w, summed=(2, 3, 4))
        for k in want:
            for a, b in zip(got[k], want[k]):
                assert max_rel_gap(a, b) <= 1e-13, k

    def test_no_batch_fn_call(self):
        """An index model's pass calls batch_fn only at degrees 0 and 1;
        mean and a problem given by term_fn alone call it at every degree."""
        rng = np.random.default_rng(76)
        for model_id in ALL_MODELS + ["term_fn_only"]:
            prob = build_problem("logistic_regression" if model_id == "term_fn_only"
                                 else model_id, rng, n=10, dim=3)
            if model_id == "term_fn_only":
                prob = EstimatingProblem(prob.dim_theta, prob.n_terms, prob.term_fn)
            theta = rng.uniform(-0.5, 0.5, 3)
            for degree in range(fad.K_MAX + 1):
                calls = []
                spied = spied_batch_fn(prob, calls)
                fad.per_datum_tensors(spied, theta, range(degree + 1))
                fad.per_datum_tensors(spied, theta, (), summed=(degree,))
                fad.g_theta_tensor(spied, theta, np.ones(10), degree)
                indexed = prob.index is not None and degree >= 2
                assert (calls == []) is indexed, (model_id, degree)

    def test_overflow_raises(self):
        """exp_loss overflows at a large index: per row and summed, every
        degree raises NonFiniteValueError, and the index pass calls no
        batch_fn on the way."""
        rng = np.random.default_rng(77)
        calls = []
        prob = spied_batch_fn(build_problem("exp_loss", rng, n=6, dim=2), calls)
        for degree in range(2, fad.K_MAX + 1):
            for args, kwargs in (((range(degree + 1),), {}), (((),), {"summed": (degree,)}),
                                 ((range(degree),), {"summed": (degree,)})):
                with pytest.raises(fad.NonFiniteValueError):
                    fad.per_datum_tensors(prob, [2000.0, 2000.0], *args, **kwargs)
        assert calls == []


class TestOneEngine:
    """g_theta_derivative, and g_weight_derivative on the rows of a fresh
    pass, both read off the univariate pass, against the nested order-1
    levels."""

    @pytest.mark.parametrize("dim", [1, 3, 5])
    @pytest.mark.parametrize("l2", [0.0, 0.3])
    @pytest.mark.parametrize("model_id", ALL_MODELS)
    def test_g_theta_derivative_matches_nested(self, model_id, l2, dim):
        """Orders 1..K_MAX (1..4 at D = 5) along random directions."""
        top = 4 if dim == 5 else fad.K_MAX
        rng = np.random.default_rng(71 + dim)
        prob = build_problem(model_id, rng, n=9, dim=dim, reg={"l2": l2})
        theta = rng.uniform(-0.5, 0.5, dim)
        w = rng.uniform(0.2, 1.8, prob.n_terms)
        for k in range(1, top + 1):
            dirs = tuple(rng.standard_normal((k, dim)))
            got = fad.g_theta_derivative(prob, theta, w, dirs)
            assert got.shape == (dim,)
            want = nested_g_theta_derivative(prob, theta, w, dirs)
            assert max_rel_gap(got, want) <= 1e-12, k

    def test_g_theta_derivative_without_directions_is_g(self):
        rng = np.random.default_rng(70)
        prob = build_problem("logistic_regression", rng, n=9, dim=3, reg={"l2": 0.3})
        theta = rng.uniform(-0.5, 0.5, 3)
        w = rng.uniform(0.2, 1.8, prob.n_terms)
        assert max_rel_gap(fad.g_theta_derivative(prob, theta, w, ()),
                           evaluate_g(prob, theta, w)) <= 1e-15

    def test_g_theta_derivative_refuses_a_direction_not_of_shape_d(self):
        prob = build_problem("exp_loss", np.random.default_rng(60), n=6, dim=2)
        with pytest.raises(ValueError, match=r"is not \(2,\)"):
            fad.g_theta_derivative(prob, [0.1, -0.2], np.ones(6), (np.ones((2, 2)),))

    @pytest.mark.parametrize("model_id", ALL_MODELS + ["term_fn_only"])
    def test_g_weight_derivative_matches_nested(self, model_id):
        """Orders 0..K_MAX, on a leave-one-out and a dense weight offset, to
        1e-12 of the summed magnitude of the rows' contributions: at order 6
        the one row of the leave-one-out offset contracts to 4e-5 of it."""
        rng = np.random.default_rng(76)
        prob = build_problem(model_id if model_id in ALL_MODELS else "exp_loss",
                             rng, n=23, dim=3, reg={"l2": 0.3})
        if model_id == "term_fn_only":
            prob = EstimatingProblem(prob.dim_theta, prob.n_terms, prob.term_fn)
        theta = rng.uniform(-0.5, 0.5, 3)
        loo = -np.eye(prob.n_terms)[7]
        dense = rng.uniform(-1.0, 1.0, prob.n_terms)
        for k in range(fad.K_MAX + 1):
            dirs = tuple(rng.standard_normal((k, 3)))
            for delta_w in (loo, dense):
                got = contracted_g_weight_derivative(prob, theta, delta_w, dirs)
                want = nested_g_weight_derivative(prob, theta, delta_w, dirs)
                scale = row_scale(prob, theta, delta_w, dirs)
                assert np.max(np.abs(got - want)) <= 1e-12 * scale, k


def weight_derivative_routes(prob, theta, delta_w, dirs):
    """g_weight_derivative on cached rows, and its nested oracle, for the same
    arguments."""
    k = len(dirs)
    per = fad.per_datum_tensors(prob, theta, (k,))[k][1]
    return (contracted_g_weight_derivative(prob, theta, delta_w, dirs, per),
            nested_g_weight_derivative(prob, theta, delta_w, dirs))


class TestCachedWeightDerivative:
    """The weighted row sum of cached per-datum arrays, applied to
    directions, against the nested pass."""

    @pytest.mark.parametrize("model_id", ALL_MODELS + ["term_fn_only"])
    def test_sparse_and_dense_weights(self, model_id):
        rng = np.random.default_rng(51)
        prob = build_problem(model_id if model_id in ALL_MODELS else "exp_loss",
                             rng, n=70, dim=4, reg={"l2": 0.3})
        if model_id == "term_fn_only":
            prob = EstimatingProblem(prob.dim_theta, prob.n_terms, prob.term_fn)
        theta = rng.uniform(-0.5, 0.5, 4)
        # two of 70 rows: gathered once D * P >= 32, i.e. from order 2
        sparse = np.zeros(prob.n_terms)
        sparse[[1, 56]] = [-1.0, 2.0]
        dense = rng.uniform(-1.0, 1.0, prob.n_terms)
        for j in range(5):  # the weight terms of orders K = j + 1 = 1..5
            dirs = tuple(rng.standard_normal((j, 4)))
            for delta_w in (sparse, dense):
                got, want = weight_derivative_routes(prob, theta, delta_w, dirs)
                assert got.shape == (4,)
                assert max_rel_gap(got, want) <= 1e-12

    def test_rows_in_several_blocks(self, monkeypatch):
        rng = np.random.default_rng(52)
        prob = build_problem("logistic_regression", rng, n=40, dim=2, reg={"l2": 0.2})
        monkeypatch.setattr(fad, "BLOCK_ELEMENTS", 12)
        theta = rng.uniform(-0.5, 0.5, 2)
        delta_w = rng.integers(-1, 3, prob.n_terms).astype(float)
        for j in range(4):
            got, want = weight_derivative_routes(prob, theta, delta_w,
                                                 tuple(rng.standard_normal((j, 2))))
            assert max_rel_gap(got, want) <= 1e-12

    def test_zero_delta_and_non_finite(self):
        rng = np.random.default_rng(53)
        prob = build_problem("exp_loss", rng, n=6, dim=2)
        theta = np.array([0.1, -0.2])
        per = fad.per_datum_tensors(prob, theta, (2,))[2][1]
        np.testing.assert_array_equal(
            fad.g_weight_derivative(prob, theta, np.zeros(6), per), np.zeros((2, 3)))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(fad.NonFiniteValueError, match="weight-direction"):
            fad.g_weight_derivative(prob, theta, np.eye(6)[2] * np.inf, per)

    def test_wrong_shape_rejected(self):
        prob = build_problem("exp_loss", np.random.default_rng(55), n=6, dim=2)
        per = fad.per_datum_tensors(prob, [0.1, -0.2], (2,))[2][1]
        for bad in (per[1:], per[:, :1], per.reshape(6, -1)):
            with pytest.raises(ValueError, match=r"is not of shape \(6, 2, P\)"):
                fad.g_weight_derivative(prob, [0.1, -0.2], np.eye(6)[1], bad)


class TestBlockWeightDerivative:
    """The weighted row sum over multisets, for one weight offset and for a
    (B, N) block, row by row."""

    def test_rows_match_one_weight_routes(self):
        """Each row of the block's sum equals the one-offset sum to 1e-14,
        and applied to directions, the helper's contraction of the
        one-offset sum to 1e-14 and the nested pass to 1e-12."""
        rng = np.random.default_rng(57)
        prob = build_problem("logistic_regression", rng, n=70, dim=4, reg={"l2": 0.3})
        theta = rng.uniform(-0.5, 0.5, 4)
        block = rng.uniform(-1.0, 1.0, (5, 70))
        block[0] = 0.0
        block[1] = np.eye(70)[3]
        block[2, 10:] = 0.0
        for m in range(5):
            per = fad.per_datum_tensors(prob, theta, (m,))[m][1]
            inverse = fad.basis_multisets(4, m)[1]
            got = fad.g_weight_derivative(prob, theta, block, per)
            assert got.shape == (5, 4, per.shape[2])
            for b, dw in enumerate(block):
                one = fad.g_weight_derivative(prob, theta, dw, per)
                assert one.shape == got[b].shape
                assert max_rel_gap(got[b], one) <= 1e-14, (m, b)
                dirs = tuple(rng.standard_normal((m, 4)))
                applied = fad.contract(got[b][:, inverse], dirs)
                cached = contracted_g_weight_derivative(prob, theta, dw, dirs, per)
                nested = nested_g_weight_derivative(prob, theta, dw, dirs)
                assert max_rel_gap(applied, cached) <= 1e-14, (m, b)
                assert max_rel_gap(applied, nested) <= 1e-12, (m, b)

    def test_non_finite_row(self):
        prob = build_problem("exp_loss", np.random.default_rng(59), n=6, dim=2)
        per = fad.per_datum_tensors(prob, [0.1, -0.2], (1,))[1][1]
        block = np.ones((2, 6))
        block[1, 3] = np.inf
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(fad.NonFiniteValueError, match="weight-direction"):
            fad.g_weight_derivative(prob, [0.1, -0.2], block, per)


PROPERTY_PROBLEM = build_problem("logistic_regression", np.random.default_rng(54),
                                 n=10, dim=2, reg={"l2": 0.3})
PROPERTY_THETA = np.array([0.3, -0.4])
WEIGHT_ENTRY = st.one_of(st.just(0.0), st.integers(-1, 3).map(float),
                         st.floats(0.01, 2.0), st.floats(-2.0, -0.01))


def row_scale(prob, theta, delta_w, dirs):
    """The rounding scale of the contraction: |delta_w| against the rows'
    magnitudes contracted with the directions' magnitudes, largest entry.

    A row's contracted value can cancel, so its magnitude may understate
    the terms rounded while it is summed."""
    k = len(dirs)
    per = fad.per_datum_tensors(prob, theta, (k,))[k][1]
    inverse = fad.basis_multisets(prob.dim_theta, k)[1]
    abs_dirs = [np.abs(v) for v in dirs]
    rows = [abs(c) * fad.contract(np.abs(p[:, inverse]), abs_dirs)
            for c, p in zip(delta_w, per)]
    return np.max(np.sum(rows, axis=0)) / prob.n_terms


GATHER_PROBLEM = build_problem("exp_loss", np.random.default_rng(56), n=70, dim=4,
                               reg={"l2": 0.3})


@settings(max_examples=40, deadline=None)
@example(changed={62: 1.0}, order=3, seed=748)
@given(changed=st.dictionaries(st.integers(0, 69), WEIGHT_ENTRY.filter(bool),
                               min_size=1, max_size=2),
       order=st.integers(2, 3), seed=st.integers(0, 2 ** 16))
def test_gathered_contraction_property(changed, order, seed):
    """One or two changed rows of 70 at D * P >= 32, so the cached route
    gathers them: it equals the nested pass over the same rows."""
    delta_w = np.zeros(70)
    delta_w[list(changed)] = list(changed.values())
    dirs = tuple(np.random.default_rng(seed).standard_normal((order, 4)))
    prob, theta = GATHER_PROBLEM, np.full(4, 0.1)
    got, want = weight_derivative_routes(prob, theta, delta_w, dirs)
    assert np.max(np.abs(got - want)) <= 1e-12 * row_scale(prob, theta, delta_w, dirs)


@settings(max_examples=60, deadline=None)
@given(delta_w=st.lists(WEIGHT_ENTRY, min_size=10, max_size=10),
       order=st.integers(0, 3), seed=st.integers(0, 2 ** 16))
def test_cached_contraction_property(delta_w, order, seed):
    """Random sparse or dense delta_w: the cached route equals the nested
    pass, to 1e-12 of the summed magnitude of the rows' contributions."""
    prob, theta = PROPERTY_PROBLEM, PROPERTY_THETA
    delta_w = np.array(delta_w)
    dirs = tuple(np.random.default_rng(seed).standard_normal((order, 2)))
    got, want = weight_derivative_routes(prob, theta, delta_w, dirs)
    assert np.max(np.abs(got - want)) <= 1e-12 * row_scale(prob, theta, delta_w, dirs)
