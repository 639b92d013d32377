"""Forward-mode AD engine: Taylor arithmetic and directional derivatives."""

import math

import numpy as np
import pytest

from hoij import forward_ad as fad
from hoij.forward_ad import TaylorScalar, directional_derivative

import itertools

from hoij import EstimatingProblem

from helpers import (
    ALL_MODELS,
    FD_STEP,
    build_problem,
    max_rel_gap,
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
        with np.errstate(divide="ignore"), \
                pytest.raises(fad.NonFiniteValueError, match="division by zero"):
            directional_derivative(f, [0.0], [[1.0]])


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
        k0 = fad.g_weight_derivative(prob, [3.0], dw, ())
        assert k0[0] == pytest.approx(0.75, abs=1e-15)
        k1 = fad.g_weight_derivative(prob, [3.0], dw, ([1.0],))
        assert k1[0] == pytest.approx(-0.25, abs=1e-15)

    def test_zero_delta_gives_zero(self):
        rng = np.random.default_rng(9)
        prob = build_problem("exp_loss", rng)
        for k in range(3):
            out = fad.g_weight_derivative(prob, [0.1, -0.2], np.zeros(prob.n_terms),
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
                lhs = fad.g_weight_derivative(prob, theta, w - 1.0, dirs)
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
    """(D, D**k) array from one g_theta_derivative call per ordered basis tuple."""
    eye = np.eye(prob.dim_theta)
    cols = [fad.g_theta_derivative(prob, theta, w, [eye[j] for j in tup])
            for tup in itertools.product(range(prob.dim_theta), repeat=k)]
    return np.column_stack(cols)


class TestDerivativeTensor:
    """g_theta_tensor against per-tuple directional derivatives."""

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
    g0, per = fad.per_datum_tensor(prob, theta, k)
    width = math.comb(prob.dim_theta + k - 1, k)
    assert g0.shape == (prob.dim_theta, width)
    assert per.shape == (prob.n_terms, prob.dim_theta, width)
    inverse = fad.basis_multisets(prob.dim_theta, k)[1]
    assert max_rel_gap(g0[:, inverse], term_oracle(prob, 0, theta, k)) <= 1e-12
    for r in rows:
        assert max_rel_gap(per[r][:, inverse], term_oracle(prob, r + 1, theta, k)) <= 1e-12
    return g0, per


class TestPerDatumTensor:
    """per_datum_tensor against per-row, per-tuple directional derivatives."""

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
            np.testing.assert_allclose(per, fad.per_datum_tensor(full, theta, k)[1],
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
            g0, per = fad.per_datum_tensor(prob, theta, k)
            summed = (g0 + np.tensordot(w, per, axes=1)) / prob.n_terms
            inverse = fad.basis_multisets(3, k)[1]
            assert max_rel_gap(summed[:, inverse],
                               fad.g_theta_tensor(prob, theta, w, k)) <= 1e-12

    def test_non_finite_and_order_range(self):
        rng = np.random.default_rng(45)
        prob = build_problem("exp_loss", rng, n=5, dim=2)
        for k in (0, 2):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(fad.NonFiniteValueError):
                fad.per_datum_tensor(prob, [900.0, 900.0], k)
        with pytest.raises(ValueError, match="order"):
            fad.per_datum_tensor(prob, [0.0, 0.0], fad.K_MAX + 1)
