"""Newton solves, the factorization, and the expansion recursion."""

import tracemalloc

import numpy as np
import pytest

from hoij import (
    Dataset,
    DerivativeTerm,
    EstimatingProblem,
    GeneratorConfig,
    SingularHessianError,
    SolveConfig,
    SolverError,
    bootstrap_weights,
    evaluate_dtheta,
    evaluate_g,
    evaluate_theta_ij,
    exact_refit,
    factorize_hessian,
    kfold_weights,
    leave_kappa_out_weights,
    loo_weights,
    make_problem,
    solve_base,
    term_tables,
)

from hoij import expansion, resampling
from hoij import forward_ad as fad
from hoij.forward_ad import NonFiniteValueError
from hoij.terms import build_term_tables

from helpers import (
    ALL_MODELS,
    block_loop_g_theta_tensor,
    build_problem,
    evaluate_term,
    fd_nth_scalar,
    max_rel_gap,
    mean_dataset_1236,
    nested_per_datum_tensor,
    rel_err,
)


@pytest.fixture
def mean_setup():
    prob = make_problem("mean", mean_dataset_1236())
    theta_hat = solve_base(prob)
    hfac = factorize_hessian(prob, theta_hat)
    return prob, theta_hat, hfac


class TestSolveBase:
    def test_mean_exact_in_one_step(self, mean_setup):
        prob, theta_hat, _ = mean_setup
        assert theta_hat[0] == 3.0

    def test_weighted_mean(self, mean_setup):
        prob, _, _ = mean_setup
        out = solve_base(prob, np.array([1.0, 1.0, 1.0, 0.0]))
        assert out[0] == pytest.approx(2.0, abs=1e-12)

    def test_zero_residual_regression(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((20, 3))
        beta = np.array([1.0, -2.0, 0.5])
        prob = make_problem("linear_regression", Dataset(x, x @ beta))
        out = solve_base(prob)
        np.testing.assert_allclose(out, beta, atol=1e-10)

    def test_max_iter_reported(self):
        # nonlinear problem, one iteration from theta = 5, unreachable tolerance
        prob = make_problem("exp_loss", Dataset(np.array([[-1.0], [2.0]])))
        with pytest.raises(SolverError, match="no convergence") as exc:
            exact_refit(prob, np.ones(2), np.array([5.0]),
                        SolveConfig(max_iter=1, tol_grad=1e-15))
        assert exc.value.iterate is not None


class TestFactorize:
    def test_mean_hessian_is_one(self, mean_setup):
        _, _, hfac = mean_setup
        np.testing.assert_allclose(hfac.matrix, [[1.0]])
        assert hfac.solve(np.array([2.0]))[0] == 2.0
        assert hfac.cond_estimate == pytest.approx(1.0)

    def test_linear_regression_hessian(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((15, 2))
        prob = make_problem("linear_regression", Dataset(x, rng.standard_normal(15)))
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        np.testing.assert_allclose(hfac.matrix, x.T @ x / 15, rtol=1e-12)
        np.testing.assert_allclose(hfac.matrix, hfac.matrix.T, rtol=1e-12)
        assert np.all(np.linalg.eigvalsh(hfac.matrix) > 0)

    def test_rank_deficient_rejected(self):
        x = np.column_stack([np.ones(8), np.ones(8)])  # duplicate column
        prob = make_problem("linear_regression", Dataset(x, np.ones(8)))
        theta_hat = np.array([0.5, 0.5])
        with pytest.raises(SingularHessianError, match="positive definite"):
            factorize_hessian(prob, theta_hat)

    def test_solve_accuracy(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((30, 4))
        prob = make_problem("linear_regression", Dataset(x, rng.standard_normal(30)))
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        b = rng.standard_normal(4)
        sol = hfac.solve(b)
        assert np.linalg.norm(hfac.matrix @ sol - b) <= 1e-10 * (1 + np.linalg.norm(b))


class TestEvaluateTerm:
    def test_weight_term_is_gw(self, mean_setup):
        prob, theta_hat, _ = mean_setup
        dw = np.array([0.0, 0.0, 0.0, -1.0])
        out = evaluate_term(prob, theta_hat, DerivativeTerm(1, (), 1), {}, dw)
        assert out[0] == pytest.approx(0.75, abs=1e-15)

    def test_first_order_weight_term(self, mean_setup):
        prob, theta_hat, _ = mean_setup
        dw = np.array([0.0, 0.0, 0.0, -1.0])
        dset = {1: np.array([-0.75])}
        out = evaluate_term(prob, theta_hat, DerivativeTerm(1, (1,), 1), dset, dw)
        assert out[0] == pytest.approx(0.1875, abs=1e-15)

    def test_zero_delta_weight_term(self, mean_setup):
        prob, theta_hat, _ = mean_setup
        out = evaluate_term(prob, theta_hat, DerivativeTerm(1, (), 1), {},
                            np.zeros(4))
        np.testing.assert_array_equal(out, [0.0])

    def test_missing_derivative_reported(self, mean_setup):
        prob, theta_hat, _ = mean_setup
        with pytest.raises(KeyError, match="order 2"):
            evaluate_term(prob, theta_hat, DerivativeTerm(1, (2,), 0),
                          {1: np.array([0.0])}, np.zeros(4))


class TestEvaluateDTheta:
    def test_first_order_mean(self, mean_setup):
        prob, theta_hat, hfac = mean_setup
        dw = np.array([0.0, 0.0, 0.0, -1.0])
        d1 = evaluate_dtheta(prob, theta_hat, hfac, term_tables(1).for_order(1), {}, dw)
        assert d1[0] == pytest.approx(-0.75, abs=1e-15)

    def test_second_order_mean(self, mean_setup):
        prob, theta_hat, hfac = mean_setup
        dw = np.array([0.0, 0.0, 0.0, -1.0])
        d2 = evaluate_dtheta(prob, theta_hat, hfac, term_tables(2).for_order(2),
                             {1: np.array([-0.75])}, dw)
        assert d2[0] == pytest.approx(-0.375, abs=1e-15)

    def test_zero_delta_all_orders(self, mean_setup):
        prob, theta_hat, hfac = mean_setup
        table = term_tables(3)
        expn = evaluate_theta_ij(prob, theta_hat, hfac, table, np.zeros(4), 3)
        for d in expn.dthetas:
            np.testing.assert_array_equal(d, [0.0])


def term_sum_expansion(prob, theta_hat, hfac, table, delta_w, order):
    """d_1..d_order from evaluate_term over every table term (no cached tensors)."""
    dset = {}
    for k in range(1, order + 1):
        rhs = sum(t.coeff * evaluate_term(prob, theta_hat, t, dset, delta_w)
                  for t in table.for_order(k))
        dset[k] = -hfac.solve(rhs)
    return [dset[k] for k in range(1, order + 1)]


class TestCachedTensorExpansion:
    """evaluate_theta_ij contracts cached per-datum arrays; evaluate_term,
    one nested pass per term, is the oracle."""

    @pytest.mark.parametrize("model_id,dim", [("logistic_regression", 3),
                                              ("exp_loss", 2)])
    def test_matches_term_sum(self, model_id, dim):
        rng = np.random.default_rng(41)
        n = 14
        prob = build_problem(model_id, rng, n=n, dim=dim, reg={"l2": 0.2})
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        weights = (list(loo_weights(n, [2, 9])) + list(kfold_weights(n, 3, seed=1))
                   + list(bootstrap_weights(n, 2, seed=2)))
        for order in range(1, 6):
            table = term_tables(order)
            for w in weights:
                got = evaluate_theta_ij(prob, theta_hat, hfac, table, w.delta, order)
                want = term_sum_expansion(prob, theta_hat, hfac, table, w.delta, order)
                for d_got, d_want in zip(got.dthetas, want):
                    assert max_rel_gap(d_got, d_want) <= 1e-12

    @pytest.mark.parametrize("model_id", ALL_MODELS + ["term_fn_only"])
    @pytest.mark.parametrize("block", [fad.BLOCK_ELEMENTS, 12])
    def test_every_model_and_scheme(self, model_id, block, monkeypatch):
        monkeypatch.setattr(fad, "BLOCK_ELEMENTS", block)
        rng = np.random.default_rng(41)
        n = 14
        prob = build_problem(model_id if model_id in ALL_MODELS else "logistic_regression",
                             rng, n=n, dim=3, reg={"l2": 0.2})
        if model_id == "term_fn_only":
            prob = EstimatingProblem(prob.dim_theta, prob.n_terms, prob.term_fn)
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        weights = (list(loo_weights(n, [2, 9])) + list(kfold_weights(n, 3, seed=1))
                   + list(leave_kappa_out_weights(n, 3, seed=4, count=2))
                   + list(bootstrap_weights(n, 2, seed=2)))
        for order in range(1, 6):
            table = term_tables(order)
            for w in weights:
                got = evaluate_theta_ij(prob, theta_hat, hfac, table, w.delta, order)
                want = term_sum_expansion(prob, theta_hat, hfac, table, w.delta, order)
                for d_got, d_want in zip(got.dthetas, want):
                    assert max_rel_gap(d_got, d_want) <= 1e-12

    @pytest.mark.parametrize("model_id", ALL_MODELS)
    def test_tensor_matches_summed_term(self, model_id):
        rng = np.random.default_rng(45)
        prob = build_problem(model_id, rng, n=11, dim=3, reg={"l2": 0.3})
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        hfac.rows(2)  # orders 2 and 3 reach tensor() with and without cached rows
        for k in range(1, 6):
            dset = {j: rng.standard_normal(3) for j in range(1, k + 1)}
            term = DerivativeTerm(1, tuple(range(1, k + 1)), 0)
            want = evaluate_term(prob, theta_hat, term, dset, np.zeros(prob.n_terms))
            got = fad.contract(hfac.tensor(k), [dset[j] for j in term.kset])
            assert max_rel_gap(got, want) <= 1e-12
        assert max_rel_gap(hfac.tensor(1), hfac.matrix) <= 1e-12

    def test_no_forward_pass_per_weight(self, monkeypatch):
        rng = np.random.default_rng(46)
        prob = build_problem("logistic_regression", rng, n=12, dim=2)
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        passes = []
        per_datum_tensors = fad.per_datum_tensors

        def counting(problem, theta, orders, weights=None, summed=()):
            passes.append((sorted(orders), sorted(summed)))
            return per_datum_tensors(problem, theta, orders, weights, summed)

        def forbidden(*args, **kwargs):
            raise AssertionError("a forward pass ran for a weight vector")

        monkeypatch.setattr(fad, "per_datum_tensors", counting)
        for name in ("per_datum_tensor", "g_theta_tensor", "g_theta_derivative"):
            monkeypatch.setattr(fad, name, forbidden)
        table = term_tables(3)
        for w in list(loo_weights(12)) + list(bootstrap_weights(12, 5, seed=1)):
            evaluate_theta_ij(prob, theta_hat, hfac, table, w.delta, 3)
        # one degree-3 pass: the rows of orders 0..2 and the order-3 sum
        assert passes == [([0, 1, 2], [3])]
        assert sorted(hfac._rows) == [0, 1, 2]

    def test_first_order_builds_no_tensor(self, monkeypatch):
        prob = build_problem("exp_loss", np.random.default_rng(42))
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        evaluate_theta_ij(prob, theta_hat, hfac, term_tables(1),
                          -np.eye(prob.n_terms)[0], 1)
        assert hfac._tensors == {}
        evaluate_theta_ij(prob, theta_hat, hfac, term_tables(3),
                          -np.eye(prob.n_terms)[0], 3)
        assert sorted(hfac._tensors) == [2, 3]

    def test_non_finite_weight_term_raises(self):
        prob = build_problem("exp_loss", np.random.default_rng(47))
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        huge = np.full(prob.dim_theta, 1e200)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteValueError, match="weight-direction"):
            evaluate_dtheta(prob, theta_hat, hfac, [DerivativeTerm(1, (1, 1), 1)],
                            {1: huge}, -np.eye(prob.n_terms)[0])

    def test_non_finite_contraction_raises(self):
        prob = build_problem("exp_loss", np.random.default_rng(43))
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        huge = np.full(prob.dim_theta, 1e200)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteValueError, match="term"):
            evaluate_dtheta(prob, theta_hat, hfac, [DerivativeTerm(1, (1, 1), 0)],
                            {1: huge}, np.zeros(prob.n_terms))

    def test_overflowing_term_sum_raises(self):
        prob = build_problem("exp_loss", np.random.default_rng(48))
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        # the term H d_1 is finite, ten times it is not
        d1 = np.full(prob.dim_theta, 1e308)
        assert np.all(np.isfinite(fad.contract(hfac.tensor(1), [d1])))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteValueError, match="Hessian system"):
            evaluate_dtheta(prob, theta_hat, hfac, [DerivativeTerm(10, (1,), 0)],
                            {1: d1}, np.zeros(prob.n_terms))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_solve_rejects_non_finite(self, bad):
        """Every caller of the factor's solve, not only the expansion, gets
        the error rather than a quiet NaN or infinity."""
        prob = build_problem("exp_loss", np.random.default_rng(49))
        hfac = factorize_hessian(prob, solve_base(prob))
        b = np.ones(prob.dim_theta)
        b[0] = bad
        with pytest.raises(NonFiniteValueError, match="Hessian system"):
            hfac.solve(b)
        with pytest.raises(NonFiniteValueError, match="Hessian system"):
            hfac.solve(np.column_stack([np.ones(prob.dim_theta), b]))

    def test_other_theta_hat_rejected(self):
        prob = build_problem("exp_loss", np.random.default_rng(44))
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        with pytest.raises(ValueError, match="Hessian factor"):
            evaluate_dtheta(prob, theta_hat + 1e-9, hfac, term_tables(1).for_order(1),
                            {}, np.zeros(prob.n_terms))


class TestEvaluateThetaIJ:
    def test_mean_loo_partial_sums(self, mean_setup):
        prob, theta_hat, hfac = mean_setup
        dw = np.array([0.0, 0.0, 0.0, -1.0])
        expn = evaluate_theta_ij(prob, theta_hat, hfac, term_tables(3), dw, 3)
        assert expn.partial_sum(0)[0] == pytest.approx(3.0, abs=1e-12)
        assert expn.partial_sum(1)[0] == pytest.approx(2.25, abs=1e-12)
        assert expn.partial_sum(2)[0] == pytest.approx(2.0625, abs=1e-12)
        assert expn.partial_sum(3)[0] == pytest.approx(2.015625, abs=1e-12)

    def test_unit_weights_keep_base(self, mean_setup):
        prob, theta_hat, hfac = mean_setup
        expn = evaluate_theta_ij(prob, theta_hat, hfac, term_tables(4), np.zeros(4), 4)
        np.testing.assert_array_equal(expn.theta_ij, theta_hat)

    def test_homogeneity_in_delta(self):
        """Replacing delta_w by c * delta_w scales the order-k coefficient by c^k."""
        rng = np.random.default_rng(15)
        x = rng.uniform(-1, 1, (10, 2))
        prob = make_problem("exp_loss", Dataset(x))
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        table = term_tables(3)
        dw = rng.uniform(-0.5, 0.5, 10)
        base = evaluate_theta_ij(prob, theta_hat, hfac, table, dw, 3)
        scaled = evaluate_theta_ij(prob, theta_hat, hfac, table, 2.0 * dw, 3)
        for k in range(1, 4):
            np.testing.assert_allclose(
                scaled.dthetas[k - 1], 2.0 ** k * base.dthetas[k - 1], rtol=1e-13
            )

    def test_single_factorization(self, mean_setup, monkeypatch):
        """The expansion loop must not factorize anything new."""
        prob, theta_hat, hfac = mean_setup
        calls = {"lu": 0, "solve": 0}
        import scipy.linalg as sla
        orig_lu, orig_solve = sla.lu_factor, sla.solve

        monkeypatch.setattr(sla, "lu_factor",
                            lambda *a, **k: calls.__setitem__("lu", calls["lu"] + 1) or orig_lu(*a, **k))
        monkeypatch.setattr(sla, "solve",
                            lambda *a, **k: calls.__setitem__("solve", calls["solve"] + 1) or orig_solve(*a, **k))
        evaluate_theta_ij(prob, theta_hat, hfac, term_tables(4),
                          np.array([0.0, 0.0, 0.0, -1.0]), 4)
        assert calls == {"lu": 0, "solve": 0}

    def test_order_beyond_table(self, mean_setup):
        prob, theta_hat, hfac = mean_setup
        with pytest.raises(ValueError, match="exceeds table"):
            evaluate_theta_ij(prob, theta_hat, hfac, term_tables(2), np.zeros(4), 3)


class TestBlockExpansion:
    """A (B, N) block of weight offsets against B one-weight calls."""

    @staticmethod
    def _blocks(n):
        """LOO, k-fold, leave-kappa-out and bootstrap blocks of offsets w - 1."""
        streams = {"loo": loo_weights(n, [1, 17, n]), "kfold": kfold_weights(n, 5, seed=1),
                   "kappa": leave_kappa_out_weights(n, 3, seed=2, count=4),
                   "bootstrap": bootstrap_weights(n, 6, seed=3)}
        return {name: np.array([w.delta for w in ws]) for name, ws in streams.items()}

    @pytest.mark.parametrize("l2", [0.0, 0.3])
    @pytest.mark.parametrize("model_id", ALL_MODELS)
    def test_matches_one_weight_calls(self, model_id, l2):
        """Every coefficient and partial sum of every row, to 1e-14 of the
        row's largest entry, at orders 1..5 and every scheme."""
        n = 40
        prob = build_problem(model_id, np.random.default_rng(8), n=n, dim=3,
                             reg={"l2": l2} if l2 else None)
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        table = term_tables(5)
        for scheme, block in self._blocks(n).items():
            for order in range(1, 6):
                got = evaluate_theta_ij(prob, theta_hat, hfac, table, block, order)
                assert got.theta_ij.shape == (len(block), 3)
                for b, dw in enumerate(block):
                    want = evaluate_theta_ij(prob, theta_hat, hfac, table, dw, order)
                    for k in range(order):
                        assert max_rel_gap(got.dthetas[k][b], want.dthetas[k]) <= 1e-14, \
                            (scheme, order, k + 1, b)
                    for k in range(order + 1):
                        assert max_rel_gap(got.partial_sum(k)[b], want.partial_sum(k)) <= 1e-14

    def test_one_row_block(self):
        prob = build_problem("logistic_regression", np.random.default_rng(9), n=30, dim=3,
                             reg={"l2": 0.2})
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        dw = next(bootstrap_weights(30, 1, seed=4)).delta
        got = evaluate_theta_ij(prob, theta_hat, hfac, term_tables(4), dw[None], 4)
        want = evaluate_theta_ij(prob, theta_hat, hfac, term_tables(4), dw, 4)
        assert [d.shape for d in got.dthetas] == [(1, 3)] * 4
        assert got.partial_sum(0).shape == (1, 3)
        for k in range(5):
            assert max_rel_gap(got.partial_sum(k)[0], want.partial_sum(k)) <= 1e-14

    def test_one_weight_keeps_vector_shapes(self, mean_setup):
        prob, theta_hat, hfac = mean_setup
        expn = evaluate_theta_ij(prob, theta_hat, hfac, term_tables(3),
                                 np.array([0.0, 0.0, 0.0, -1.0]), 3)
        assert [d.shape for d in expn.dthetas] == [(1,)] * 3
        assert [expn.partial_sum(k).shape for k in range(4)] == [(1,)] * 4

    def test_non_finite_row_raises(self):
        """One row that overflows fails the whole block, as it fails alone."""
        prob = build_problem("exp_loss", np.random.default_rng(10), n=20, dim=2)
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        block = np.array([w.delta for w in bootstrap_weights(20, 4, seed=5)])
        block[2] = 1e308
        table = term_tables(3)
        evaluate_theta_ij(prob, theta_hat, hfac, table, block[[0, 1, 3]], 3)
        with np.errstate(over="ignore", invalid="ignore"):
            for dw in (block[2], block):
                with pytest.raises(NonFiniteValueError):
                    evaluate_theta_ij(prob, theta_hat, hfac, table, dw, 3)

    def test_theta_hat_checked_once_per_call(self, mean_setup, monkeypatch):
        prob, theta_hat, hfac = mean_setup
        calls = []
        real = np.array_equal
        monkeypatch.setattr(np, "array_equal", lambda *a: calls.append(1) or real(*a))
        evaluate_theta_ij(prob, theta_hat.copy(), hfac, term_tables(4), -np.eye(4)[:2], 4)
        assert len(calls) == 1
        with pytest.raises(ValueError, match="Hessian factor"):
            evaluate_theta_ij(prob, theta_hat + 1e-9, hfac, term_tables(1), np.zeros(4), 1)


def nested_oracle_expansion(prob, theta_hat, table, delta_w, order):
    """d_1..d_order from the nested per-datum arrays of the test helpers,
    with no univariate pass and no plan: a weight-direction term sums the
    nested rows against delta_w, any other term contracts the block-loop
    tensor, and each order solves against the block-loop Jacobian."""
    dim, n = prob.dim_theta, prob.n_terms
    ones = np.ones(n)
    rows = {m: nested_per_datum_tensor(prob, theta_hat, m)[1] for m in range(order)}
    tensors = {m: block_loop_g_theta_tensor(prob, theta_hat, ones, m)
               for m in range(1, order + 1)}
    dset = {}
    for k in range(1, order + 1):
        rhs = np.zeros(dim)
        for t in table.for_order(k):
            m = len(t.kset)
            if t.omega:
                value = (delta_w @ rows[m].reshape(n, -1)).reshape(dim, -1) / n
                value = value[:, fad.basis_multisets(dim, m)[1]]
            else:
                value = tensors[m]
            for j in t.kset:
                value = value.reshape(-1, dim) @ dset[j]
            rhs += t.coeff * value.reshape(dim)
        dset[k] = -np.linalg.solve(tensors[1], rhs)
    return [dset[k] for k in range(1, order + 1)]


class TestPlan:
    """Every expansion runs from the term table compiled once per factor,
    table and order against the factor's cached arrays."""

    @pytest.mark.parametrize("model_id", ALL_MODELS)
    def test_single_weights_match_nested_oracle(self, model_id):
        n = 14
        prob = build_problem(model_id, np.random.default_rng(51), n=n, dim=3,
                             reg={"l2": 0.2})
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        weights = (list(loo_weights(n, [3, 11])) + list(kfold_weights(n, 4, seed=2))[:2]
                   + list(bootstrap_weights(n, 2, seed=3)))
        for order in range(1, 6):
            table = term_tables(order)
            for w in weights:
                got = evaluate_theta_ij(prob, theta_hat, hfac, table, w.delta, order)
                want = nested_oracle_expansion(prob, theta_hat, table, w.delta, order)
                for k, (d_got, d_want) in enumerate(zip(got.dthetas, want), 1):
                    assert max_rel_gap(d_got, d_want) <= 1e-12, (order, k, w.label)

    def test_compiled_once_per_table_and_order(self, monkeypatch):
        n = 20
        prob = build_problem("logistic_regression", np.random.default_rng(52), n=n, dim=3,
                             reg={"l2": 0.2})
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        compiled, passes = [], []
        compile_, per_datum_tensors = expansion.HessianFactor.compile, fad.per_datum_tensors

        def counting_compile(self, order_terms):
            compiled.append(len(order_terms))
            return compile_(self, order_terms)

        def counting_pass(*args, **kwargs):
            passes.append(1)
            return per_datum_tensors(*args, **kwargs)

        monkeypatch.setattr(expansion.HessianFactor, "compile", counting_compile)
        monkeypatch.setattr(fad, "per_datum_tensors", counting_pass)
        table = term_tables(3)
        weights = list(loo_weights(n)) + list(bootstrap_weights(n, 30, seed=1))
        singles = [evaluate_theta_ij(prob, theta_hat, hfac, table, w.delta, 3)
                   for w in weights]
        assert len(weights) == 50
        assert compiled == [len(table.for_order(k)) for k in (1, 2, 3)]
        assert len(passes) == 1
        # a block runs the same plan, and row b is weight b's expansion
        block = evaluate_theta_ij(prob, theta_hat, hfac, table,
                                  np.array([w.delta for w in weights]), 3)
        assert len(compiled) == 3
        for b, one in enumerate(singles):
            for k in range(3):
                assert max_rel_gap(block.dthetas[k][b], one.dthetas[k]) <= 1e-14
        # another table object, equal or not, and another order each get a plan
        evaluate_theta_ij(prob, theta_hat, hfac, build_term_tables(3), weights[0].delta, 3)
        evaluate_theta_ij(prob, theta_hat, hfac, table, weights[0].delta, 2)
        assert len(compiled) == 3 + 3 + 2
        assert len(passes) == 1

    def test_nan_in_cached_tensor_raises(self):
        n = 20
        prob = build_problem("logistic_regression", np.random.default_rng(53), n=n, dim=3)
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        table = term_tables(3)
        dw = next(loo_weights(n, [4])).delta
        evaluate_theta_ij(prob, theta_hat, hfac, table, dw, 3)
        hfac.tensor(2)[1, 2] = np.nan  # the array the compiled plan holds
        for delta in (dw, np.array([dw, dw])):
            with pytest.raises(NonFiniteValueError, match="non-finite contraction for term"):
                evaluate_theta_ij(prob, theta_hat, hfac, table, delta, 3)

    def test_nan_in_cached_tensor_is_the_cv_expand_error(self, monkeypatch):
        n = 20
        prob = build_problem("logistic_regression", np.random.default_rng(53), n=n, dim=3)
        factorize = resampling.factorize_hessian

        def planted(problem, theta_hat):
            hfac = factorize(problem, theta_hat)
            hfac.prepare_expansion(3)
            hfac.tensor(2)[1, 2] = np.nan
            return hfac

        monkeypatch.setattr(resampling, "factorize_hessian", planted)
        report = resampling.run_cv(prob, loo_weights(n, [4, 9]), 3)
        for o in report.outcomes:
            assert o.expand_error.startswith("non-finite contraction for term")
            assert o.theta_ij is None and o.errors is None
            assert o.refit_error is None and np.isfinite(o.theta_exact).all()

    def test_one_loo_weight_makes_the_traced_calls(self, monkeypatch):
        """The calls the bench's traced loo_cv run checks, made by ``run_cv``
        for one LOO weight at order 3: four ``g_weight_derivative`` calls,
        each with one nonzero in delta_w (its third positional argument),
        and one ``evaluate_dtheta`` call per order, whose fifth positional
        argument, the derivative set, holds the orders below it."""
        nonzeros, orders = [], []
        weight_derivative, dtheta = fad.g_weight_derivative, expansion.evaluate_dtheta

        def counting_weight_derivative(*args, **kwargs):
            nonzeros.append(int(np.count_nonzero(args[2])))
            return weight_derivative(*args, **kwargs)

        def counting_dtheta(*args, **kwargs):
            orders.append(len(args[4]) + 1)
            return dtheta(*args, **kwargs)

        monkeypatch.setattr(fad, "g_weight_derivative", counting_weight_derivative)
        monkeypatch.setattr(expansion, "evaluate_dtheta", counting_dtheta)
        prob = build_problem("logistic_regression", np.random.default_rng(54), n=30, dim=3)
        report = resampling.run_cv(prob, loo_weights(30, [7]), 3)
        assert report.outcomes[0].expand_error is None
        assert nonzeros == [1, 1, 1, 1]
        assert orders == [1, 2, 3]


class TestExactRefit:
    def test_mean_loo(self, mean_setup):
        prob, theta_hat, _ = mean_setup
        w = next(iter(loo_weights(4, [4])))
        out = exact_refit(prob, w, theta_hat)
        assert out[0] == pytest.approx(2.0, abs=1e-12)

    def test_unit_weights_fixed_point(self, mean_setup):
        prob, theta_hat, _ = mean_setup
        np.testing.assert_allclose(exact_refit(prob, np.ones(4), theta_hat),
                                   theta_hat, atol=1e-12)

    def test_matches_weighted_normal_equations(self):
        """LOO re-fit equals the closed-form weighted least-squares solve."""
        rng = np.random.default_rng(8)
        x = rng.standard_normal((12, 2))
        y = x @ np.array([0.5, -1.0]) + 0.2 * rng.standard_normal(12)
        prob = make_problem("linear_regression", Dataset(x, y))
        theta_hat = solve_base(prob)
        for w in loo_weights(12, [1, 5, 12]):
            got = exact_refit(prob, w, theta_hat)
            wv = w.values
            closed = np.linalg.solve((x * wv[:, None]).T @ x, (x * wv[:, None]).T @ y)
            np.testing.assert_allclose(got, closed, atol=1e-10)

    @staticmethod
    def _logistic(n=400, dim=3, seed=21):
        data = GeneratorConfig(n_features=dim).generate(
            "logistic_regression", n, np.random.default_rng(seed))
        prob = make_problem("logistic_regression", data)
        return prob, solve_base(prob)

    def test_start_at_rounding_floor_is_kept(self, mean_setup):
        """The forced first step may not lower ||G|| at the root: no SolverError."""
        prob, theta_hat, _ = mean_setup
        assert exact_refit(prob, np.ones(4), theta_hat, start=theta_hat)[0] == 3.0
        prob, theta_hat = self._logistic()
        ones = np.ones(prob.n_terms)
        polished = exact_refit(prob, ones, theta_hat, start=theta_hat)
        np.testing.assert_allclose(polished, theta_hat, rtol=0, atol=1e-9)
        again = exact_refit(prob, ones, theta_hat, start=polished)
        np.testing.assert_allclose(again, polished, rtol=0, atol=1e-15)

    def test_start_costs_one_newton_step(self, monkeypatch):
        """From the order-3 expansion: one Jacobian, two G evaluations."""
        from hoij import expansion

        prob, theta_hat = self._logistic()
        hfac = factorize_hessian(prob, theta_hat)
        w = next(iter(loo_weights(prob.n_terms, [7])))
        start = evaluate_theta_ij(prob, theta_hat, hfac, term_tables(3), w.delta, 3).theta_ij
        calls = {"jacobian": 0, "g": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(expansion, "assemble_jacobian",
                            counted("jacobian", expansion.assemble_jacobian))
        monkeypatch.setattr(expansion, "evaluate_g", counted("g", expansion.evaluate_g))
        got = exact_refit(prob, w, theta_hat, start=start)
        assert calls == {"jacobian": 1, "g": 2}
        assert not np.array_equal(got, start)
        np.testing.assert_allclose(got, exact_refit(prob, w, theta_hat), rtol=0, atol=1e-8)

    def test_start_above_residual_ceiling_refits_from_theta_hat(self):
        prob, theta_hat = self._logistic()
        w = next(iter(loo_weights(prob.n_terms, [3])))
        ceiling = float(np.linalg.norm(evaluate_g(prob, theta_hat, w)))
        far = theta_hat + 0.5
        assert np.linalg.norm(evaluate_g(prob, far, w)) >= ceiling
        want = exact_refit(prob, w, theta_hat)
        got = exact_refit(prob, w, theta_hat, start=far, max_start_residual=ceiling)
        assert got.tobytes() == want.tobytes()

    def test_non_finite_start_refits_from_theta_hat(self):
        prob = make_problem("exp_loss", Dataset(np.array([[-1.0], [2.0], [0.5]])))
        theta_hat = solve_base(prob)
        w = np.array([1.0, 0.5, 1.0])
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteValueError):
                evaluate_g(prob, np.array([1e6]), w)
            got = exact_refit(prob, w, theta_hat, start=np.array([1e6]))
        assert got.tobytes() == exact_refit(prob, w, theta_hat).tobytes()


def _polished(prob, w, theta, steps=3):
    """theta after ``steps`` undamped Newton steps at weights w."""
    for _ in range(steps):
        h = expansion.assemble_jacobian(prob, theta, w)
        theta = theta - np.linalg.solve(h, evaluate_g(prob, theta, w))
    return theta


def _ceiling(prob, theta_hat, w):
    return float(np.linalg.norm(evaluate_g(prob, theta_hat, w)))


class TestRefitBlock:
    """The chord block re-fit against exact_refit from the same start."""

    @staticmethod
    def _recording_fallbacks(monkeypatch):
        seen = []
        real = expansion.exact_refit

        def recording(prob, w, *args, **kwargs):
            seen.append(id(w))
            return real(prob, w, *args, **kwargs)

        monkeypatch.setattr(expansion, "exact_refit", recording)
        return seen

    @staticmethod
    def _weights(n):
        return (list(loo_weights(n, [1, 17, n]))
                + list(kfold_weights(n, 5, seed=1))[:2]
                + list(leave_kappa_out_weights(n, 3, seed=2, count=2))
                + list(bootstrap_weights(n, 2, seed=3)))

    @pytest.mark.parametrize("l2", [0.0, 0.3])
    @pytest.mark.parametrize("model_id", ALL_MODELS)
    def test_matches_exact_refit(self, model_id, l2, monkeypatch):
        """Chord roots within 1e-13 of exact_refit's (polished); fallbacks
        bit-identical to it; at every order 0..5 and every scheme."""
        n = 150
        prob = build_problem(model_id, np.random.default_rng(7), n=n, dim=2,
                             reg={"l2": l2} if l2 else None)
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        weights = self._weights(n)
        seen = self._recording_fallbacks(monkeypatch)
        chord = 0
        for order in range(6):
            starts = [evaluate_theta_ij(prob, theta_hat, hfac, term_tables(max(order, 1)),
                                        w.delta, order).theta_ij for w in weights]
            seen.clear()
            got = expansion.refit_block(prob, hfac, weights, starts)
            for w, start, root in zip(weights, starts, got):
                want = exact_refit(prob, w, theta_hat, start=start,
                                   max_start_residual=_ceiling(prob, theta_hat, w))
                if id(w) in seen:
                    assert root.tobytes() == want.tobytes(), (order, w.label)
                else:
                    chord += 1
                    gap = np.max(np.abs(root - _polished(prob, w.values, want)))
                    assert gap <= 1e-13, (order, w.label, gap)
        assert chord >= 4 * len(weights)

    def test_no_forward_pass_and_few_g_evaluations(self, monkeypatch):
        """From order-3 expansions: every weight by the chord, with the
        derivatives cached at theta_hat, and one step for most weights."""
        data = GeneratorConfig(n_features=3).generate(
            "logistic_regression", 600, np.random.default_rng(21))
        prob = make_problem("logistic_regression", data)
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        weights = list(loo_weights(600, range(1, 600, 9)))
        starts = [evaluate_theta_ij(prob, theta_hat, hfac, term_tables(3), w.delta, 3).theta_ij
                  for w in weights]
        calls = []
        real = expansion.evaluate_g_block

        def counted(*args):
            calls.append(len(args[2]))
            return real(*args)

        def forbidden(*args, **kwargs):
            raise AssertionError("forward pass during the block re-fit")

        monkeypatch.setattr(expansion, "evaluate_g_block", counted)
        for name in ("per_datum_tensors", "per_datum_tensor", "g_theta_tensor",
                     "g_theta_derivative"):
            monkeypatch.setattr(fad, name, forbidden)
        seen = self._recording_fallbacks(monkeypatch)
        got = expansion.refit_block(prob, hfac, weights, starts)
        assert seen == [] and calls[:2] == [len(weights)] * 2
        assert sum(calls[2:]) <= len(weights) // 2, calls
        monkeypatch.undo()
        for w, root in zip(weights, got):
            assert np.max(np.abs(root - _polished(prob, w.values, root))) <= 1e-13

    def test_order_zero_starts_take_the_chord(self, monkeypatch):
        """Starts at theta_hat itself, as at order 0, whose residual is the
        ceiling: every weight by the chord, to the rounding floor."""
        data = GeneratorConfig(n_features=5).generate("exp_loss", 400,
                                                      np.random.default_rng(5))
        prob = make_problem("exp_loss", data)
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        weights = list(loo_weights(400))
        seen = self._recording_fallbacks(monkeypatch)
        got = expansion.refit_block(prob, hfac, weights, [theta_hat] * len(weights))
        assert seen == []
        monkeypatch.undo()
        polish = SolveConfig(tol_grad=1e-15)
        for w, root in zip(weights, got):
            want = exact_refit(prob, w, theta_hat, polish, start=root)
            assert max_rel_gap(root, want) <= 1e-13, w.label

    def _logistic_block(self, n=200):
        prob = build_problem("logistic_regression", np.random.default_rng(9), n=n, dim=2)
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        weights = list(loo_weights(n, [2, n // 4, n // 4 + 1, n - 1]))
        starts = [evaluate_theta_ij(prob, theta_hat, hfac, term_tables(3), w.delta, 3).theta_ij
                  for w in weights]
        return prob, theta_hat, hfac, weights, starts

    def _assert_all_fall_back(self, monkeypatch, prob, theta_hat, hfac, weights, starts):
        seen = self._recording_fallbacks(monkeypatch)
        got = expansion.refit_block(prob, hfac, weights, starts)
        assert seen == [id(w) for w in weights]
        for w, start, root in zip(weights, starts, got):
            want = exact_refit(prob, w, theta_hat, start=start,
                               max_start_residual=_ceiling(prob, theta_hat, w))
            assert root.tobytes() == want.tobytes()

    def test_start_above_ceiling_falls_back(self, monkeypatch):
        prob, theta_hat, hfac, weights, _ = self._logistic_block()
        far = [theta_hat + 0.5] * len(weights)
        calls = []
        real = expansion.evaluate_g_block
        monkeypatch.setattr(expansion, "evaluate_g_block",
                            lambda *args: calls.append(1) or real(*args))
        self._assert_all_fall_back(monkeypatch, prob, theta_hat, hfac, weights, far)
        assert calls == [1]  # the starts' residuals, and no chord step
        for w, root in zip(weights, expansion.refit_block(prob, hfac, weights, far)):
            assert root.tobytes() == exact_refit(prob, w, theta_hat).tobytes()

    def test_non_finite_start_falls_back(self, monkeypatch):
        prob = make_problem("exp_loss", Dataset(np.array([[-1.0], [2.0], [0.5]])))
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        weights = [np.array([1.0, 0.5, 1.0]), np.array([1.0, 1.0, 0.5])]
        with np.errstate(over="ignore"):
            self._assert_all_fall_back(monkeypatch, prob, theta_hat, hfac, weights,
                                       [np.array([1e6]), np.array([1e6])])

    @pytest.mark.parametrize("bad", ["negated", "singular"])
    def test_non_contracting_jacobian_falls_back(self, monkeypatch, bad):
        prob, theta_hat, hfac, weights, starts = self._logistic_block()
        real = expansion._chord_jacobians
        monkeypatch.setattr(
            expansion, "_chord_jacobians",
            lambda *args: -real(*args) if bad == "negated" else 0.0 * real(*args))
        self._assert_all_fall_back(monkeypatch, prob, theta_hat, hfac, weights, starts)

    def test_term_fn_only_problem_takes_the_chord(self, monkeypatch):
        """A problem given by term_fn alone re-fits every weight by the chord,
        through its generated batch_fn, with no exact_refit fallback."""
        prob, theta_hat, _, weights, starts = self._logistic_block(n=60)
        scalar = EstimatingProblem(prob.dim_theta, prob.n_terms, prob.term_fn)
        hfac = factorize_hessian(scalar, theta_hat)
        seen = self._recording_fallbacks(monkeypatch)
        got = expansion.refit_block(scalar, hfac, weights, starts)
        assert seen == []
        monkeypatch.undo()
        for w, root in zip(weights, got):
            assert np.max(np.abs(root - _polished(scalar, w.values, root))) <= 1e-13

    def test_fallback_error_is_returned(self):
        # root exists at unit weights but vanishes when datum 2 is dropped
        def term(i, theta):
            if i == 0:
                return [0.0]
            if i == 1:
                return [fad.exp(theta[0])]
            return [-fad.exp(-2.0 * theta[0])]

        def batch(theta, rows):
            first = (rows == 0).astype(float)
            return [first * fad.exp(theta[0]) - (1.0 - first) * fad.exp(-2.0 * theta[0])]

        prob = EstimatingProblem(1, 2, term, batch_fn=batch)
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        (got,) = expansion.refit_block(prob, hfac, [np.array([1.0, 0.0])], [theta_hat],
                                       SolveConfig(max_iter=12))
        assert isinstance(got, SolverError)

    def test_g_block_memory_flat_in_n(self):
        """One block's G evaluation peaks alike at N = 2 000 and 32 000."""
        peaks = []
        for n in (2000, 32000):
            data = GeneratorConfig(n_features=3).generate(
                "logistic_regression", n, np.random.default_rng(1))
            prob = make_problem("logistic_regression", data)
            thetas = np.random.default_rng(2).normal(size=(64, 3))
            weights = np.ones((64, n))
            expansion.evaluate_g_block(prob, thetas, weights)
            tracemalloc.start()
            expansion.evaluate_g_block(prob, thetas, weights)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0], peaks

    @pytest.mark.parametrize("model_id", ALL_MODELS)
    def test_g_block_matches_evaluate_g(self, model_id, monkeypatch):
        monkeypatch.setattr(expansion, "REFIT_LEAF_ELEMENTS", 7)
        rng = np.random.default_rng(4)
        prob = build_problem(model_id, rng, n=23, dim=3, reg={"l2": 0.2})
        thetas = rng.normal(scale=0.5, size=(5, 3))
        weights = rng.uniform(0.0, 2.0, (5, 23))
        got = expansion.evaluate_g_block(prob, thetas, weights)
        for t, w, g in zip(thetas, weights, got):
            want = evaluate_g(prob, t, w)
            np.testing.assert_allclose(g, want, rtol=1e-13, atol=1e-15)


class TestAffineInWeightsExactness:
    """Custom problem whose solution is affine in w: order 1 must be exact."""

    @staticmethod
    def _affine_problem(x):
        n, dim = x.shape

        def term(i, theta):
            if i == 0:
                return [theta[d] for d in range(dim)]
            return [-x[i - 1, d] for d in range(dim)]

        return EstimatingProblem(dim, n, term, model_id="affine")

    def test_first_order_is_exact(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((8, 2))
        prob = self._affine_problem(x)
        theta_hat = solve_base(prob)
        np.testing.assert_allclose(theta_hat, x.sum(axis=0), atol=1e-12)
        hfac = factorize_hessian(prob, theta_hat)
        table = term_tables(3)
        for _ in range(5):
            w = rng.uniform(0.0, 2.0, 8)
            expn = evaluate_theta_ij(prob, theta_hat, hfac, table, w - 1.0, 3)
            exact = exact_refit(prob, w, theta_hat)
            assert np.linalg.norm(expn.partial_sum(1) - exact) <= 1e-12
            for k in (2, 3):
                assert np.linalg.norm(expn.dthetas[k - 1]) <= 1e-12


class TestImplicitDerivativeOracle:
    def test_dtheta_matches_refit_curve(self):
        """d_k equals the k-th derivative of t -> refit(1 + t dw), by FD."""
        rng = np.random.default_rng(3)
        for model_id in ["mean", "linear_regression"]:
            n, dim = 14, 2
            x = rng.uniform(-1, 1, (n, dim))
            if model_id == "linear_regression":
                y = x @ np.array([1.0, 2.0]) + 0.2 * rng.standard_normal(n)
                data = Dataset(x, y)
            else:
                data = Dataset(x)
            prob = make_problem(model_id, data)
            cfg = SolveConfig(tol_grad=1e-13)
            theta_hat = solve_base(prob, cfg=cfg)
            hfac = factorize_hessian(prob, theta_hat)
            dw = np.zeros(n)
            dw[3], dw[7] = -1.0, 0.5
            expn = evaluate_theta_ij(prob, theta_hat, hfac, term_tables(3), dw, 3)

            def refit_at(t):
                return exact_refit(prob, 1.0 + t * dw, theta_hat, cfg)

            for k, h in [(1, 1e-4), (2, 2e-3), (3, 2e-2)]:
                fd = fd_nth_scalar(refit_at, k, h)
                assert rel_err(expn.dthetas[k - 1], fd, floor=1e-8) < 1e-4
