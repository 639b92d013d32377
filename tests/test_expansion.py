"""Newton solves, the factorization, and the expansion recursion."""

import numpy as np
import pytest

from hoij import (
    Dataset,
    DerivativeTerm,
    EstimatingProblem,
    SingularHessianError,
    SolveConfig,
    SolverError,
    bootstrap_weights,
    evaluate_dtheta,
    evaluate_term,
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

from hoij import forward_ad as fad
from hoij.forward_ad import NonFiniteValueError

from helpers import (
    ALL_MODELS,
    build_problem,
    fd_nth_scalar,
    max_rel_gap,
    mean_dataset_1236,
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
        # nonlinear problem, one iteration, unreachable tolerance
        prob = make_problem("exp_loss", Dataset(np.array([[-1.0], [2.0]])))
        with pytest.raises(SolverError, match="no convergence") as exc:
            solve_base(prob, cfg=SolveConfig(max_iter=1, tol_grad=1e-15,
                                             warm_start=np.array([5.0])))
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
            assert max_rel_gap(hfac.contract([dset[j] for j in term.kset]), want) <= 1e-12
        assert max_rel_gap(hfac.tensor(1), hfac.matrix) <= 1e-12

    def test_no_forward_pass_per_weight(self, monkeypatch):
        rng = np.random.default_rng(46)
        prob = build_problem("logistic_regression", rng, n=12, dim=2)
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        passes = []
        per_datum_tensor = fad.per_datum_tensor

        def counting(problem, theta, k, weights=None):
            passes.append(k)
            return per_datum_tensor(problem, theta, k, weights)

        def forbidden(*args):
            raise AssertionError("a nested pass ran for a weight vector")

        monkeypatch.setattr(fad, "per_datum_tensor", counting)
        monkeypatch.setattr(fad, "weighted_term_sum", forbidden)
        table = term_tables(3)
        for w in list(loo_weights(12)) + list(bootstrap_weights(12, 5, seed=1)):
            evaluate_theta_ij(prob, theta_hat, hfac, table, w.delta, 3)
        assert sorted(passes) == [0, 1, 2, 3]
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
        assert np.all(np.isfinite(hfac.contract([d1])))
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
