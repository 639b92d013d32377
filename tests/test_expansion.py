"""Newton solves, the factorization, and the expansion recursion."""

import importlib
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

from hoij import expansion, models, resampling
from hoij import forward_ad as fad
from hoij.forward_ad import NonFiniteValueError
from hoij.terms import build_term_tables

from helpers import (
    ALL_MODELS,
    batch_fn_calls,
    bench_module,
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

    def test_singular_jacobian_during_newton(self):
        """G = theta^2 - 1 has a zero Jacobian at the start theta = 0."""
        def term(i, theta):
            return [0.0] if i == 0 else [theta[0] * theta[0] - 1.0]

        prob = EstimatingProblem(1, 3, term, model_id="square")
        with pytest.raises(SingularHessianError, match="during Newton solve") as exc:
            solve_base(prob)
        np.testing.assert_array_equal(exc.value.iterate, [0.0])

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

    def test_solve_matches_numpy_solve(self):
        """One product with the inverse from the SVD agrees with numpy's LU
        solve, for one right-hand side and for a (D, B) block."""
        rng = np.random.default_rng(13)
        for model in ALL_MODELS:
            prob = build_problem(model, rng, n=40, dim=4)
            hfac = factorize_hessian(prob, solve_base(prob))
            for b in (rng.standard_normal(4), rng.standard_normal((4, 7))):
                assert max_rel_gap(hfac.solve(b), np.linalg.solve(hfac.matrix, b)) <= 1e-13

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

    def test_negative_order_rejected(self, mean_setup):
        """order < 0 is a ValueError, for one weight and through run_cv."""
        prob, theta_hat, hfac = mean_setup
        with pytest.raises(ValueError, match="order -1 is below 0"):
            evaluate_theta_ij(prob, theta_hat, hfac, term_tables(1), np.zeros(4), -1)
        with pytest.raises(ValueError, match="order -1 is below 0"):
            resampling.run_cv(prob, loo_weights(4), -1)

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
        for name in ("g_theta_tensor", "g_theta_derivative"):
            monkeypatch.setattr(fad, name, forbidden)
        table = term_tables(3)
        for w in list(loo_weights(12)) + list(bootstrap_weights(12, 5, seed=1)):
            evaluate_theta_ij(prob, theta_hat, hfac, table, w.delta, 3)
        # another table object and a lower order read the same caches
        evaluate_theta_ij(prob, theta_hat, hfac, build_term_tables(3), w.delta, 3)
        evaluate_theta_ij(prob, theta_hat, hfac, table, w.delta, 2)
        # one degree-3 pass: the rows of orders 0..2 and the order-3 sum
        assert passes == [([0, 1, 2], [3])]
        assert sorted(hfac._rows) == [0, 1, 2]

    def test_first_order_builds_no_tensor(self, monkeypatch):
        prob = build_problem("exp_loss", np.random.default_rng(42))
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        evaluate_theta_ij(prob, theta_hat, hfac, term_tables(1),
                          -np.eye(prob.n_terms)[0], 1)
        assert hfac._sums == {}
        evaluate_theta_ij(prob, theta_hat, hfac, term_tables(3),
                          -np.eye(prob.n_terms)[0], 3)
        assert sorted(hfac._sums) == [2, 3]

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


def _counted_passes(monkeypatch):
    # (orders, summed) of every pass that fills a factor; the Jacobian
    # passes of the solves and of the factorization, which are given
    # weights, are left out
    passes = []
    per_datum_tensors = fad.per_datum_tensors

    def counting(problem, theta, orders, weights=None, summed=()):
        if weights is None:
            passes.append((sorted(orders), sorted(summed)))
        return per_datum_tensors(problem, theta, orders, weights, summed)

    monkeypatch.setattr(fad, "per_datum_tensors", counting)
    return passes


class TestFill:
    """prepare_expansion(K) is the factor's one fill: one pass of degree K
    for the rows below K and the order-K sum."""

    # the passes of run_cv at each order: the expansion's, then the chord's
    # order-3 request for what the expansion did not cache
    RUN_CV_PASSES = {
        0: [([0, 1, 2], [3])],
        1: [([0], []), ([1, 2], [3])],
        2: [([0, 1], [2]), ([2], [3])],
        3: [([0, 1, 2], [3])],
        4: [([0, 1, 2, 3], [4])],
        5: [([0, 1, 2, 3, 4], [5])],
    }

    @pytest.mark.parametrize("order", sorted(RUN_CV_PASSES))
    def test_run_cv_passes_at_theta_hat(self, order, monkeypatch):
        """At order 0 one degree-3 pass gives the ceilings' order-0 rows and
        the chord's rows and sum."""
        data = GeneratorConfig(n_features=3).generate(
            "logistic_regression", 200, np.random.default_rng(8))
        prob = make_problem("logistic_regression", data)
        passes = _counted_passes(monkeypatch)
        report = resampling.run_cv(prob, loo_weights(200, range(1, 200, 7)), order)
        assert passes == self.RUN_CV_PASSES[order]
        assert all(o.refit_error is None for o in report.outcomes)

    @pytest.mark.parametrize("top", range(6))
    def test_prepared_orders_run_no_pass(self, top, monkeypatch):
        """After prepare_expansion(K), every order up to K, the rows and sums
        an order-K expansion reads and, from K = 3, a block re-fit run no
        pass."""
        prob = build_problem("exp_loss", np.random.default_rng(47), n=30, dim=3,
                             reg={"l2": 0.2})
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        passes = _counted_passes(monkeypatch)
        hfac.prepare_expansion(top)
        assert passes == ([(list(range(top)), [top] if top >= 2 else [])] if top else [])
        passes.clear()
        for k in range(top + 1):
            hfac.prepare_expansion(k)
        for k in range(top):
            hfac.rows(k)
        for k in range(2, top + 1):
            hfac.sums(k)
        if top >= 3:
            weights = np.array([w.values for w in loo_weights(30, [3, 11])])
            expansion.refit_block(hfac, weights, [theta_hat] * 2)
        assert passes == []

    @pytest.mark.parametrize("model_id", ALL_MODELS)
    def test_fresh_factor_rows_and_sums(self, model_id, monkeypatch):
        """On a fresh factor rows(k) fills through prepare_expansion(k + 1)
        and sums(k) through prepare_expansion(k) from order 2, through
        rows(k) below; both match the nested pass to 1e-12."""
        prob = build_problem(model_id, np.random.default_rng(48), n=13, dim=3,
                             reg={"l2": 0.3})
        theta_hat = solve_base(prob)
        passes = _counted_passes(monkeypatch)
        for k in range(4):
            g0, per = nested_per_datum_tensor(prob, theta_hat, k)
            want = (g0 + per.sum(axis=0)) / prob.n_terms
            hfac = factorize_hessian(prob, theta_hat)
            passes.clear()
            got = hfac.rows(k)
            assert passes == [(list(range(k + 1)), [k + 1] if k >= 1 else [])]
            assert max_rel_gap(got[0], g0) <= 1e-12
            for row, want_row in zip(got[1], per):
                assert max_rel_gap(row, want_row) <= 1e-12
            hfac = factorize_hessian(prob, theta_hat)
            passes.clear()
            assert max_rel_gap(hfac.sums(k), want) <= 1e-12
            if k >= 2:
                assert passes == [(list(range(k)), [k])] and k not in hfac._rows
            else:
                assert passes == [(list(range(k + 1)), [k + 1] if k else [])]


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
        """The expansion loop factorizes and inverts nothing new: with the
        factor's caches warm, it calls none of numpy's svd, solve and inv,
        while factorize_hessian calls svd once."""
        prob, theta_hat, hfac = mean_setup
        factorize_hessian(prob, theta_hat)
        hfac.prepare_expansion(4)
        calls = []
        for name in ("svd", "solve", "inv"):
            monkeypatch.setattr(np.linalg, name,
                                lambda *a, _name=name, _real=getattr(np.linalg, name), **k:
                                calls.append(_name) or _real(*a, **k))
        factorize_hessian(prob, theta_hat)
        assert calls == ["svd"]
        calls.clear()
        evaluate_theta_ij(prob, theta_hat, hfac, term_tables(4),
                          np.array([0.0, 0.0, 0.0, -1.0]), 4)
        assert calls == []

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


def table_coefficients(prob, theta_hat, hfac, table, delta_w, order):
    """d_1..d_order of one weight offset from evaluate_dtheta, the term-table
    engine, reading the same cached arrays as the recursion."""
    dset = {}
    for k in range(1, order + 1):
        dset[k] = evaluate_dtheta(prob, theta_hat, hfac, table.for_order(k), dset, delta_w)
    return [dset[k] for k in range(1, order + 1)]


def scheme_blocks(n):
    """LOO, k-fold, leave-kappa-out and bootstrap blocks of offsets w - 1."""
    streams = {"loo": loo_weights(n, [2, 9, n]), "kfold": kfold_weights(n, 4, seed=1),
               "kappa": leave_kappa_out_weights(n, 3, seed=4, count=3),
               "bootstrap": bootstrap_weights(n, 3, seed=2)}
    return {name: np.array([w.delta for w in ws]) for name, ws in streams.items()}


class TestRecursionAgainstTermTables:
    """The Taylor recursion of evaluate_theta_ij against evaluate_dtheta, to
    1e-12 of each order's largest entry.  Each order K gets a freshly
    prepared factor: caches filled by passes of other degrees differ in
    their last bits, and the top coefficients amplify that."""

    @pytest.mark.parametrize("model_id", ALL_MODELS + ["term_fn_only"])
    def test_every_order_scheme_and_block(self, model_id):
        n = 20
        prob = build_problem(model_id if model_id in ALL_MODELS else "logistic_regression",
                             np.random.default_rng(61), n=n, dim=3, reg={"l2": 0.2})
        if model_id == "term_fn_only":
            prob = EstimatingProblem(prob.dim_theta, prob.n_terms, prob.term_fn)
        theta_hat = solve_base(prob)
        for order in range(1, fad.K_MAX + 1):
            table = term_tables(order)
            hfac = factorize_hessian(prob, theta_hat)
            hfac.prepare_expansion(order)
            for scheme, block in scheme_blocks(n).items():
                got = evaluate_theta_ij(prob, theta_hat, hfac, table, block, order)
                for b, dw in enumerate(block):
                    one = evaluate_theta_ij(prob, theta_hat, hfac, table, dw, order)
                    want = table_coefficients(prob, theta_hat, hfac, table, dw, order)
                    for k in range(order):
                        where = (scheme, order, k + 1, b)
                        assert max_rel_gap(got.dthetas[k][b], want[k]) <= 1e-12, where
                        assert max_rel_gap(one.dthetas[k], want[k]) <= 1e-12, where

    @pytest.mark.parametrize("dim", [2, 4])
    def test_reduction_routes_agree(self, dim, monkeypatch):
        """A block reduced one offset per call and the same block reduced by
        one product per order give the same coefficients, to 1e-13 of each
        order's largest entry.  GATHER_RATIO = 0 makes every block take the
        first route and a ratio above N the second, and the calls to
        g_weight_derivative show which ran.  At D = 4, the sparse offsets'
        own calls gather their rows from order 2."""
        n = 70
        prob = build_problem("logistic_regression", np.random.default_rng(62), n=n, dim=dim,
                             reg={"l2": 0.2})
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        table = term_tables(5)
        shapes = []
        real = fad.g_weight_derivative

        def recording(problem, theta, delta_w, per_datum):
            shapes.append(np.shape(delta_w))
            return real(problem, theta, delta_w, per_datum)

        monkeypatch.setattr(fad, "g_weight_derivative", recording)
        for scheme, block in scheme_blocks(n).items():
            routes = {}
            for ratio, want in ((0, [(n,)] * len(block)), (n + 1, [block.shape])):
                monkeypatch.setattr(fad, "GATHER_RATIO", ratio)
                shapes.clear()
                routes[ratio] = evaluate_theta_ij(prob, theta_hat, hfac, table, block, 5)
                assert shapes == want * 5, scheme
            for k, (a, b) in enumerate(zip(routes[0].dthetas, routes[n + 1].dthetas), 1):
                for row_a, row_b in zip(a, b):
                    assert max_rel_gap(row_a, row_b) <= 1e-13, (scheme, k)

    def test_sparse_blocks_take_one_call_per_offset(self, monkeypatch):
        """At the default ratio, a block whose every offset changes fewer
        than N / GATHER_RATIO rows is reduced one offset per call; a block
        with one denser offset is one product per order."""
        n = 100
        prob = build_problem("logistic_regression", np.random.default_rng(63), n=n, dim=2)
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        shapes = []
        real = fad.g_weight_derivative

        def recording(problem, theta, delta_w, per_datum):
            shapes.append(np.shape(delta_w))
            return real(problem, theta, delta_w, per_datum)

        monkeypatch.setattr(fad, "g_weight_derivative", recording)
        sparse = -np.eye(n)[[3, 50]]
        sparse[1, 51:53] = -1.0  # three rows, fewer than 100 / 32
        evaluate_theta_ij(prob, theta_hat, hfac, term_tables(3), sparse, 3)
        assert shapes == [(n,)] * 6
        shapes.clear()
        sparse[1, 60] = -1.0  # four rows, not fewer than 100 / 32
        evaluate_theta_ij(prob, theta_hat, hfac, term_tables(3), sparse, 3)
        assert shapes == [(2, n)] * 3


def nested_oracle_expansion(prob, theta_hat, table, delta_w, order):
    """d_1..d_order from the nested per-datum arrays of the test helpers,
    with no univariate pass and no cache: a weight-direction term sums the
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
    """The recursion against the nested oracle, its failure on a non-finite
    cached array, and the calls the bench's traced run checks."""

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

    def test_nan_in_cached_tensor_raises(self):
        """A NaN in the cached order-2 sum fails the recursion's solve, for
        one weight and for a block, and the term-table oracle, which expands
        the same sum, at its contraction."""
        n = 20
        prob = build_problem("logistic_regression", np.random.default_rng(53), n=n, dim=3)
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        table = term_tables(3)
        dw = next(loo_weights(n, [4])).delta
        d1, d2, _ = evaluate_theta_ij(prob, theta_hat, hfac, table, dw, 3).dthetas
        hfac.sums(2)[1, 2] = np.nan  # the cached array every later expansion reads
        for delta in (dw, np.array([dw, dw])):
            with pytest.raises(NonFiniteValueError, match="Hessian system"):
                evaluate_theta_ij(prob, theta_hat, hfac, table, delta, 3)
        with pytest.raises(NonFiniteValueError, match="non-finite contraction for term"):
            evaluate_dtheta(prob, theta_hat, hfac, table.for_order(3), {1: d1, 2: d2}, dw)

    def test_nan_in_cached_tensor_is_the_cv_expand_error(self, monkeypatch):
        """The block's one expansion fails, and so does each weight's own
        expansion after it: every weight gets its own expand_error, and a
        finite re-fit from theta_hat."""
        n = 20
        prob = build_problem("logistic_regression", np.random.default_rng(53), n=n, dim=3)
        factorize = resampling.factorize_hessian
        calls = []
        expand = resampling.evaluate_theta_ij

        def planted(problem, theta_hat):
            hfac = factorize(problem, theta_hat)
            hfac.prepare_expansion(3)
            hfac.sums(2)[1, 2] = np.nan
            return hfac

        def recording(problem, theta_hat, hfac, table, delta_w, order):
            calls.append(np.shape(delta_w))
            return expand(problem, theta_hat, hfac, table, delta_w, order)

        monkeypatch.setattr(resampling, "factorize_hessian", planted)
        monkeypatch.setattr(resampling, "evaluate_theta_ij", recording)
        report = resampling.run_cv(prob, loo_weights(n, [4, 9]), 3)
        assert calls == [(2, n), (n,), (n,)]
        for o in report.outcomes:
            assert o.expand_error == "non-finite right-hand side of the Hessian system"
            assert o.theta_ij is None and o.errors is None
            assert o.refit_error is None and np.isfinite(o.theta_exact).all()

    @staticmethod
    def _traced_cv(labels, order):
        """``run_cv`` on LOO weights of a 40-row problem under the bench's
        own tracer: the spans of its traced calls.  N = 40 makes one changed
        row fewer than N / GATHER_RATIO, so each weight of a block is
        reduced by its own call."""
        tracer = bench_module("tracer")
        for mod, _ in tracer.TRACED:
            importlib.import_module(mod)
        prob = build_problem("logistic_regression", np.random.default_rng(54), n=40, dim=3)
        with tracer.Tracer() as t:
            report = resampling.run_cv(prob, loo_weights(40, labels), order)
        assert all(o.expand_error is None for o in report.outcomes)
        return t.spans

    def test_one_loo_weight_makes_the_traced_calls(self):
        """The calls the bench's traced loo_cv run checks, for one LOO weight
        at order 3: three ``g_weight_derivative`` calls, for the orders
        0..2, each reading one changed row (its ``rows`` counter), and no
        ``evaluate_dtheta`` call."""
        spans = self._traced_cv([7], 3)
        rows = [s.counters["rows"] for s in spans if s.name == "forward_ad.g_weight_derivative"]
        assert set(rows) == {1}
        assert len(rows) == 3
        assert not [s for s in spans if s.name == "expansion.evaluate_dtheta"]

    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_loo_blocks_make_the_traced_calls(self, order):
        """A block of three LOO weights: one call per weight and order, each
        reading one changed row."""
        spans = self._traced_cv([7, 19, 33], order)
        rows = [s.counters["rows"] for s in spans if s.name == "forward_ad.g_weight_derivative"]
        assert set(rows) == {1}
        assert len(rows) == 3 * order
        assert not [s for s in spans if s.name == "expansion.evaluate_dtheta"]


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
        # the bytes of each weight vector that falls back to exact_refit
        seen = []
        real = expansion.exact_refit

        def recording(prob, w, *args, **kwargs):
            seen.append(np.asarray(w).tobytes())
            return real(prob, w, *args, **kwargs)

        monkeypatch.setattr(expansion, "exact_refit", recording)
        return seen

    @staticmethod
    def _stacked(weights):
        # the (B, N) array refit_block takes
        return np.array([getattr(w, "values", w) for w in weights])

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
            got, errors = expansion.refit_block(hfac, self._stacked(weights), starts)
            assert errors == [None] * len(weights)
            for w, start, root in zip(weights, starts, got):
                want = exact_refit(prob, w, theta_hat, start=start,
                                   max_start_residual=_ceiling(prob, theta_hat, w))
                if w.values.tobytes() in seen:
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
        for name in ("per_datum_tensors", "g_theta_tensor", "g_theta_derivative"):
            monkeypatch.setattr(fad, name, forbidden)
        seen = self._recording_fallbacks(monkeypatch)
        got, errors = expansion.refit_block(hfac, self._stacked(weights), starts)
        assert seen == [] and errors == [None] * len(weights)
        assert calls[:2] == [len(weights)] * 2
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
        got, errors = expansion.refit_block(hfac, self._stacked(weights),
                                            [theta_hat] * len(weights))
        assert seen == [] and errors == [None] * len(weights)
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
        values = self._stacked(weights)
        seen = self._recording_fallbacks(monkeypatch)
        got, errors = expansion.refit_block(hfac, values, starts)
        assert seen == [row.tobytes() for row in values]
        assert errors == [None] * len(weights)
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
        for w, root in zip(weights, expansion.refit_block(hfac, self._stacked(weights), far)[0]):
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
        got, errors = expansion.refit_block(hfac, self._stacked(weights), starts)
        assert seen == [] and errors == [None] * len(weights)
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
        w, cfg = np.array([1.0, 0.0]), SolveConfig(max_iter=12)
        with pytest.raises(SolverError) as want:
            exact_refit(prob, w, theta_hat, cfg, start=theta_hat,
                        max_start_residual=_ceiling(prob, theta_hat, w))
        roots, errors = expansion.refit_block(hfac, w[None], [theta_hat], cfg)
        assert np.isnan(roots).all() and roots.shape == (1, 1)
        assert errors == [str(want.value)]

    def test_weights_not_b_by_n_rejected(self):
        """One input form: a (B, N) array, one weight vector per row."""
        _, _, hfac, weights, starts = self._logistic_block()
        values = self._stacked(weights)
        for bad in (values[0], values[:, 1:], values[None]):
            with pytest.raises(ValueError, match=r"are not \(B, 200\)"):
                expansion.refit_block(hfac, bad, starts)

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
        rng = np.random.default_rng(4)
        prob = build_problem(model_id, rng, n=23, dim=3, reg={"l2": 0.2})
        thetas = rng.normal(scale=0.5, size=(5, 3))
        weights = rng.uniform(0.0, 2.0, (5, 23))
        default_calls = batch_fn_calls(prob, thetas, weights)
        monkeypatch.setattr(models, "REFIT_LEAF_ELEMENTS", 7)
        assert batch_fn_calls(prob, thetas, weights) > default_calls
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
