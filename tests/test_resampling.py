"""CV runs, covariance identities, and the scaling-rate harness."""

import json

import numpy as np
import pytest

from hoij import (
    Dataset,
    GeneratorConfig,
    WeightVector,
    bootstrap_linear_samples,
    bootstrap_samples,
    bootstrap_weight_blocks,
    bootstrap_weights,
    evaluate_theta_ij,
    factorize_hessian,
    ij_linear_covariance,
    linear_covariance,
    loo_weights,
    make_problem,
    run_cv,
    sandwich_covariance,
    scaling_study,
    solve_base,
    term_tables,
)

from helpers import ALL_MODELS, build_problem, max_rel_gap, mean_dataset_1236


class TestRunCv:
    def test_mean_loo_closed_form(self):
        prob = make_problem("mean", mean_dataset_1236())
        report = run_cv(prob, loo_weights(4), 2)
        assert len(report.outcomes) == 4
        # the worst weight drops x_4 = 6
        assert report.max_error[1] == pytest.approx(0.25, abs=1e-12)
        assert report.max_error[2] == pytest.approx(0.0625, abs=1e-12)
        worst = next(o for o in report.outcomes if o.label == "drop:4")
        assert worst.theta_exact[0] == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(
            [t[0] for t in worst.theta_ij], [3.0, 2.25, 2.0625], atol=1e-12
        )

    def test_unit_weight_zero_error(self):
        prob = make_problem("mean", mean_dataset_1236())
        report = run_cv(prob, [np.ones(4)], 3)
        assert all(e <= 1e-12 for e in report.outcomes[0].errors)

    def test_error_monotone_in_order(self):
        """On the 4-point mean LOO set, max error contracts as the order grows."""
        prob = make_problem("mean", mean_dataset_1236())
        report = run_cv(prob, loo_weights(4), 3)
        errs = report.max_error
        assert errs[0] >= errs[1] >= errs[2] >= errs[3]

    def test_stored_errors_recomputable(self):
        rng = np.random.default_rng(2)
        prob = build_problem("exp_loss", rng, n=10)
        report = run_cv(prob, loo_weights(10), 2)
        for o in report.outcomes:
            for k, err in enumerate(o.errors):
                again = np.linalg.norm(o.theta_ij[k] - o.theta_exact)
                assert abs(again - err) <= 1e-12

    def test_json_deterministic(self):
        prob = make_problem("mean", mean_dataset_1236())
        a = run_cv(prob, loo_weights(4), 2).to_json_obj()
        b = run_cv(prob, loo_weights(4), 2).to_json_obj()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_workers_match_sequential(self):
        rng = np.random.default_rng(12)
        prob = build_problem("logistic_regression", rng, n=10)
        seq = run_cv(prob, loo_weights(10), 2, workers=1)
        par = run_cv(prob, loo_weights(10), 2, workers=4)
        assert json.dumps(seq.to_json_obj(), sort_keys=True) == \
            json.dumps(par.to_json_obj(), sort_keys=True)

    def test_with_bounds_attaches_column(self):
        prob = make_problem("mean", mean_dataset_1236())
        report = run_cv(prob, loo_weights(4), 1, with_bounds=True)
        assert report.metadata["condition_satisfied"]
        assert report.bound_per_k is not None
        assert all(report.max_error[k] <= report.bound_per_k[k] for k in (0, 1))

    def test_csv_rows_shape(self):
        prob = make_problem("mean", mean_dataset_1236())
        rows = run_cv(prob, loo_weights(4), 1).csv_rows()
        assert rows[0] == ["weight", "k", "error", "bound"]
        assert len(rows) == 1 + 4 * 2

    def test_kfold_and_kappa_schemes(self):
        from hoij.models import kfold_weights, leave_kappa_out_weights
        rng = np.random.default_rng(14)
        prob = build_problem("linear_regression", rng, n=12)
        for stream, count in [(kfold_weights(12, 3, seed=1), 3),
                              (leave_kappa_out_weights(12, 2, seed=1, count=4), 4)]:
            report = run_cv(prob, stream, 2)
            assert len(report.outcomes) == count
            assert all(o.errors is not None for o in report.outcomes)
            assert all(np.isfinite(report.max_error))

    def test_bootstrap_scheme_with_refits(self):
        from hoij.models import bootstrap_weights
        prob = make_problem("mean", mean_dataset_1236())
        report = run_cv(prob, bootstrap_weights(4, 6, seed=2), 2)
        ok = [o for o in report.outcomes if o.errors is not None]
        assert ok
        # order-2 approximation beats order-1 on average for these draws
        assert report.mean_error[2] <= report.mean_error[1] + 1e-12

    def test_refit_failure_recorded_not_fatal(self):
        from hoij import EstimatingProblem, SolveConfig
        from hoij import forward_ad as fad

        # root exists at unit weights but vanishes when datum 2 is dropped
        def term(i, theta):
            if i == 0:
                return [0.0]
            if i == 1:
                return [fad.exp(theta[0])]
            return [-fad.exp(-2.0 * theta[0])]

        prob = EstimatingProblem(1, 2, term, model_id="one-sided")
        report = run_cv(prob, loo_weights(2, [2]), 1, cfg=SolveConfig(max_iter=12))
        assert report.outcomes[0].errors is None
        assert report.outcomes[0].refit_error


    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_non_finite_expansion_recorded_not_fatal(self):
        rng = np.random.default_rng(12)
        prob = build_problem("logistic_regression", rng, n=12, dim=2)
        loo = list(loo_weights(12, [1, 5, 9]))
        huge = np.ones(12)
        huge[4] = 1e300
        stream = loo[:2] + [WeightVector(huge, label="huge")] + loo[2:]
        with np.errstate(over="ignore", invalid="ignore"):
            report = run_cv(prob, stream, 3)
        want = run_cv(prob, loo, 3)
        bad = report.outcomes[2]
        assert bad.label == "huge" and bad.theta_ij is None and bad.errors is None
        assert "non-finite" in bad.expand_error
        rec = report.to_json_obj()["outcomes"]
        assert rec[2]["theta_ij"] is None and rec[2]["expand_error"] == bad.expand_error
        assert all("expand_error" not in r for i, r in enumerate(rec) if i != 2)
        kept = json.loads(json.dumps(report.to_json_obj()))
        kept["outcomes"].pop(2)
        assert kept == json.loads(json.dumps(want.to_json_obj()))


class TestCovarianceIdentity:
    def test_mean_model_value(self):
        prob = make_problem("mean", mean_dataset_1236())
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        s = sandwich_covariance(prob, theta_hat, hfac)
        l = ij_linear_covariance(prob, theta_hat, hfac)
        # residuals (2, 1, 0, -3): sum of squares 14, over N^2 = 16
        assert s[0, 0] == pytest.approx(14.0 / 16.0, rel=1e-12)
        assert l[0, 0] == pytest.approx(14.0 / 16.0, rel=1e-12)

    def test_identical_terms_zero(self):
        prob = make_problem("mean", Dataset(np.full((5, 1), 2.5)))
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        np.testing.assert_allclose(sandwich_covariance(prob, theta_hat, hfac), 0.0,
                                   atol=1e-15)

    def test_identity_on_all_models(self):
        rng = np.random.default_rng(6)
        for model_id in ALL_MODELS:
            prob = build_problem(model_id, rng, n=30, dim=2)
            theta_hat = solve_base(prob)
            hfac = factorize_hessian(prob, theta_hat)
            s = sandwich_covariance(prob, theta_hat, hfac)
            l = ij_linear_covariance(prob, theta_hat, hfac)
            np.testing.assert_allclose(s, l, atol=1e-12)
            # the O(N D^2) route against the N x N one
            fast = linear_covariance(prob, theta_hat, hfac)
            assert max_rel_gap(fast, l) <= 1e-12

    def test_linear_samples_match_expansion(self):
        """Vectorized bootstrap samples equal per-draw order-1 expansions."""
        rng = np.random.default_rng(9)
        prob = build_problem("linear_regression", rng, n=15)
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        samples = bootstrap_linear_samples(prob, theta_hat, hfac, 5, seed=3)
        table = term_tables(1)
        from hoij.models import bootstrap_weights
        for row, w in zip(samples, bootstrap_weights(15, 5, seed=3)):
            expn = evaluate_theta_ij(prob, theta_hat, hfac, table, w.delta, 1)
            np.testing.assert_allclose(row, expn.theta_ij, atol=1e-12)

    def test_blocks_are_the_single_draws(self):
        n, draws = 7, 11
        blocks = list(bootstrap_weight_blocks(n, draws, seed=5, chunk=4))
        assert [len(b) for b in blocks] == [4, 4, 3]
        np.testing.assert_array_equal(
            np.vstack(blocks), [w.values for w in bootstrap_weights(n, draws, seed=5)])

    def test_one_draw_feeds_both_orders(self):
        """Across chunk boundaries, both sample sets come from the draws of
        bootstrap_weights, and the linear half is bootstrap_linear_samples."""
        rng = np.random.default_rng(11)
        prob = build_problem("logistic_regression", rng, n=15, dim=2)
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        linear, expanded = bootstrap_samples(prob, theta_hat, hfac, 7, order=3,
                                             seed=8, chunk=3)
        table = term_tables(3)
        for row, w in zip(expanded, bootstrap_weights(15, 7, seed=8), strict=True):
            want = evaluate_theta_ij(prob, theta_hat, hfac, table, w.delta, 3).theta_ij
            np.testing.assert_array_equal(row, want)
        np.testing.assert_allclose(
            linear, bootstrap_linear_samples(prob, theta_hat, hfac, 7, seed=8),
            rtol=1e-13, atol=0)
        assert bootstrap_samples(prob, theta_hat, hfac, 7, seed=8)[1] is None

    def test_monte_carlo_agreement_small(self):
        rng = np.random.default_rng(10)
        prob = build_problem("mean", rng, n=25, dim=1)
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        exact = ij_linear_covariance(prob, theta_hat, hfac)
        samples = bootstrap_linear_samples(prob, theta_hat, hfac, 20000, seed=4)
        emp = np.cov(samples, rowvar=False, bias=True).reshape(1, 1)
        z = samples - samples.mean(axis=0)
        se = np.sqrt(np.var(z[:, 0] * z[:, 0]) / samples.shape[0])
        assert abs(emp[0, 0] - exact[0, 0]) <= 3.0 * se


class TestScalingStudy:
    def test_mean_rates_small_grid(self):
        report = scaling_study("mean", GeneratorConfig(), [40, 80, 160, 320], 2, seed=3)
        assert report.n_grid == (40, 80, 160, 320)
        for k, target in [(0, -1.0), (1, -2.0), (2, -3.0)]:
            slope, _ = report.slopes[k]
            assert abs(slope - target) <= 0.35

    def test_errors_decrease_along_grid(self):
        report = scaling_study("mean", GeneratorConfig(), [50, 200, 800], 1, seed=1)
        for k in (0, 1):
            errs = report.max_errors[k]
            assert errs[0] > errs[-1]

    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            scaling_study("mean", GeneratorConfig(), [100, 50], 1)

    def test_deterministic(self):
        a = scaling_study("mean", GeneratorConfig(), [30, 60], 1, seed=5).to_json_obj()
        b = scaling_study("mean", GeneratorConfig(), [30, 60], 1, seed=5).to_json_obj()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_csv_rows(self):
        report = scaling_study("mean", GeneratorConfig(), [30, 60], 1, seed=5)
        rows = report.csv_rows()
        assert rows[0] == ["n", "k", "max_error"]
        assert len(rows) == 1 + 2 * 2
