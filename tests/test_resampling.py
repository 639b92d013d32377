"""CV runs, covariance identities, and the scaling-rate harness."""

import csv
import io
import json
import tracemalloc

import numpy as np
import pytest

from hoij import (
    Dataset,
    GeneratorConfig,
    TaylorExpansion,
    WeightVector,
    bootstrap_covariances,
    bootstrap_linear_samples,
    bootstrap_weight_blocks,
    bootstrap_weights,
    evaluate_g,
    evaluate_theta_ij,
    exact_refit,
    expansion,
    factorize_hessian,
    ij_linear_covariance,
    linear_covariance,
    loo_weights,
    make_problem,
    models,
    resampling,
    run_cv,
    sandwich_covariance,
    scaling_study,
    solve_base,
    term_tables,
)

from hoij.bounds import per_datum_derivative_entries
from hoij.expansion import assemble_jacobian
from hoij.forward_ad import NonFiniteValueError

from helpers import ALL_MODELS, batch_fn_calls, build_problem, max_rel_gap, mean_dataset_1236


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

    def test_with_bounds_attaches_column(self):
        prob = make_problem("mean", mean_dataset_1236())
        report = run_cv(prob, loo_weights(4), 1, with_bounds=True)
        assert report.metadata["condition_satisfied"]
        assert report.bound_per_k is not None
        assert all(report.max_error[k] <= report.bound_per_k[k] for k in (0, 1))

    def test_with_bounds_needs_loo_weights(self):
        """The bound column reads the leave-one-out set complexity, so a weight
        that is not one zero among ones is refused, by its label; k-fold with
        one row per fold gives leave-one-out weights and is accepted."""
        from hoij.models import kfold_weights
        prob = make_problem("mean", mean_dataset_1236())
        for stream in (kfold_weights(4, 2), [np.array([1.0, 1.0, 0.5, 1.0])],
                       [np.array([0.0, 1.0, 1.0, 2.0])]):
            with pytest.raises(ValueError, match="leave-one-out"):
                run_cv(prob, stream, 1, with_bounds=True)
        report = run_cv(prob, kfold_weights(4, 4), 1, with_bounds=True)
        assert report.bound_per_k is not None
        # raw arrays over two blocks of 64, whose first weight that is not
        # leave-one-out is the 70th: the message names it by its position
        loo = [w.values for w in loo_weights(4)]
        stream = [loo[i % 4] for i in range(69)] + [np.array([1.0, 0.0, 0.0, 1.0]),
                                                    np.array([0.5, 1.0, 1.0, 1.0])]
        with pytest.raises(ValueError, match=r"weight 'w:70' is not one"):
            run_cv(prob, stream, 1, with_bounds=True)

    def test_csv_rows_shape(self):
        prob = make_problem("mean", mean_dataset_1236())
        rows = _csv_rows(run_cv(prob, loo_weights(4), 1))
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


def polished_root(prob, w, theta, steps=3):
    """theta after ``steps`` undamped Newton steps at weights w."""
    for _ in range(steps):
        h = assemble_jacobian(prob, theta, w)
        theta = theta - np.linalg.solve(h, evaluate_g(prob, theta, w))
    return theta


class TestRefitFromExpansion:
    """run_cv starts each exact re-fit at the order-K expansion."""

    @pytest.mark.parametrize("model_id, dim, n, order", [
        ("logistic_regression", 3, 300, 4),
        ("logistic_regression", 8, 400, 4),
        ("exp_loss", 2, 300, 3),
        ("linear_regression", 3, 100, 3),
        ("mean", 2, 100, 3),
        ("logistic_regression", 3, 100, 3),
        ("logistic_regression", 8, 200, 3),
    ])
    def test_refits_reach_the_root(self, model_id, dim, n, order):
        data = GeneratorConfig(n_features=dim).generate(
            model_id, n, np.random.default_rng(5))
        prob = make_problem(model_id, data)
        weights = list(loo_weights(n, range(1, n + 1, 5)))
        report = run_cv(prob, weights, order)
        for o, w in zip(report.outcomes, weights):
            root = polished_root(prob, w.values, o.theta_exact)
            assert np.max(np.abs(o.theta_exact - root)) <= 1e-13, o.label

    def test_kfold_and_bootstrap_match_refit_from_theta_hat(self):
        from hoij.models import kfold_weights

        rng = np.random.default_rng(3)
        prob = build_problem("logistic_regression", rng, n=60, dim=2)
        theta_hat = solve_base(prob)
        weights = list(kfold_weights(60, 4, seed=2)) + list(bootstrap_weights(60, 4, seed=2))
        report = run_cv(prob, weights, 3)
        for o, w in zip(report.outcomes, weights):
            assert o.refit_error is None
            np.testing.assert_allclose(o.theta_exact, exact_refit(prob, w, theta_hat),
                                       rtol=0, atol=1e-8)

    def _recording_refit(self, monkeypatch):
        starts = []

        def recording(*args, **kwargs):
            starts.append(kwargs.get("start"))
            return exact_refit(*args, **kwargs)

        monkeypatch.setattr(expansion, "exact_refit", recording)
        return starts

    def test_failed_expansion_refits_from_theta_hat(self, monkeypatch):
        rng = np.random.default_rng(4)
        prob = build_problem("logistic_regression", rng, n=30)
        theta_hat = solve_base(prob)

        def failing(*args, **kwargs):
            raise NonFiniteValueError("non-finite contraction")

        monkeypatch.setattr(resampling, "evaluate_theta_ij", failing)
        starts = self._recording_refit(monkeypatch)
        weights = list(loo_weights(30, [2, 9]))
        report = run_cv(prob, weights, 3)
        # refit_block drops each NaN start for theta_hat
        assert len(starts) == 2 and all(np.isnan(s).all() for s in starts)
        for o, w in zip(report.outcomes, weights):
            assert o.expand_error and o.theta_ij is None
            assert o.theta_exact.tobytes() == exact_refit(prob, w, theta_hat).tobytes()

    def test_worse_expansion_refits_from_theta_hat(self, monkeypatch):
        """A start whose residual exceeds theta_hat's is dropped for theta_hat."""
        rng = np.random.default_rng(4)
        prob = build_problem("logistic_regression", rng, n=30)
        theta_hat = solve_base(prob)
        real = resampling.evaluate_theta_ij

        def off_course(*args, **kwargs):
            expn = real(*args, **kwargs)
            return TaylorExpansion(expn.theta_hat, (expn.dthetas[0] + 0.5,) + expn.dthetas[1:],
                                   expn.order)

        monkeypatch.setattr(resampling, "evaluate_theta_ij", off_course)
        starts = self._recording_refit(monkeypatch)
        weights = list(loo_weights(30, [2, 9]))
        report = run_cv(prob, weights, 2)
        assert len(starts) == 2 and all(s is not None for s in starts)
        for o, w in zip(report.outcomes, weights):
            assert o.theta_exact.tobytes() == exact_refit(prob, w, theta_hat).tobytes()


    def test_small_blocks_and_leaves(self, monkeypatch):
        """A stream of 23 weights in blocks of 5 against blocks of 64, both
        with 7-entry leaves: the same expansions bit for bit, and the same
        roots."""
        data = GeneratorConfig(n_features=3).generate(
            "logistic_regression", 200, np.random.default_rng(6))
        prob = make_problem("logistic_regression", data)
        weights = list(loo_weights(200, range(1, 200, 9)))
        point = (np.zeros((1, 3)), np.ones((1, 200)))
        default_calls = batch_fn_calls(prob, *point)
        monkeypatch.setattr(models, "REFIT_LEAF_ELEMENTS", 7)
        assert batch_fn_calls(prob, *point) > default_calls
        want = run_cv(prob, weights, 3)
        monkeypatch.setattr(resampling, "REFIT_BLOCK", 5)
        got = run_cv(prob, weights, 3)
        for o, ref, w in zip(got.outcomes, want.outcomes, weights):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(o.theta_ij, ref.theta_ij))
            assert np.max(np.abs(o.theta_exact - ref.theta_exact)) <= 1e-13
            root = polished_root(prob, w.values, o.theta_exact)
            assert np.max(np.abs(o.theta_exact - root)) <= 1e-13

    def test_one_failed_expansion_in_a_block(self, monkeypatch):
        """One expansion call per block: where it fails, each weight of the
        block is expanded on its own, so only the weight that fails alone
        loses its expansion.  One refit_block call per block, with every
        weight of the block: that weight re-fits inside it, from theta_hat."""
        rng = np.random.default_rng(4)
        prob = build_problem("logistic_regression", rng, n=150)
        theta_hat = solve_base(prob)
        real = resampling.evaluate_theta_ij
        weights = list(loo_weights(150, range(1, 150, 7)))
        bad = weights[3]
        calls = []

        def failing_once(problem, theta, hfac, table, delta_w, order):
            calls.append(np.shape(delta_w))
            if any(np.array_equal(row, bad.delta) for row in np.atleast_2d(delta_w)):
                raise NonFiniteValueError("non-finite contraction")
            return real(problem, theta, hfac, table, delta_w, order)

        block_sizes, refitted = [], []

        def counting_block(hfac, values, *args, **kwargs):
            block_sizes.append(len(values))
            return expansion.refit_block(hfac, values, *args, **kwargs)

        def recording_refit(problem, w, *args, **kwargs):
            refitted.append(w)
            return exact_refit(problem, w, *args, **kwargs)

        monkeypatch.setattr(resampling, "evaluate_theta_ij", failing_once)
        monkeypatch.setattr(resampling, "REFIT_BLOCK", 8)
        monkeypatch.setattr(resampling, "refit_block", counting_block)
        monkeypatch.setattr(expansion, "exact_refit", recording_refit)
        report = run_cv(prob, weights, 3)
        assert calls == [(8, 150)] + [(150,)] * 8 + [(8, 150), (6, 150)]
        assert block_sizes == [8, 8, 6]
        assert sum(np.array_equal(w, bad.values) for w in refitted) == 1
        assert [o.expand_error is not None for o in report.outcomes] == [
            w is bad for w in weights]
        for o, w in zip(report.outcomes, weights):
            if w is bad:
                assert o.expand_error and o.errors is None
                assert o.theta_exact.tobytes() == exact_refit(prob, w, theta_hat).tobytes()
            else:
                root = polished_root(prob, w.values, o.theta_exact)
                assert np.max(np.abs(o.theta_exact - root)) <= 1e-13


class TestBlockScoring:
    """run_cv scores a block at once: the partial sums of one expansion call
    per block, and errors and aggregates, bit for bit, as per-weight
    partial_sum and np.linalg.norm give them."""

    @pytest.mark.parametrize("model_id, dim, order", [
        ("logistic_regression", 3, 3), ("exp_loss", 2, 0), ("linear_regression", 5, 4),
        ("mean", 1, 2), ("logistic_regression", 8, 5),
    ])
    def test_matches_per_weight_scoring(self, model_id, dim, order, monkeypatch):
        n = 40
        prob = build_problem(model_id, np.random.default_rng(8), n=n, dim=dim)
        weights = list(loo_weights(n, range(1, n, 4))) + list(bootstrap_weights(n, 3, seed=1))
        monkeypatch.setattr(resampling, "REFIT_BLOCK", 4)
        report = run_cv(prob, weights, order)
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        table = term_tables(max(order, 1))
        for lo in range(0, len(weights), 4):
            block = np.array([w.delta for w in weights[lo:lo + 4]])
            expn = evaluate_theta_ij(prob, theta_hat, hfac, table, block, order)
            for b, o in enumerate(report.outcomes[lo:lo + 4]):
                for k in range(order + 1):
                    want = expn.partial_sum(k)[b]
                    assert o.theta_ij[k].tobytes() == want.tobytes(), (o.label, k)
                    assert o.errors[k] == np.linalg.norm(want - o.theta_exact)
        errors = np.array([o.errors for o in report.outcomes])
        assert report.max_error == tuple(errors.max(axis=0).tolist())
        assert report.mean_error == tuple(errors.mean(axis=0).tolist())

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 13])
    def test_stacked_norms_are_numpys(self, dim):
        rng = np.random.default_rng(dim)
        d = rng.normal(size=(50, 4, dim)) * 10.0 ** rng.integers(-17, 3, size=(50, 4, 1))
        want = [[np.linalg.norm(v) for v in block] for block in d]
        for layout in (d, np.asfortranarray(d)):
            assert resampling._norms(layout).tobytes() == np.array(want).tobytes()


class TestWeightStream:
    """run_cv reads its weight stream one block at a time."""

    def test_memory_does_not_grow_with_the_stream(self):
        n = 3000
        prob = make_problem("mean", Dataset(np.random.default_rng(3).random((n, 1))))
        peaks = []
        for count in (2 * resampling.REFIT_BLOCK, 4 * resampling.REFIT_BLOCK):
            run_cv(prob, loo_weights(n, range(1, count + 1)), 1)
            tracemalloc.start()
            run_cv(prob, loo_weights(n, range(1, count + 1)), 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0], peaks

    @pytest.mark.parametrize("n, size", [(800, 64), (8192, 32), (20_000, 13)])
    def test_blocks_hold_at_most_the_weight_block_elements(self, monkeypatch, n, size):
        """A block holds REFIT_BLOCK weights, or fewer at large N, so that it
        holds at most WEIGHT_BLOCK_ELEMENTS weights x rows."""
        prob = make_problem("mean", Dataset(np.random.default_rng(8).random((n, 1))))
        shapes = []

        def counting_block(hfac, values, *args, **kwargs):
            shapes.append(values.shape)
            return expansion.refit_block(hfac, values, *args, **kwargs)

        monkeypatch.setattr(resampling, "refit_block", counting_block)
        report = run_cv(prob, loo_weights(n, range(1, 71)), 1)
        assert shapes == [(size, n)] * (70 // size) + [(70 % size, n)]
        assert size * n <= models.WEIGHT_BLOCK_ELEMENTS or size == resampling.REFIT_BLOCK
        assert len(report.outcomes) == 70 and all(o.errors is not None
                                                  for o in report.outcomes)

    def test_unlabelled_weights_numbered_across_blocks(self, monkeypatch):
        monkeypatch.setattr(resampling, "REFIT_BLOCK", 3)
        prob = make_problem("mean", mean_dataset_1236())
        stream = (WeightVector(np.full(4, 1.1), label="kept") if i == 4
                  else np.ones(4) + 0.1 * i for i in range(7))
        report = run_cv(prob, stream, 1)
        assert [o.label for o in report.outcomes] == ["w:1", "w:2", "w:3", "w:4", "kept",
                                                      "w:6", "w:7"]

    @pytest.mark.parametrize("bad, message", [
        (np.array([1.0, np.nan, 1.0, 1.0]), r"weights must be finite, and weight 'w:5' is not"),
        (np.ones(5), r"weight 'w:5' of shape \(5,\) does not match 4 terms"),
        (np.ones((1, 4)), r"weight 'w:5' of shape \(1, 4\) does not match 4 terms"),
    ])
    def test_bad_raw_weight_rejected(self, monkeypatch, bad, message):
        """A raw array that is not finite, or not of length N, is a ValueError
        naming it, in whichever block it comes."""
        monkeypatch.setattr(resampling, "REFIT_BLOCK", 3)
        prob = make_problem("mean", mean_dataset_1236())
        stream = [np.ones(4) - 0.1 * i for i in range(4)] + [bad]
        with pytest.raises(ValueError, match=message):
            run_cv(prob, stream, 1)


class TestBootstrapBlocks:
    """The bootstrap draws its weights in blocks of bounded size."""

    @pytest.mark.parametrize("draws, order", [(0, 1), (-2, 3), (5, -1), (5, -3)])
    def test_bad_draws_or_order_rejected(self, monkeypatch, draws, order):
        """draws < 1 or order < 0 is a ValueError before the first block,
        where draws=0 returned (None, None) and order=-3 ran as order 1."""
        prob = make_problem("mean", mean_dataset_1236())
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        monkeypatch.setattr(resampling, "bootstrap_weight_blocks", None)  # never reached
        with pytest.raises(ValueError, match=f"draws={draws}, order={order}"):
            bootstrap_covariances(prob, theta_hat, hfac, draws, order=order)

    def test_memory_does_not_grow_with_draws(self):
        n = 3000
        data = GeneratorConfig(n_features=3).generate("logistic_regression", n,
                                                      np.random.default_rng(4))
        prob = make_problem("logistic_regression", data)
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        size = models.WEIGHT_BLOCK_ELEMENTS // n
        peaks = []
        for draws in (2 * size, 8 * size):
            bootstrap_covariances(prob, theta_hat, hfac, draws, order=3, seed=1)
            tracemalloc.start()
            bootstrap_covariances(prob, theta_hat, hfac, draws, order=3, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0], peaks

    @pytest.mark.parametrize("order", [1, 3])
    def test_covariances_match_np_cov_of_the_samples(self, monkeypatch, order):
        """The co-moments merged block by block give np.cov of the samples,
        the linear ones of bootstrap_linear_samples and the order-k ones
        expanded per block, over one block, blocks of ten and of three
        draws."""
        n = 50
        prob = build_problem("logistic_regression", np.random.default_rng(14), n=n, dim=3)
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        for elements in (None, 10 * n, 3 * n):
            if elements is not None:
                monkeypatch.setattr(models, "WEIGHT_BLOCK_ELEMENTS", elements)
            samples = (bootstrap_linear_samples(prob, theta_hat, hfac, 200, seed=7),
                       _expanded_samples(prob, theta_hat, hfac, 200, order, seed=7)
                       if order >= 2 else None)
            covs = bootstrap_covariances(prob, theta_hat, hfac, 200, order=order, seed=7)
            assert (covs[1] is None) == (order < 2)
            for cov, x in zip(covs, samples):
                if x is not None:
                    assert cov.shape == (3, 3)
                    assert max_rel_gap(cov, np.cov(x, rowvar=False, bias=True)) <= 1e-14

    def test_covariances_keep_no_samples(self, monkeypatch):
        """The peak traced memory of bootstrap_covariances over 40 blocks is
        within 5% of that over 4 (two (draws, D) sample sets would add about
        30% here)."""
        n = 200
        data = GeneratorConfig(n_features=3).generate("logistic_regression", n,
                                                      np.random.default_rng(4))
        prob = make_problem("logistic_regression", data)
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        monkeypatch.setattr(models, "WEIGHT_BLOCK_ELEMENTS", 10 * n)  # blocks of ten draws
        peaks = []
        for blocks in (4, 40):
            bootstrap_covariances(prob, theta_hat, hfac, 10 * blocks, order=3, seed=1)
            tracemalloc.start()
            bootstrap_covariances(prob, theta_hat, hfac, 10 * blocks, order=3, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0], peaks

    def test_default_blocks_are_bounded_fresh_and_the_single_draws(self):
        n, draws = 3000, 200
        blocks = list(bootstrap_weight_blocks(n, draws, seed=6))
        assert len(blocks) > 1
        assert all(len(b) <= models.WEIGHT_BLOCK_ELEMENTS // n for b in blocks)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(blocks)
                       for b in blocks[i + 1:])
        np.testing.assert_array_equal(
            np.vstack(blocks), [w.values for w in bootstrap_weights(n, draws, seed=6)])


def _expanded_samples(prob, theta_hat, hfac, draws, order, seed):
    """The order-``order`` expansions of the bootstrap draws, shape (draws, D),
    one evaluate_theta_ij call per block of bootstrap_weight_blocks."""
    table = term_tables(order)
    return np.concatenate([
        evaluate_theta_ij(prob, theta_hat, hfac, table, block - 1.0, order).theta_ij
        for block in bootstrap_weight_blocks(prob.n_terms, draws, seed)])


def _csv_rows(report):
    return list(csv.reader(io.StringIO(report.csv_text(), newline="")))


def _per_float_json(report):
    """CvReport.to_json_obj as it was written float by float."""
    records = []
    for o in report.outcomes:
        rec = {
            "label": o.label,
            "theta_ij": None if o.theta_ij is None
                        else [[float(v) for v in th] for th in o.theta_ij],
            "theta_exact": None if o.theta_exact is None
                           else [float(v) for v in o.theta_exact],
            "errors": None if o.errors is None else [float(e) for e in o.errors],
            "refit_error": o.refit_error,
        }
        if o.expand_error is not None:
            rec["expand_error"] = o.expand_error
        records.append(rec)
    obj = {
        "schema_version": resampling.SCHEMA_VERSION,
        "model_id": report.model_id,
        "n_terms": report.n_terms,
        "order": report.order,
        "theta_hat": [float(v) for v in report.theta_hat],
        "outcomes": records,
        "max_error": [float(e) for e in report.max_error],
        "mean_error": [float(e) for e in report.mean_error],
        "metadata": report.metadata,
    }
    if report.bound_per_k is not None:
        obj["bound_per_k"] = [float(b) for b in report.bound_per_k]
    return obj


def _per_float_csv(report):
    rows = [["weight", "k", "error", "bound"]]
    for o in report.outcomes:
        if o.errors is None:
            continue
        for k, err in enumerate(o.errors):
            bound = "" if report.bound_per_k is None else repr(float(report.bound_per_k[k]))
            rows.append([o.label, str(k), repr(float(err)), bound])
    return rows


class TestReportSerialization:
    @pytest.mark.parametrize("with_bounds", [False, True])
    def test_matches_per_float_form(self, with_bounds):
        """Array-built JSON and CSV rows equal the float-by-float ones, byte for
        byte, with a failed expansion, a failed re-fit, both, non-finite
        errors and labels json escapes."""
        from dataclasses import replace

        prob = make_problem("mean", mean_dataset_1236())
        report = run_cv(prob, loo_weights(4), 3, with_bounds=with_bounds)
        outcomes = list(report.outcomes)
        outcomes[0] = replace(outcomes[0], label='drop "1" \\ é\n')
        outcomes[1] = replace(outcomes[1], theta_ij=None, errors=None,
                              expand_error="non-finite contraction")
        outcomes[2] = replace(outcomes[2], theta_exact=None, errors=None,
                              refit_error="line search stalled")
        outcomes[3] = replace(outcomes[3], errors=np.array([np.nan, 0.5, np.inf, -0.0]))
        outcomes.append(replace(outcomes[0], label="both\tfailed", theta_ij=None,
                                theta_exact=None, errors=None, expand_error='bad "x"',
                                refit_error="stalled\u2028"))
        # labels the CSV quotes (delimiter, quote, line breaks), one whose
        # unprintable characters it does not, and plain ones
        for label in ("drop,5", 'say "hi"', "cr\rlf", "tab\tbell\x07\u2028", " ", "%s %r"):
            outcomes.append(replace(outcomes[3], label=label, errors=np.array([0.25, 1e-300, 3.0, -2.5])))
        report = replace(report, outcomes=tuple(outcomes))
        if with_bounds:
            assert report.bound_per_k is not None
        obj = report.to_json_obj()
        got = json.dumps(obj, indent=2, sort_keys=True)
        want = json.dumps(_per_float_json(report), indent=2, sort_keys=True)
        assert got == want
        assert _csv_rows(report) == _per_float_csv(report)
        buf = io.StringIO()
        csv.writer(buf).writerows(_per_float_csv(report))
        assert report.csv_text() == buf.getvalue()

    def test_no_errors_gives_header_only(self):
        from dataclasses import replace

        prob = make_problem("mean", mean_dataset_1236())
        report = replace(run_cv(prob, loo_weights(4, [1]), 1), outcomes=())
        assert _csv_rows(report) == [["weight", "k", "error", "bound"]]
        assert report.csv_text() == "weight,k,error,bound\r\n"


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

    def test_blocks_are_the_single_draws(self, monkeypatch):
        """The default single block, blocks of four draws and blocks of one
        give the same weights bit for bit.  The samples of blocks of four
        are the default's bit for bit; a one-row block's product takes
        another BLAS route, so those agree to rounding."""
        n, draws = 7, 11
        prob = build_problem("logistic_regression", np.random.default_rng(13), n=n, dim=2)
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        runs = []
        for elements, sizes in ((None, [11]), (4 * n, [4, 4, 3]), (n, [1] * 11)):
            if elements is not None:
                monkeypatch.setattr(models, "WEIGHT_BLOCK_ELEMENTS", elements)
            blocks = list(bootstrap_weight_blocks(n, draws, seed=5))
            assert [len(b) for b in blocks] == sizes
            vectors = [w.values for w in bootstrap_weights(n, draws, seed=5)]
            runs.append((np.vstack(blocks), np.array(vectors),
                         bootstrap_linear_samples(prob, theta_hat, hfac, draws, seed=5),
                         _expanded_samples(prob, theta_hat, hfac, draws, 3, seed=5)))
        (blocks, vectors, linear, expanded), fours, ones = runs
        assert blocks.tobytes() == vectors.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(fours, runs[0]))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(ones[:2], runs[0][:2]))
        assert max_rel_gap(ones[2], linear) <= 1e-13
        assert max_rel_gap(ones[3], expanded) <= 1e-13

    def test_one_draw_feeds_both_orders(self, monkeypatch):
        """Across chunk boundaries, both covariances come from one expansion
        of each drawn block: its order-1 partial sums, which are
        bootstrap_linear_samples, and its order-k ones.  TestBlockExpansion
        compares a block's expansion with per-draw calls."""
        rng = np.random.default_rng(11)
        prob = build_problem("logistic_regression", rng, n=15, dim=2)
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        monkeypatch.setattr(models, "WEIGHT_BLOCK_ELEMENTS", 3 * 15)  # blocks of three draws
        calls = []

        def recording(problem, theta, factor, table, delta, order):
            expn = evaluate_theta_ij(problem, theta, factor, table, delta, order)
            calls.append((delta, order, expn.partial_sums()))
            return expn

        monkeypatch.setattr(resampling, "evaluate_theta_ij", recording)
        linear, expanded = bootstrap_covariances(prob, theta_hat, hfac, 7, order=3, seed=8)
        blocks = list(bootstrap_weight_blocks(15, 7, seed=8))
        assert len(calls) == len(blocks) == 3
        for (delta, order, _), block in zip(calls, blocks):
            assert order == 3
            np.testing.assert_array_equal(delta, block - 1.0)
        sums = np.concatenate([c[2] for c in calls])
        assert max_rel_gap(linear, np.cov(sums[:, 1], rowvar=False, bias=True)) <= 1e-14
        assert max_rel_gap(expanded, np.cov(sums[:, 3], rowvar=False, bias=True)) <= 1e-14
        np.testing.assert_allclose(
            sums[:, 1], bootstrap_linear_samples(prob, theta_hat, hfac, 7, seed=8),
            rtol=1e-13, atol=0)
        assert bootstrap_covariances(prob, theta_hat, hfac, 7, seed=8)[1] is None

    def test_terms_come_from_the_cached_rows(self):
        """g_n(theta_hat), which the covariances and the linear samples all
        read, is the order-0 per-datum entries bit for bit, in C order, and
        the order-0 rows are computed once per Hessian factor."""
        rng = np.random.default_rng(12)
        prob = build_problem("logistic_regression", rng, n=40, dim=3, reg={"l2": 0.2})
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        want = per_datum_derivative_entries(prob, theta_hat, 0)
        got = resampling.gn_matrix(theta_hat, hfac)
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)
        first = hfac.rows(0)
        sandwich_covariance(prob, theta_hat, hfac)
        linear_covariance(prob, theta_hat, hfac)
        bootstrap_covariances(prob, theta_hat, hfac, 5, order=3, seed=1)
        bootstrap_linear_samples(prob, theta_hat, hfac, 5, seed=1)
        assert hfac.rows(0) is first
        with pytest.raises(ValueError, match="theta_hat differs"):
            resampling.gn_matrix(theta_hat + 1.0, hfac)

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
