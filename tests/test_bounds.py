"""Constants, the invertibility condition, and the error-bound ladder."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from hoij import (
    Dataset,
    DomainSampler,
    bounds_report,
    check_condition,
    derivative_norm_bounds,
    estimate_constants,
    evaluate_theta_ij,
    factorize_hessian,
    hessian_inverse_norm_check,
    loo_weights,
    make_problem,
    run_cv,
    solve_base,
    taylor_error_bound,
    term_tables,
    theta_difference_bound,
)
from hoij import GeneratorConfig, cli
from hoij import bounds
from hoij import forward_ad as fad
from hoij.bounds import (
    ConditionNotSatisfiedError,
    _g0_derivative_entries,
    full_derivative_entries,
    operator_norm_of_inverse,
    per_datum_derivative_entries,
    perturbed_inverse_bound,
)

from helpers import (
    ALL_MODELS,
    build_problem,
    mean_dataset_1236,
    per_tuple_entries,
    per_tuple_sample_stats,
)


@pytest.fixture(scope="module")
def mean_constants():
    prob = make_problem("mean", mean_dataset_1236())
    theta_hat = solve_base(prob)
    sampler = DomainSampler(theta_hat, 0.0)
    constants = estimate_constants(prob, theta_hat, sampler, order=2, rho=0.5)
    return prob, theta_hat, constants


class TestEstimateConstants:
    def test_mean_model_values(self, mean_constants):
        _, _, c = mean_constants
        assert c.c_op == pytest.approx(1.0, rel=1e-12)
        assert c.m[1] == pytest.approx(1.0, rel=1e-12)
        assert c.m[2] == pytest.approx(0.0, abs=1e-15)
        assert c.m[3] == pytest.approx(0.0, abs=1e-15)
        assert c.l_h == pytest.approx(0.0, abs=1e-15)
        # residuals (2, 1, 0, -3): V_0 = 14/4, T_0 = 3
        assert c.v[0] == pytest.approx(3.5, rel=1e-12)
        assert c.t[0] == pytest.approx(3.0, rel=1e-12)

    def test_exp_loss_sup_on_interval(self):
        # single datum x=1: the first-derivative norm sup over [-r, r] is exp(r)
        prob = make_problem("exp_loss", Dataset(np.array([[1.0]])))
        sampler = DomainSampler(np.zeros(1), 0.1, n_samples=4096, seed=0)
        c = estimate_constants(prob, np.zeros(1), sampler, order=1)
        assert c.m[1] <= np.exp(0.1) + 1e-12
        assert c.m[1] >= np.exp(0.1) * 0.98

    def test_rho_validated(self, mean_constants):
        prob, theta_hat, _ = mean_constants
        with pytest.raises(ValueError, match="rho"):
            estimate_constants(prob, theta_hat, DomainSampler(theta_hat, 0.0), 1, rho=1.0)

    def test_sampler_centred_on_theta_hat(self, mean_constants):
        prob, theta_hat, _ = mean_constants
        with pytest.raises(ValueError, match="not centred on theta_hat"):
            estimate_constants(prob, theta_hat, DomainSampler(theta_hat + 0.5, 0.0), 1)
        # a list and an array holding the same point are the same centre
        c = estimate_constants(prob, list(theta_hat), DomainSampler(theta_hat, 0.0), 1)
        assert c.c_op == pytest.approx(1.0, rel=1e-12)

    def test_order_validated(self, mean_constants):
        # an order-K bound reads derivatives of order K + 1 <= K_MAX
        prob, theta_hat, _ = mean_constants
        with pytest.raises(ValueError, match="bound order 6 outside 0..5"):
            estimate_constants(prob, theta_hat, DomainSampler(theta_hat, 0.0), 6)

    @pytest.mark.parametrize("model_id, dim, order", [
        ("exp_loss", 5, 3),
        ("logistic_regression", 3, 2),
    ])
    def test_matches_per_tuple_loop(self, monkeypatch, model_id, dim, order):
        rng = np.random.default_rng(61)
        prob = build_problem(model_id, rng, n=30, dim=dim, reg={"l2": 0.2})
        center = rng.uniform(-0.3, 0.3, dim)
        sampler = DomainSampler(center, 0.4, n_samples=4, seed=2)
        got = estimate_constants(prob, center, sampler, order, epsilon=0.05)
        monkeypatch.setattr(bounds, "_sample_stats", per_tuple_sample_stats)
        want = estimate_constants(prob, center, sampler, order, epsilon=0.05)
        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(b, dict):
                assert a.keys() == b.keys(), field.name
                a, b = list(a.values()), list(b.values())
            assert a == pytest.approx(b, rel=1e-12, abs=0), field.name


class TestPointStats:
    def test_match_plain_formulas_on_bench_data(self):
        """On the bench's bounds data (exp_loss, N=400, D=5, seed 1907) the
        one-sweep statistics of each order equal, bit for bit, the plain
        formulas over the (N, D, P) rows, at the base fit and sampled points."""
        data = GeneratorConfig(n_features=5).generate("exp_loss", 400,
                                                      np.random.default_rng(1907))
        prob = make_problem("exp_loss", data)
        theta_hat = solve_base(prob)
        n, k_hi = prob.n_terms, 4
        points = list(DomainSampler(theta_hat, 0.05, n_samples=3, seed=1).points())
        for theta in points:
            got = bounds._point_stats(prob, theta, k_hi)
            for k, (g0, per) in fad.per_datum_tensors(prob, theta, range(k_hi + 1)).items():
                mult = np.bincount(fad.basis_multisets(5, k)[1])
                summed = (g0 + per.sum(axis=0)) / n
                sq = np.sum(per * per, axis=1) @ mult
                assert got.m[k] == np.sqrt(float(np.sum(summed * summed, axis=0) @ mult))
                assert got.v[k] == float(sq.mean())
                assert got.t[k] == float(np.max(np.abs(per)))
                assert got.loo_exact[k] == float(np.sqrt(sq.max())) / n
                if k == 1:
                    assert got.c_op == operator_norm_of_inverse(summed)


class TestCentreReuse:
    """default_sampler's pilot and the sampler's first point are the same
    base fit at the same order, differentiated once."""

    @pytest.fixture
    def exp_csv(self, tmp_path):
        data = GeneratorConfig(n_features=3).generate("exp_loss", 60, np.random.default_rng(5))
        path = tmp_path / "x.csv"
        np.savetxt(path, data.features, delimiter=",", fmt="%.17g")
        return str(path)

    @staticmethod
    def count_point_passes(monkeypatch, k_hi):
        passes = []
        per_datum_tensors = fad.per_datum_tensors

        def counting(problem, theta, orders, weights=None, summed=(), out=None):
            if sorted(orders) == list(range(k_hi + 1)):
                passes.append(np.array(theta, dtype=float))
            return per_datum_tensors(problem, theta, orders, weights, summed, out)

        monkeypatch.setattr(fad, "per_datum_tensors", counting)
        return passes

    @pytest.mark.parametrize("samples", [1, 4])
    def test_one_pass_per_sampled_point(self, exp_csv, tmp_path, monkeypatch, samples):
        passes = self.count_point_passes(monkeypatch, k_hi=3)
        assert cli.main(["bounds", "--model", "exp_loss", "--data", exp_csv, "--order", "2",
                         "--samples", str(samples), "--out", str(tmp_path / "b.json")]) == 0
        assert len(passes) == samples

    def test_cv_with_bounds_one_pass_per_sampled_point(self, exp_csv, tmp_path,
                                                        monkeypatch):
        passes = self.count_point_passes(monkeypatch, k_hi=4)
        assert cli.main(["cv", "--model", "exp_loss", "--data", exp_csv, "--order", "3",
                         "--scheme", "loo", "--with-bounds", "--samples", "3",
                         "--out", str(tmp_path / "cv.json")]) == 0
        assert len(passes) == 3

    @pytest.mark.parametrize("model_id", ALL_MODELS)
    def test_same_constants_as_without_reuse(self, model_id):
        rng = np.random.default_rng(71)
        prob = build_problem(model_id, rng, n=40, dim=3, reg={"l2": 0.2})
        theta_hat = solve_base(prob)
        sampler = bounds.default_sampler(prob, theta_hat, 2, n_samples=5, seed=3)
        pilot = estimate_constants(prob, theta_hat, DomainSampler(theta_hat, 0.0), 2)
        assert sampler.radius == 2.0 * pilot.c_op * pilot.delta_exact[0]
        fresh = DomainSampler(theta_hat, sampler.radius, n_samples=5, seed=3)
        assert (estimate_constants(prob, theta_hat, sampler, 2)
                == estimate_constants(prob, theta_hat, fresh, 2))
        # the kept statistics belong to that problem and order only
        other = build_problem(model_id, rng, n=40, dim=3)
        assert (estimate_constants(other, theta_hat, sampler, 2)
                == estimate_constants(other, theta_hat, fresh, 2))
        assert (estimate_constants(prob, theta_hat, sampler, 3)
                == estimate_constants(prob, theta_hat, fresh, 3))


class TestSharedRows:
    """The sampled points of one _sample_stats call share one set of
    per-row arrays: the first pass allocates them, every later pass
    overwrites them."""

    @staticmethod
    def record_passes(monkeypatch):
        passes = []
        per_datum_tensors = fad.per_datum_tensors

        def recording(problem, theta, orders, weights=None, summed=(), out=None):
            result = per_datum_tensors(problem, theta, orders, weights, summed, out)
            passes.append((out, result))
            return result

        monkeypatch.setattr(fad, "per_datum_tensors", recording)
        return passes

    def test_later_points_write_into_the_first_points_arrays(self, monkeypatch):
        rng = np.random.default_rng(72)
        prob = build_problem("exp_loss", rng, n=40, dim=3, reg={"l2": 0.2})
        theta_hat = solve_base(prob)
        sampler = DomainSampler(theta_hat, 0.3, n_samples=5, seed=3)
        passes = self.record_passes(monkeypatch)
        for _ in range(2):
            estimate_constants(prob, theta_hat, sampler, 2)
        assert len(passes) == 10
        for call in (passes[:5], passes[5:]):
            # each call allocates its own set on its first point
            assert call[0][0] is None
            first = call[0][1]
            for out, result in call[1:]:
                assert out is not None
                assert sorted(result) == sorted(first) == [0, 1, 2, 3]
                for k in result:
                    assert np.shares_memory(result[k][1], first[k][1])
        assert not np.shares_memory(passes[0][1][3][1], passes[5][1][3][1])

    @pytest.mark.parametrize("model_id", ALL_MODELS)
    def test_same_constants_as_fresh_arrays(self, model_id, monkeypatch):
        """Constants at orders 1..3 equal, bit for bit, those of a run where
        every pass allocates its own arrays and the centre is measured
        again."""
        rng = np.random.default_rng(73)
        prob = build_problem(model_id, rng, n=40, dim=3, reg={"l2": 0.2})
        theta_hat = solve_base(prob)
        shared = []
        for order in (1, 2, 3):
            sampler = bounds.default_sampler(prob, theta_hat, order, n_samples=6, seed=4)
            shared.append((sampler.radius, estimate_constants(prob, theta_hat, sampler, order)))
        per_datum_tensors = fad.per_datum_tensors
        monkeypatch.setattr(fad, "per_datum_tensors",
                            lambda *args, out=None, **kwargs: per_datum_tensors(*args, **kwargs))
        for (radius, constants), order in zip(shared, (1, 2, 3)):
            fresh = DomainSampler(theta_hat, radius, n_samples=6, seed=4)
            assert constants == estimate_constants(prob, theta_hat, fresh, order)

    def test_non_finite_second_point_raises(self, monkeypatch):
        """A pass that overflows at the second point, writing into the
        first point's arrays, still raises, with no numpy warning."""
        prob = build_problem("exp_loss", np.random.default_rng(74), n=40, dim=3)
        theta_hat = solve_base(prob)
        sampler = DomainSampler(theta_hat, 1e4, n_samples=3, seed=1)
        passes = self.record_passes(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(fad.NonFiniteValueError):
                estimate_constants(prob, theta_hat, sampler, 2)
        # the first point passed; the second raised inside its pass
        assert len(passes) == 1 and passes[0][0] is None

    def test_cv_with_bounds_leaves_the_cached_rows(self, tmp_path):
        """cv --with-bounds expands and re-fits from the Hessian factor's
        cached rows after the sampled points: its theta_ij and errors are
        those of cv without bounds, bit for bit."""
        data = GeneratorConfig(n_features=3).generate("exp_loss", 60,
                                                      np.random.default_rng(9))
        path = tmp_path / "x.csv"
        np.savetxt(path, data.features, delimiter=",", fmt="%.17g")
        reports = []
        for extra in ([], ["--with-bounds", "--samples", "4"]):
            out = tmp_path / f"cv{len(extra)}.json"
            assert cli.main(["cv", "--model", "exp_loss", "--data", str(path),
                             "--order", "3", "--out", str(out), *extra]) == 0
            reports.append(json.loads(out.read_text()))
        plain, bounded = ([(o["theta_ij"], o["errors"], o["theta_exact"])
                           for o in r["outcomes"]] for r in reports)
        assert len(plain) == 60 and plain == bounded
        assert "bound_per_k" in json.dumps(reports[1])


class TestEntryLayout:
    """The flattened entry arrays keep the per-tuple layout."""

    @pytest.mark.parametrize("model_id", ["linear_regression", "exp_loss"])
    def test_views_match_per_tuple_entries(self, model_id):
        rng = np.random.default_rng(62)
        prob = build_problem(model_id, rng, n=8, dim=3, reg={"l2": 0.4})
        theta = rng.uniform(-0.5, 0.5, 3)
        w = rng.uniform(0.2, 1.8, prob.n_terms)
        for k in range(4):
            g0, per = per_tuple_entries(prob, theta, k)
            entries = per_datum_derivative_entries(prob, theta, k)
            np.testing.assert_allclose(entries, per, rtol=1e-12, atol=1e-15)
            # row-major like the per-tuple stack, so BLAS products over the
            # rows (the bootstrap covariances at k = 0) sum in the same order
            assert entries.flags.c_contiguous
            np.testing.assert_allclose(_g0_derivative_entries(prob, theta, k),
                                       g0, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(full_derivative_entries(prob, theta, k, w),
                                       (g0 + w @ per) / prob.n_terms,
                                       rtol=1e-12, atol=1e-15)


class TestLooDelta:
    """The LOO complexity series carried by the estimated constants."""

    def test_mean_model_series(self, mean_constants):
        _, _, c = mean_constants
        assert c.delta_exact[0] == pytest.approx(0.75, rel=1e-12)
        assert c.delta_exact[1] == pytest.approx(0.25, rel=1e-12)
        assert c.delta_exact[2] == pytest.approx(0.0, abs=1e-15)
        assert c.delta_exact[3] == pytest.approx(0.0, abs=1e-15)
        assert c.delta_v[0] == pytest.approx(np.sqrt(3.5 / 4.0), rel=1e-12)
        assert c.delta_t[0] == pytest.approx(0.75, rel=1e-12)

    def test_exact_never_exceeds_sqrt_v(self):
        rng = np.random.default_rng(44)
        for model_id in ALL_MODELS:
            prob = build_problem(model_id, rng)
            theta = np.zeros(prob.dim_theta)
            c = estimate_constants(prob, theta,
                                   DomainSampler(theta, 0.2, n_samples=16, seed=1), 1)
            for k in c.delta_exact:
                assert c.delta_exact[k] <= c.delta_v[k] + 1e-12

    def test_epsilon_correction(self, mean_constants):
        prob, theta_hat, _ = mean_constants
        base = estimate_constants(prob, theta_hat, DomainSampler(theta_hat, 0.0), 1)
        eps = estimate_constants(prob, theta_hat, DomainSampler(theta_hat, 0.0), 1,
                                 epsilon=0.1)
        # M_1 = 1, so the order-1 level gains exactly 0.1
        assert eps.delta_exact[1] == pytest.approx(base.delta_exact[1] + 0.1, rel=1e-12)


class TestCheckCondition:
    def test_mean_satisfied(self, mean_constants):
        _, _, c = mean_constants
        check = check_condition(c, 0.5)
        assert check.c_set == pytest.approx(0.25, rel=1e-12)
        assert check.satisfied
        assert check.c_tilde_op == pytest.approx(2.0, rel=1e-12)

    def test_violated(self, mean_constants):
        _, _, c = mean_constants
        bad = dataclasses.replace(c, delta_exact={**c.delta_exact, 1: 1.0}, c_set=1.0)
        check = check_condition(bad, 0.5)
        assert check.c_set == pytest.approx(1.0)
        assert not check.satisfied

    def test_rho_must_be_open_interval(self, mean_constants):
        _, _, c = mean_constants
        with pytest.raises(ValueError):
            check_condition(c, 1.0)
        with pytest.raises(ValueError):
            check_condition(c, 0.0)


class TestNormBounds:
    def test_mean_model_ladder(self, mean_constants):
        _, _, c = mean_constants
        nb = derivative_norm_bounds(c, 1)
        assert nb[1] == pytest.approx(1.5, rel=1e-12)
        assert nb[2] == pytest.approx(1.5, rel=1e-12)

    def test_actual_derivatives_within_bounds(self, mean_constants):
        prob, theta_hat, c = mean_constants
        nb = derivative_norm_bounds(c, 2)
        hfac = factorize_hessian(prob, theta_hat)
        table = term_tables(3)
        for w in loo_weights(4):
            expn = evaluate_theta_ij(prob, theta_hat, hfac, table, w.delta, 3)
            assert abs(expn.dthetas[0][0]) <= nb[1]
            assert abs(expn.dthetas[1][0]) <= nb[2]

    def test_zero_delta_gives_zero_bounds(self, mean_constants):
        _, _, c = mean_constants
        zeroed = dataclasses.replace(
            c, delta_exact={k: 0.0 for k in c.delta_exact}, c_set=0.0, delta_max=0.0
        )
        nb = derivative_norm_bounds(zeroed, 2)
        assert all(b == 0.0 for b in nb.values())

    def test_condition_failure_refuses(self, mean_constants):
        _, _, c = mean_constants
        bad = dataclasses.replace(c, delta_exact={**c.delta_exact, 1: 1.0},
                                  c_set=1.0)
        with pytest.raises(ConditionNotSatisfiedError, match="C_set"):
            derivative_norm_bounds(bad, 1)

    def test_monotone_in_constants(self, mean_constants):
        """Inflating any level constant never shrinks any bound."""
        _, _, c = mean_constants
        base = derivative_norm_bounds(c, 2)
        for key in (0, 1, 2):
            delta = {**c.delta_exact, key: c.delta_exact[key] + 0.05}
            worse = dataclasses.replace(
                c, delta_exact=delta,
                c_set=c.c_op * delta[1] + c.c_op ** 2 * c.l_h * delta[0])
            if check_condition(worse, worse.rho).satisfied:
                nb = derivative_norm_bounds(worse, 2)
                assert all(nb[k] >= base[k] - 1e-12 for k in nb)
        worse_m = dataclasses.replace(c, m={**c.m, 2: c.m[2] + 0.5})
        nb = derivative_norm_bounds(worse_m, 2)
        assert all(nb[k] >= base[k] - 1e-12 for k in nb)


class TestTaylorErrorBound:
    def test_mean_model_bounds(self, mean_constants):
        _, _, c = mean_constants
        nb = derivative_norm_bounds(c, 1)
        assert taylor_error_bound(0, nb) == pytest.approx(1.5, rel=1e-12)
        assert taylor_error_bound(1, nb) == pytest.approx(1.5, rel=1e-12)
        assert theta_difference_bound(c) == pytest.approx(0.75, rel=1e-12)

    def test_soundness_on_loo(self):
        """Actual LOO errors never exceed the mechanical bounds (K = 0, 1, 2)."""
        rng = np.random.default_rng(77)
        # near-orthogonal bounded design keeps the condition satisfiable
        x = np.column_stack([np.ones(100), rng.uniform(0.0, 1.0, 100) - 0.5])
        y = x @ np.array([1.0, 0.5]) + 0.1 * rng.uniform(-1, 1, 100)
        for prob in (make_problem("mean", mean_dataset_1236()),
                     make_problem("linear_regression", Dataset(x, y))):
            theta_hat = solve_base(prob)
            # enlarge the region enough to cover every LOO solution
            sampler = DomainSampler(theta_hat, 0.0)
            pilot = estimate_constants(prob, theta_hat, sampler, 2)
            sampler = DomainSampler(theta_hat, 2.0 * pilot.c_op * pilot.delta_exact[0],
                                    n_samples=128, seed=5)
            c = estimate_constants(prob, theta_hat, sampler, 2)
            check = check_condition(c, 0.5)
            assert check.satisfied
            nb = derivative_norm_bounds(c, 2)
            report = run_cv(prob, loo_weights(prob.n_terms), 2)
            for k in (0, 1, 2):
                assert report.max_error[k] <= taylor_error_bound(k, nb) + 1e-12

    def test_zero_instance(self, mean_constants):
        _, _, c = mean_constants
        zeroed = dataclasses.replace(c, delta_exact={k: 0.0 for k in c.delta_exact}, c_set=0.0)
        nb = derivative_norm_bounds(zeroed, 1)
        assert taylor_error_bound(1, nb) == 0.0


class TestSegmentCheck:
    def test_mean_loo_segments_pass(self, mean_constants):
        prob, theta_hat, c = mean_constants
        check = check_condition(c, 0.5)
        for w in loo_weights(4):
            report = hessian_inverse_norm_check(prob, theta_hat, w, check.c_tilde_op)
            assert report.passed
            # closed form: inverse norm is N / (N - t) <= 4/3
            assert max(p.inverse_norm for p in report.points) == pytest.approx(4.0 / 3.0)

    def test_base_point_bounded_by_c_op(self, mean_constants):
        prob, theta_hat, c = mean_constants
        report = hessian_inverse_norm_check(prob, theta_hat, np.ones(4), c.c_op)
        assert report.passed

    def test_adversarial_constant_fails_at_base(self, mean_constants):
        prob, theta_hat, c = mean_constants
        report = hessian_inverse_norm_check(prob, theta_hat,
                                            next(iter(loo_weights(4, [4]))),
                                            0.5 * c.c_op)
        assert not report.passed
        assert not report.points[0].ok


class TestMatrixLemmas:
    def test_integral_averaged_matrix_stays_invertible(self):
        """If ||A(t)^{-1}||_op <= C pointwise, the segment average obeys it too.

        Holds for families that are symmetric positive definite pointwise
        (eigenvalue bounds average); checked by quadrature on random PD
        pencils A(t) = A0 + t * A1.
        """
        rng = np.random.default_rng(56)
        for _ in range(25):
            dim = int(rng.integers(2, 6))
            a0 = rng.standard_normal((dim, dim))
            a0 = a0 @ a0.T + 0.5 * np.eye(dim)
            a1 = rng.standard_normal((dim, dim))
            a1 = a1 @ a1.T + 0.5 * np.eye(dim)
            grid = np.linspace(0.0, 1.0, 65)
            mats = [a0 + t * a1 for t in grid]
            c = max(operator_norm_of_inverse(m) for m in mats)
            avg = np.mean(mats, axis=0)   # trapezoid-free mean is fine: ends included
            assert operator_norm_of_inverse(avg) <= c * (1.0 + 1e-9)

    def test_solution_drift_within_c_op_delta0(self):
        """Every LOO re-solve stays within C_op * delta_0 of the base fit,
        once the sampling region covers the re-solved solutions."""
        prob = make_problem("mean", mean_dataset_1236())
        theta_hat = solve_base(prob)
        sampler = DomainSampler(theta_hat, 1.2, n_samples=512, seed=3)
        constants = estimate_constants(prob, theta_hat, sampler, 1)
        bound = theta_difference_bound(constants)
        for w in loo_weights(4):
            from hoij import exact_refit
            drift = np.linalg.norm(exact_refit(prob, w, theta_hat) - theta_hat)
            assert drift <= bound + 1e-12

    def test_perturbed_inverse_bound_randomized(self):
        """||A - D||_2 <= r / C_op implies ||D^{-1}||_op <= C_op / (1 - r)."""
        rng = np.random.default_rng(101)
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            a = rng.standard_normal((dim, dim))
            a = a @ a.T + 0.5 * np.eye(dim)
            c_op = operator_norm_of_inverse(a)
            r = float(rng.uniform(0.05, 0.95))
            e = rng.standard_normal((dim, dim))
            e *= r / (c_op * np.linalg.norm(e))   # ||E||_2 = r / C_op exactly
            d = a + e
            assert operator_norm_of_inverse(d) <= perturbed_inverse_bound(c_op, r) + 1e-9

    def test_perturbation_ratio_domain(self):
        with pytest.raises(ValueError):
            perturbed_inverse_bound(1.0, 1.0)
        with pytest.raises(ValueError):
            perturbed_inverse_bound(1.0, 0.0)


class TestBoundsReport:
    def test_report_shape(self, mean_constants):
        prob, theta_hat, _ = mean_constants
        report = bounds_report(prob, theta_hat, DomainSampler(theta_hat, 0.0),
                               order=1, rho=0.5)
        assert report["condition_satisfied"]
        assert report["C_set"] == pytest.approx(0.25)
        assert report["C_tilde_op"] == pytest.approx(2.0)
        assert set(report["per_k"]) == {"0", "1", "2"}
        for k, rec in report["per_k"].items():
            expected = {"M", "delta_exact", "delta_v", "delta_t"}
            if k != "0":
                expected.add("B")
            assert expected <= set(rec)
        assert report["err_bound_per_K"]["0"] == pytest.approx(1.5)
        assert report["err_bound_per_K"]["1"] == pytest.approx(1.5)
        assert report["sup_estimate"] == "sampled sup"
