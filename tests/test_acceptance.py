"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or in
captured output) and enforces the criterion with plain asserts.
"""

import json
import shutil
import subprocess
import sys
import time

import numpy as np

from hoij import (
    Dataset,
    DomainSampler,
    EstimatingProblem,
    GeneratorConfig,
    WeightVector,
    bootstrap_linear_samples,
    build_term_tables,
    check_condition,
    derivative_norm_bounds,
    estimate_constants,
    evaluate_g,
    evaluate_theta_ij,
    exact_refit,
    factorize_hessian,
    g_theta_derivative,
    hessian_inverse_norm_check,
    ij_linear_covariance,
    loo_weights,
    make_problem,
    run_cv,
    sandwich_covariance,
    scaling_study,
    solve_base,
    taylor_error_bound,
    term_tables,
    verify_table_invariants,
)
from hoij.bounds import (
    SolveConfig,
    array_p_norm,
    full_derivative_entries,
    mean_term_norm_bound,
    operator_norm_of_inverse,
    per_datum_derivative_entries,
    perturbed_inverse_bound,
    _g0_derivative_entries,
)

from helpers import (
    ALL_MODELS,
    FD_STEP,
    build_problem,
    fd_nth_scalar,
    mean_dataset_1236,
    rel_err,
    richardson_directional,
    subprocess_env,
)


def report(num, description, fn):
    try:
        fn()
    except AssertionError:
        print(f"[criterion {num:2d}] FAIL  {description}")
        raise
    print(f"[criterion {num:2d}] PASS  {description}")


def test_criterion_1_term_tables():
    def body():
        table = build_term_tables(6)
        as_set = lambda k: {(t.coeff, t.kset, t.omega) for t in table.for_order(k)}
        assert as_set(1) == {(1, (), 1)}
        assert as_set(2) == {(1, (1, 1), 0), (2, (1,), 1)}
        assert as_set(3) == {(1, (1, 1, 1), 0), (3, (2, 1), 0),
                             (3, (2,), 1), (3, (1, 1), 1)}
        assert verify_table_invariants(table).passed
        for k in range(1, 7):
            for t in table.for_order(k):
                assert (max(t.kset) if t.kset else 0) < k
                assert t.omega + sum(t.kset) == k

    report(1, "term tables through order 3 exact, invariants through order 6", body)


def test_criterion_2_ad_vs_finite_differences():
    def body():
        rng = np.random.default_rng(2024)
        for model_id in ALL_MODELS:
            prob = build_problem(model_id, rng, n=12, dim=2)
            w = rng.uniform(0.2, 1.8, prob.n_terms)
            for i in range(50):
                order = i % 4 + 1
                theta = rng.uniform(-0.6, 0.6, prob.dim_theta)
                dirs = [rng.uniform(-1.0, 1.0, prob.dim_theta) for _ in range(order)]
                dirs = [d / np.linalg.norm(d) for d in dirs]
                ad = g_theta_derivative(prob, theta, w, dirs)
                fd = richardson_directional(
                    lambda t: evaluate_g(prob, t, w), theta, dirs, FD_STEP[order]
                )
                assert rel_err(ad, fd) < 1e-5, (model_id, order, rel_err(ad, fd))

    report(2, "AD orders 1-4 match Richardson finite differences, rel < 1e-5", body)


def test_criterion_3_implicit_derivative_oracle():
    def body():
        rng = np.random.default_rng(3)
        for model_id in ["mean", "linear_regression"]:
            n, dim = 14, 2
            x = rng.uniform(-1.0, 1.0, (n, dim))
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
            dw[2], dw[9] = -1.0, 0.7
            expn = evaluate_theta_ij(prob, theta_hat, hfac, term_tables(3), dw, 3)

            def refit_at(t):
                return exact_refit(prob, 1.0 + t * dw, theta_hat, cfg)

            for k, h in [(1, 1e-4), (2, 2e-3), (3, 2e-2)]:
                fd = fd_nth_scalar(refit_at, k, h)
                err = rel_err(expn.dthetas[k - 1], fd, floor=1e-8)
                assert err < 1e-4, (model_id, k, err)

    report(3, "d_k matches finite differences of the re-fit curve, rel < 1e-4", body)


def test_criterion_4_mean_model_closed_form():
    def body():
        prob = make_problem("mean", mean_dataset_1236())
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        w = next(iter(loo_weights(4, [4])))
        expn = evaluate_theta_ij(prob, theta_hat, hfac, term_tables(3), w.delta, 3)
        exact = exact_refit(prob, w, theta_hat)
        assert abs(exact[0] - 2.0) <= 1e-12
        for k, target in [(1, 2.25), (2, 2.0625), (3, 2.015625)]:
            assert abs(expn.partial_sum(k)[0] - target) <= 1e-12, (k, expn.partial_sum(k))

    report(4, "4-point mean model: orders 1-3 hit 2.25 / 2.0625 / 2.015625 to 1e-12", body)


def test_criterion_5_affine_model_first_order_exact():
    def body():
        rng = np.random.default_rng(55)
        n, dim = 10, 2
        x = rng.standard_normal((n, dim))

        def term(i, theta):
            if i == 0:
                return [theta[d] for d in range(dim)]
            return [-x[i - 1, d] for d in range(dim)]

        prob = EstimatingProblem(dim, n, term, model_id="affine")
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        table = term_tables(3)
        for _ in range(20):
            w = WeightVector(rng.uniform(0.0, 2.0, n))
            expn = evaluate_theta_ij(prob, theta_hat, hfac, table, w.delta, 3)
            exact = exact_refit(prob, w, theta_hat)
            assert np.linalg.norm(expn.partial_sum(1) - exact) <= 1e-12
            for k in (2, 3):
                assert np.linalg.norm(expn.dthetas[k - 1]) <= 1e-12

    report(5, "solution affine in weights: order 1 exact, higher orders vanish", body)


def test_criterion_6_bootstrap_covariance_identity():
    def body():
        rng = np.random.default_rng(66)
        for model_id in ALL_MODELS:
            for n, dim in [(40, 1), (120, 3)]:
                # keep exp_loss covariates mixed-sign so a root exists
                prob = build_problem(model_id, rng, n=n, dim=dim)
                theta_hat = solve_base(prob)
                hfac = factorize_hessian(prob, theta_hat)
                s = sandwich_covariance(prob, theta_hat, hfac)
                l = ij_linear_covariance(prob, theta_hat, hfac)
                assert np.max(np.abs(s - l)) <= 1e-12, (model_id, n, dim)

        # Monte-Carlo agreement over 1e5 draws, elementwise 3 standard errors
        prob = build_problem("linear_regression", rng, n=100, dim=2)
        theta_hat = solve_base(prob)
        hfac = factorize_hessian(prob, theta_hat)
        exact = ij_linear_covariance(prob, theta_hat, hfac)
        samples = bootstrap_linear_samples(prob, theta_hat, hfac, 100_000, seed=606)
        emp = np.cov(samples, rowvar=False, bias=True)
        z = samples - samples.mean(axis=0)
        se = np.sqrt(np.var(z[:, :, None] * z[:, None, :], axis=0) / samples.shape[0])
        assert np.all(np.abs(emp - exact) <= 3.0 * se)

    report(6, "linear-bootstrap covariance equals the sandwich form to 1e-12; "
              "Monte-Carlo within 3 se", body)


def test_criterion_7_loo_error_rates():
    def body():
        t0 = time.perf_counter()
        grid = [50, 100, 200, 400, 800]
        targets = {0: -1.0, 1: -2.0, 2: -3.0}
        for model_id, gen in [("mean", GeneratorConfig()),
                              ("linear_regression", GeneratorConfig(n_features=2))]:
            rep = scaling_study(model_id, gen, grid, 2, seed=7)
            assert rep.n_grid == tuple(grid), rep.failures
            for k, target in targets.items():
                slope, _ = rep.slopes[k]
                assert abs(slope - target) <= 0.35, (model_id, k, slope)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"rate check took {elapsed:.1f}s"

    report(7, "full-LOO error rates fit slopes -1/-2/-3 within 0.35, under 60 s", body)


def test_criterion_8_bound_soundness():
    def body():
        prob = make_problem("mean", mean_dataset_1236())
        theta_hat = solve_base(prob)
        constants = estimate_constants(prob, theta_hat, DomainSampler(theta_hat, 0.0),
                                       order=1, rho=0.5)
        check = check_condition(constants, 0.5)
        assert check.satisfied
        assert abs(check.c_set - 0.25) <= 1e-12
        nb = derivative_norm_bounds(constants, 1)
        assert abs(nb[1] - 1.5) <= 1e-12
        assert abs(nb[2] - 1.5) <= 1e-12
        rep = run_cv(prob, loo_weights(4), 1)
        for k in (0, 1):
            assert rep.max_error[k] <= taylor_error_bound(k, nb)
        for w in loo_weights(4):
            seg = hessian_inverse_norm_check(prob, theta_hat, w, check.c_tilde_op)
            assert seg.passed

    report(8, "radius-0 mean-model constants: C_set 0.25, B_1 = B_2 = 1.5, "
              "errors within bounds, segments pass", body)


def test_criterion_9_norm_utilities():
    def body():
        rng = np.random.default_rng(99)
        # derivative-array norm bound on 100 randomized instances
        for _ in range(100):
            model_id = ALL_MODELS[rng.integers(len(ALL_MODELS))]
            prob = build_problem(model_id, rng, n=int(rng.integers(4, 12)),
                                 dim=int(rng.integers(1, 3)))
            theta = rng.uniform(-0.5, 0.5, prob.dim_theta)
            k = int(rng.integers(0, 3))
            g_entries = full_derivative_entries(prob, theta, k)
            stacked = np.vstack([
                _g0_derivative_entries(prob, theta, k)[None, :],
                per_datum_derivative_entries(prob, theta, k),
            ])
            for p in (1, 2, "inf"):
                assert array_p_norm(g_entries, p) <= \
                    mean_term_norm_bound(stacked, p) + 1e-12
            assert array_p_norm(g_entries, 1) <= \
                array_p_norm(stacked, 1) / prob.n_terms + 1e-12

        # inverse-operator-norm continuity on 100 randomized instances
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            a = rng.standard_normal((dim, dim))
            a = a @ a.T + 0.3 * np.eye(dim)
            c_op = operator_norm_of_inverse(a)
            r = float(rng.uniform(0.05, 0.95))
            e = rng.standard_normal((dim, dim))
            e *= r / (c_op * np.linalg.norm(e))
            assert operator_norm_of_inverse(a + e) <= \
                perturbed_inverse_bound(c_op, r) + 1e-9

    report(9, "array-norm and perturbed-inverse inequalities on 100 instances each", body)


def test_criterion_10_cli_determinism(tmp_path):
    def body():
        exe = [shutil.which("hoij")] if shutil.which("hoij") \
            else [sys.executable, "-m", "hoij.cli"]
        env = subprocess_env()
        data = tmp_path / "x.csv"
        data.write_text("1\n2\n3\n6\n")

        cv_out = tmp_path / "cv.json"
        cv_args = exe + ["cv", "--model", "mean", "--data", str(data),
                         "--order", "2", "--scheme", "bootstrap", "--draws", "12",
                         "--seed", "13", "--out", str(cv_out)]
        subprocess.run(cv_args, check=True, capture_output=True, env=env)
        first = cv_out.read_bytes()
        first_csv = (tmp_path / "cv.csv").read_bytes()
        subprocess.run(cv_args, check=True, capture_output=True, env=env)
        assert cv_out.read_bytes() == first
        assert (tmp_path / "cv.csv").read_bytes() == first_csv

        sc_out = tmp_path / "scaling.json"
        sc_args = exe + ["scaling", "--model", "mean", "--grid", "40,80,160",
                         "--order", "1", "--seed", "21", "--out", str(sc_out)]
        subprocess.run(sc_args, check=True, capture_output=True, env=env)
        first = sc_out.read_bytes()
        subprocess.run(sc_args, check=True, capture_output=True, env=env)
        assert sc_out.read_bytes() == first
        obj = json.loads(first)
        assert obj["schema_version"] == 1 and "config" in obj

    report(10, "repeated seeded cv and scaling invocations are byte-identical", body)
