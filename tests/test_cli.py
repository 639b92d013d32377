"""Command-line surface: subcommands, exit codes, and output files."""

import json
import subprocess
import sys

import numpy as np
import pytest

from hoij import (
    DomainSampler,
    cli,
    load_dataset,
    loo_weights,
    make_problem,
    resampling,
    run_cv,
    solve_base,
)
from hoij.cli import main

from helpers import subprocess_env


@pytest.fixture
def mean_csv(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("1\n2\n3\n6\n")
    return str(p)


@pytest.fixture
def linreg_csv(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (20, 2))
    y = x @ np.array([1.0, 2.0]) + 0.1 * rng.standard_normal(20)
    p = tmp_path / "xy.csv"
    p.write_text("\n".join(f"{a},{b},{c}" for (a, b), c in zip(x, y)) + "\n")
    return str(p)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestTermsCommand:
    def test_tables_dump(self, tmp_path, capsys):
        out = tmp_path / "terms.json"
        assert main(["terms", "--max-order", "3", "--out", str(out)]) == 0
        obj = read_json(out)
        assert obj["schema_version"] == 1
        assert obj["tables"]["1"] == [{"a": 1, "kset": [], "omega": 1}]
        assert {(tuple(r["kset"]), r["a"], r["omega"]) for r in obj["tables"]["2"]} \
            == {((1, 1), 1, 0), ((1,), 2, 1)}
        assert len(obj["tables"]["3"]) == 4

    def test_order_cap(self):
        assert main(["terms", "--max-order", "9"]) == 2


class TestFitCommand:
    def test_mean_fit(self, mean_csv, tmp_path):
        out = tmp_path / "fit.json"
        rc = main(["fit", "--model", "mean", "--data", mean_csv, "--out", str(out)])
        assert rc == 0
        obj = read_json(out)
        assert obj["theta_hat"] == [3.0]
        assert obj["config"]["model"] == "mean"

    def test_unknown_model_is_usage_error(self, mean_csv):
        assert main(["fit", "--model", "nope", "--data", mean_csv]) == 2

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["fit", "--model", "mean", "--data", str(tmp_path / "nope.csv")]) == 2

    def test_bad_data_is_usage_error(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1\nnan\n")
        assert main(["fit", "--model", "mean", "--data", str(p)]) == 2

    @pytest.mark.parametrize("rows", [
        [[1, 2]],                       # a row that is not an object
        [5],
        [{"x": 3}],                     # an 'x' that is not a list
        [{"x": "12"}],
        [{"x": [1.0]}, {"x": [1.0, 2.0]}],
    ])
    def test_malformed_json_is_usage_error(self, tmp_path, capsys, rows):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(rows))
        rc = main(["fit", "--model", "mean", "--data", str(p), "--format", "json"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("usage error: row ") and len(err.strip().splitlines()) == 1


class TestCvCommand:
    def test_mean_loo_report(self, mean_csv, tmp_path):
        out = tmp_path / "cv.json"
        rc = main(["cv", "--model", "mean", "--data", mean_csv,
                   "--order", "2", "--scheme", "loo", "--out", str(out)])
        assert rc == 0
        obj = read_json(out)
        assert obj["max_error"][2] == pytest.approx(0.0625, abs=1e-12)
        assert obj["config"]["order"] == 2
        # flat CSV companion exists with one row per weight per order
        csv_lines = (tmp_path / "cv.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "weight,k,error,bound"
        assert len(csv_lines) == 1 + 4 * 3

    def test_order_over_cap_usage_error(self, mean_csv):
        assert main(["cv", "--model", "mean", "--data", mean_csv, "--order", "99"]) == 2

    def test_with_bounds(self, mean_csv, tmp_path):
        out = tmp_path / "cvb.json"
        rc = main(["cv", "--model", "mean", "--data", mean_csv, "--order", "1",
                   "--scheme", "loo", "--with-bounds", "--radius", "0.0",
                   "--out", str(out)])
        assert rc == 0
        obj = read_json(out)
        assert obj["metadata"]["condition_satisfied"] is True
        assert obj["bound_per_k"][1] == pytest.approx(1.5)

    def test_radius_solves_base_once(self, linreg_csv, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return solve_base(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_base", counting)
        monkeypatch.setattr(resampling, "solve_base", counting)
        out = tmp_path / "cvr.json"
        rc = main(["cv", "--model", "linear_regression", "--data", linreg_csv,
                   "--order", "2", "--scheme", "loo", "--with-bounds",
                   "--radius", "0.3", "--samples", "8", "--seed", "4",
                   "--out", str(out)])
        assert rc == 0
        assert len(calls) == 1
        # same report as a sampler centred on a separately solved base fit
        problem = make_problem("linear_regression", load_dataset(linreg_csv, response=True))
        sampler = DomainSampler(solve_base(problem), 0.3, n_samples=8, seed=4)
        want = run_cv(problem, loo_weights(problem.n_terms), 2, with_bounds=True,
                      sampler=lambda _: sampler, metadata={"scheme": "loo", "seed": 4})
        got = read_json(out)
        for key, value in json.loads(json.dumps(want.to_json_obj())).items():
            assert got[key] == value, key


    @pytest.mark.parametrize("radius", [[], ["--radius", "0.3"]])
    def test_with_bounds_passes_samples_and_seed(self, linreg_csv, tmp_path, monkeypatch,
                                                 radius):
        seen = []

        def recording(problem, theta_hat, sampler, *args, **kwargs):
            seen.append((sampler.n_samples, sampler.seed))
            return estimate_constants(problem, theta_hat, sampler, *args, **kwargs)

        estimate_constants = resampling.estimate_constants
        monkeypatch.setattr(resampling, "estimate_constants", recording)
        rc = main(["cv", "--model", "linear_regression", "--data", linreg_csv,
                   "--order", "1", "--scheme", "kfold", "--folds", "2", "--with-bounds",
                   "--samples", "8", "--seed", "5", "--out", str(tmp_path / "cv.json"),
                   *radius])
        assert rc == 0
        assert seen == [(8, 5)]


class TestStreamValidation:
    """Empty or degenerate weight streams are usage errors, not NaN reports."""

    @pytest.mark.parametrize("argv", [
        ["bootstrap", "--draws", "0"],
        ["bootstrap", "--draws", "-3", "--order", "2"],
        ["cv", "--scheme", "bootstrap", "--draws", "0"],
        ["cv", "--scheme", "kappa", "--draws", "0"],
        ["expand", "--scheme", "bootstrap", "--draws", "0"],
        ["expand", "--scheme", "kappa", "--draws", "-1"],
        ["cv", "--scheme", "kfold", "--folds", "1"],
        ["expand", "--scheme", "kfold", "--folds", "1"],
    ])
    def test_usage_error(self, mean_csv, tmp_path, capsys, argv):
        out = tmp_path / "o.json"
        rc = main(argv + ["--model", "mean", "--data", mean_csv, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("usage error: ") and len(err.strip().splitlines()) == 1
        assert not out.exists()


class TestOtherCommands:
    def test_expand(self, mean_csv, tmp_path):
        out = tmp_path / "exp.json"
        rc = main(["expand", "--model", "mean", "--data", mean_csv,
                   "--order", "3", "--scheme", "loo", "--out", str(out)])
        assert rc == 0
        obj = read_json(out)
        drop4 = obj["expansions"][3]
        assert drop4["theta_ij"][-1] == [pytest.approx(2.015625, abs=1e-12)]

    def test_bootstrap(self, linreg_csv, tmp_path):
        out = tmp_path / "boot.json"
        rc = main(["bootstrap", "--model", "linear_regression", "--data", linreg_csv,
                   "--draws", "500", "--seed", "3", "--out", str(out)])
        assert rc == 0
        obj = read_json(out)
        assert obj["identity_max_abs_gap"] <= 1e-12
        s = np.array(obj["sandwich_covariance"])
        assert s.shape == (2, 2)

    def test_bootstrap_higher_order_stats(self, mean_csv, tmp_path):
        out = tmp_path / "boot2.json"
        rc = main(["bootstrap", "--model", "mean", "--data", mean_csv,
                   "--draws", "50", "--order", "2", "--seed", "4",
                   "--out", str(out)])
        assert rc == 0
        obj = read_json(out)
        assert "empirical_covariance_order_k" in obj

    def test_cv_kfold_scheme(self, mean_csv, tmp_path):
        out = tmp_path / "kf.json"
        rc = main(["cv", "--model", "mean", "--data", mean_csv, "--order", "1",
                   "--scheme", "kfold", "--folds", "2", "--seed", "1",
                   "--out", str(out)])
        assert rc == 0
        assert len(read_json(out)["outcomes"]) == 2

    def test_bounds(self, mean_csv, tmp_path):
        out = tmp_path / "bounds.json"
        rc = main(["bounds", "--model", "mean", "--data", mean_csv,
                   "--order", "1", "--radius", "0.0", "--rho", "0.5",
                   "--out", str(out)])
        assert rc == 0
        obj = read_json(out)
        assert obj["condition_satisfied"] is True
        assert obj["C_set"] == pytest.approx(0.25)

    @pytest.mark.parametrize("argv", [
        ["bounds", "--radius", "0.0"],
        ["cv", "--scheme", "loo", "--with-bounds", "--radius", "0.0"],
    ])
    def test_bounds_order_cap_usage_error(self, mean_csv, capsys, argv):
        # the constants of an order-6 bound would need order-7 derivatives
        rc = main(argv + ["--model", "mean", "--data", mean_csv, "--order", "6"])
        assert rc == 2
        assert "--order must be in 0..5 for error bounds, got 6" in capsys.readouterr().err

    def test_scaling(self, tmp_path):
        out = tmp_path / "scale.json"
        rc = main(["scaling", "--model", "mean", "--grid", "30,60,120",
                   "--order", "1", "--seed", "5", "--out", str(out)])
        assert rc == 0
        obj = read_json(out)
        assert obj["n_grid"] == [30, 60, 120]
        assert (tmp_path / "scale.csv").exists()


class TestDeterminism:
    def test_cv_bitwise_identical(self, mean_csv, tmp_path):
        out = tmp_path / "a.json"
        args = ["cv", "--model", "mean", "--data", mean_csv, "--order", "2",
                "--scheme", "bootstrap", "--draws", "10", "--seed", "7",
                "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        first_csv = (tmp_path / "a.csv").read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first
        assert (tmp_path / "a.csv").read_bytes() == first_csv

    def test_scaling_bitwise_identical(self, tmp_path):
        out = tmp_path / "sa.json"
        args = ["scaling", "--model", "mean", "--grid", "30,60", "--order", "1",
                "--seed", "9", "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first


class TestEntryPoint:
    def test_module_invocation(self, mean_csv):
        proc = subprocess.run(
            [sys.executable, "-m", "hoij.cli", "fit", "--model", "mean",
             "--data", mean_csv],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["theta_hat"] == [3.0]

    def test_usage_exit_code(self):
        proc = subprocess.run([sys.executable, "-m", "hoij.cli", "fit"],
                              capture_output=True, text=True, env=subprocess_env())
        assert proc.returncode == 2
