"""Command-line surface: subcommands, exit codes, and output files."""

import contextlib
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoij import (
    Dataset,
    DatasetError,
    DomainSampler,
    GeneratorConfig,
    cli,
    evaluate_theta_ij,
    factorize_hessian,
    leave_kappa_out_weights,
    load_dataset,
    loo_weights,
    make_problem,
    models,
    resampling,
    run_cv,
    solve_base,
    term_tables,
)
from hoij import forward_ad as fad
from hoij.cli import main

from helpers import max_rel_gap, subprocess_env


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

    @pytest.mark.parametrize("fmt, text", [
        ("csv", "1,2\n3,4\n5,7\n"),
        ("json", json.dumps([{"x": [1.0, 2.0]}, {"x": [3.0, 4.0]}, {"x": [5.0, 7.0]}])),
    ])
    def test_byte_order_mark_fits_as_unmarked(self, tmp_path, fmt, text):
        """A spreadsheet's "CSV UTF-8" export starts with a UTF-8 byte-order
        mark; the fit is that of the same file without it."""
        fits = []
        for mark in ("", "\ufeff"):
            data, out = tmp_path / f"d{len(mark)}.{fmt}", tmp_path / f"fit{len(mark)}.json"
            data.write_bytes((mark + text).encode())
            assert main(["fit", "--model", "mean", "--data", str(data), "--format", fmt,
                         "--out", str(out)]) == 0
            fits.append(read_json(out)["theta_hat"])
        assert fits[0] == fits[1] == [3.0, 13 / 3]

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

    def test_no_scored_weight_writes_null_errors(self, tmp_path):
        """Each leave-9-out weight of a 10-row logistic problem keeps one
        row, where the Jacobian is singular and the re-fit fails.  With no
        weight scored, max_error and mean_error are null at every order, not
        NaN, which JSON does not have."""
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 1.0, (10, 2))
        x[:, 0] = 1.0
        y = (rng.random(10) < 0.5).astype(float)
        data = tmp_path / "logistic.csv"
        rows = zip(x.tolist(), y.tolist())
        data.write_text("".join(f"{a!r},{b!r},{c!r}\n" for (a, b), c in rows))
        out = tmp_path / "cv.json"
        assert main(["cv", "--model", "logistic_regression", "--data", str(data),
                     "--scheme", "kappa", "--kappa", "9", "--draws", "2", "--order", "3",
                     "--out", str(out)]) == 0

        def no_constant(name):
            raise AssertionError(f"{name} written into the JSON file")

        obj = json.loads(out.read_text(), parse_constant=no_constant)
        assert all(o["refit_error"] and o["errors"] is None for o in obj["outcomes"])
        assert obj["max_error"] == obj["mean_error"] == [None] * 4

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


    @pytest.mark.parametrize("scheme, rc", [
        (["--scheme", "kfold", "--folds", "2"], 2),
        (["--scheme", "bootstrap"], 2),
        (["--scheme", "kappa", "--kappa", "2"], 2),
        (["--scheme", "kappa", "--kappa", "1"], 0),
    ])
    def test_with_bounds_needs_loo_weights(self, mean_csv, tmp_path, capsys, scheme, rc):
        """Bounds from the leave-one-out set complexity do not hold for other
        weights, so those are a usage error and nothing is written."""
        out = tmp_path / "cv.json"
        assert main(["cv", "--model", "mean", "--data", mean_csv, "--with-bounds",
                     "--samples", "4", *scheme, "--out", str(out)]) == rc
        err = capsys.readouterr().err
        if rc:
            assert err.startswith("usage error: ") and len(err.strip().splitlines()) == 1
        assert out.exists() == out.with_suffix(".csv").exists() == (rc == 0)

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
                   "--order", "1", "--scheme", "loo", "--with-bounds",
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
        ["cv", "--scheme", "kappa", "--kappa", "4", "--draws", "1"],
        ["expand", "--scheme", "kappa", "--kappa", "4", "--draws", "1"],
    ])
    def test_usage_error(self, mean_csv, tmp_path, capsys, argv):
        out = tmp_path / "o.json"
        rc = main(argv + ["--model", "mean", "--data", mean_csv, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("usage error: ") and len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", [["cv"], ["expand", "--order", "2"]])
    def test_one_row_loo_is_degenerate(self, tmp_path, capsys, command):
        """The only leave-one-out weight of one row is all zeros, where any
        theta is a root of the mean model: not "exact, error 0"."""
        data = tmp_path / "one.csv"
        data.write_text("3\n")
        out = tmp_path / "o.json"
        rc = main([*command, "--model", "mean", "--data", str(data), "--scheme", "loo",
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("usage error: ") and len(err.strip().splitlines()) == 1
        assert "at least 2 rows" in err
        assert not out.exists() and not out.with_suffix(".csv").exists()

    def test_one_row_bounds_is_a_usage_error(self, tmp_path, capsys):
        """bounds takes the leave-one-out maximum over the rows itself, so
        one row, whose only leave-one-out weight is all zeros, is refused
        there too, not written as constants."""
        data = tmp_path / "one.csv"
        data.write_text("3\n")
        out = tmp_path / "o.json"
        rc = main(["bounds", "--model", "mean", "--data", str(data), "--samples", "2",
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("usage error: ") and len(err.strip().splitlines()) == 1
        assert "at least 2 rows" in err
        assert not out.exists()


class TestBadFlagsBeforeWork:
    """A flag value that can only fail is refused before the data is read."""

    @pytest.mark.parametrize("command", [["cv", "--with-bounds"], ["bounds"]])
    @pytest.mark.parametrize("rho", ["2", "1", "0", "-0.5", "nan", "inf"])
    def test_rho_outside_unit_interval(self, mean_csv, tmp_path, capsys, monkeypatch,
                                       command, rho):
        def spy(*args, **kwargs):
            raise AssertionError("the data was read")

        monkeypatch.setattr(models, "load_dataset", spy)
        monkeypatch.setattr(resampling, "run_cv", spy)
        out = tmp_path / "o.json"
        rc = main([*command, "--model", "mean", "--data", mean_csv, "--rho", rho,
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith("usage error: --rho") and len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("out", ["DIR", "DIR/missing/r.json", "DIR/csvdir.json"])
    def test_unwritable_out(self, mean_csv, tmp_path, capsys, monkeypatch, out):
        """--out naming a directory, a file in a directory that does not
        exist, or a JSON file whose CSV sibling is a directory."""
        def spy(*args, **kwargs):
            raise AssertionError("the data was read")

        monkeypatch.setattr(models, "load_dataset", spy)
        monkeypatch.setattr(resampling, "run_cv", spy)
        (tmp_path / "csvdir.csv").mkdir()
        rc = main(["cv", "--model", "mean", "--data", mean_csv,
                   "--out", out.replace("DIR", str(tmp_path))])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith("usage error: output file ") and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "csvdir.json").exists()


class TestOutputsSpareTheDataset:
    """An output file that would land on --data, or on the command's other
    output file, is a usage error, and nothing is written."""

    def test_cv_csv_sibling(self, tmp_path, capsys):
        data = tmp_path / "runs.csv"
        data.write_text("1\n2\n3\n6\n")
        out = tmp_path / "runs.json"
        rc = main(["cv", "--model", "mean", "--data", str(data), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("usage error: ") and len(err.strip().splitlines()) == 1
        assert data.read_text() == "1\n2\n3\n6\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["cv", "--model", "mean", "--data", "DATA"],
        ["scaling", "--model", "mean", "--grid", "20,40"],
    ])
    def test_csv_out_would_overwrite_its_json(self, tmp_path, capsys, argv):
        """cv and scaling write a CSV next to --out with the suffix .csv, so an
        --out ending in .csv would be written twice, the JSON lost."""
        data = tmp_path / "x.csv"
        data.write_text("1\n2\n3\n6\n")
        out = tmp_path / "r.csv"
        argv = [str(data) if a == "DATA" else a for a in argv]
        rc = main([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("usage error: ") and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_fit_json_same_path(self, tmp_path, capsys):
        data = tmp_path / "d.json"
        text = json.dumps([{"x": [1.0]}, {"x": [2.0]}, {"x": [4.0]}])
        data.write_text(text)
        # the same file, reached through another spelling of its path
        (tmp_path / "sub").mkdir()
        rc = main(["fit", "--model", "mean", "--format", "json", "--data", str(data),
                   "--out", str(tmp_path / "sub" / ".." / "d.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("usage error: ") and len(err.strip().splitlines()) == 1
        assert data.read_text() == text


class TestOtherCommands:
    def test_expand(self, mean_csv, tmp_path):
        out = tmp_path / "exp.json"
        rc = main(["expand", "--model", "mean", "--data", mean_csv,
                   "--order", "3", "--scheme", "loo", "--out", str(out)])
        assert rc == 0
        obj = read_json(out)
        drop4 = obj["expansions"][3]
        assert drop4["theta_ij"][-1] == [pytest.approx(2.015625, abs=1e-12)]

    def test_expand_blocks_match_one_weight_calls(self, linreg_csv, tmp_path, monkeypatch):
        """A stream over several blocks: every record is the one-weight
        expansion of its weight vector."""
        monkeypatch.setattr(models, "WEIGHT_BLOCK_ELEMENTS", 120)  # 6 weights of 20
        out = tmp_path / "exp.json"
        assert main(["expand", "--model", "linear_regression", "--data", linreg_csv,
                     "--order", "3", "--scheme", "kappa", "--kappa", "2", "--draws", "15",
                     "--seed", "2", "--out", str(out)]) == 0
        records = read_json(out)["expansions"]
        problem = make_problem("linear_regression", load_dataset(linreg_csv, response=True))
        theta_hat = solve_base(problem)
        hfac = factorize_hessian(problem, theta_hat)
        weights = list(leave_kappa_out_weights(20, 2, seed=2, count=15))
        assert [r["label"] for r in records] == [w.label for w in weights]
        for rec, w in zip(records, weights):
            want = evaluate_theta_ij(problem, theta_hat, hfac, term_tables(3), w.delta, 3)
            for got, d in zip(rec["dthetas"], want.dthetas, strict=True):
                assert max_rel_gap(got, d) <= 1e-14
            for k, got in enumerate(rec["theta_ij"]):
                assert max_rel_gap(got, want.partial_sum(k)) <= 1e-14

    def test_bootstrap(self, linreg_csv, tmp_path):
        out = tmp_path / "boot.json"
        rc = main(["bootstrap", "--model", "linear_regression", "--data", linreg_csv,
                   "--draws", "500", "--seed", "3", "--out", str(out)])
        assert rc == 0
        obj = read_json(out)
        assert obj["identity_max_abs_gap"] <= 1e-12
        s = np.array(obj["sandwich_covariance"])
        assert s.shape == (2, 2)

    def test_bootstrap_differentiates_the_terms_once(self, linreg_csv, tmp_path,
                                                     monkeypatch):
        """The sandwich, the linear covariance and the expansion behind both
        sample sets share one pass at theta_hat: over the order-0 rows at
        order 1, and over the rows below order 3 and the order-3 sum at
        order 3."""
        passes = []
        per_datum_tensors = fad.per_datum_tensors

        def counting(problem, theta, orders, weights=None, summed=()):
            if orders:  # the Newton solve's Jacobians are row sums only
                passes.append((sorted(orders), sorted(summed)))
            return per_datum_tensors(problem, theta, orders, weights, summed)

        monkeypatch.setattr(fad, "per_datum_tensors", counting)
        out = tmp_path / "b.json"
        for order, want in ((1, [([0], [])]), (3, [([0, 1, 2], [3])])):
            passes.clear()
            assert main(["bootstrap", "--model", "linear_regression", "--data", linreg_csv,
                         "--draws", "30", "--order", str(order), "--out", str(out)]) == 0
            assert passes == want, order

    def test_bootstrap_linear_statistics_do_not_depend_on_order(self, linreg_csv, tmp_path):
        """The order only adds the order-k covariance: the fit, both exact
        covariances and the linear samples' covariance are the same at
        orders 0, 1 and 3."""
        keys = ("theta_hat", "sandwich_covariance", "ij_linear_covariance",
                "empirical_linear_covariance")
        objs = []
        for order in (0, 1, 3):
            out = tmp_path / f"b{order}.json"
            assert main(["bootstrap", "--model", "linear_regression", "--data", linreg_csv,
                         "--draws", "40", "--seed", "2", "--order", str(order),
                         "--out", str(out)]) == 0
            objs.append(read_json(out))
        assert [("empirical_covariance_order_k" in o) for o in objs] == [False, False, True]
        for obj in objs[1:]:
            assert {k: obj[k] for k in keys} == {k: objs[0][k] for k in keys}

    def test_bootstrap_higher_order_stats(self, mean_csv, tmp_path):
        out = tmp_path / "boot2.json"
        rc = main(["bootstrap", "--model", "mean", "--data", mean_csv,
                   "--draws", "50", "--order", "2", "--seed", "4",
                   "--out", str(out)])
        assert rc == 0
        obj = read_json(out)
        assert "empirical_covariance_order_k" in obj

    def test_out_of_memory_is_one_error_line(self, mean_csv, tmp_path, capsys, monkeypatch):
        """A block of 10**15 draws cannot be allocated: the allocation fails
        at once, without touching memory, and is reported as a run-time
        error.  (The command itself holds one bounded block at a time.)"""
        monkeypatch.setattr(resampling, "bootstrap_weight_blocks",
                            lambda n, draws, seed: iter([np.empty((draws, n))]))
        out = tmp_path / "boot.json"
        rc = main(["bootstrap", "--model", "mean", "--data", mean_csv,
                   "--draws", str(10 ** 15), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: MemoryError: ") and len(err.strip().splitlines()) == 1
        assert not out.exists()

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

    def test_scaling_unfittable_slope_is_null(self, tmp_path):
        # without noise the max error reaches 0.0 at N=80, so no log-log fit
        out = tmp_path / "scale.json"
        rc = main(["scaling", "--model", "linear_regression", "--grid", "20,40,80",
                   "--order", "2", "--features", "2", "--noise", "0", "--out", str(out)])
        assert rc == 0
        assert "NaN" not in out.read_text()
        slopes = read_json(out)["slopes"]
        assert sorted(slopes) == ["0", "1", "2"]
        assert all(s == {"slope": None, "stderr": None} for s in slopes.values()), slopes


class TestRemovedFlags:
    @pytest.mark.parametrize("argv", [
        ["cv", "--model", "mean", "--workers", "2"],
        ["scaling", "--model", "mean", "--grid", "30,60", "--workers", "2"],
    ])
    def test_workers_is_a_usage_error(self, mean_csv, tmp_path, argv):
        out = tmp_path / "o.json"
        extra = ["--data", mean_csv] if argv[0] == "cv" else []
        assert main(argv + extra + ["--out", str(out)]) == 2
        assert not out.exists()


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


class TestJsonWriter:
    """Every subcommand writes json.dumps(obj, sort_keys=True) of the object
    it emits: one line, sorted keys."""

    @pytest.mark.parametrize("argv", [
        ["fit", "--model", "linear_regression", "--data", "{linreg}"],
        ["expand", "--model", "linear_regression", "--data", "{linreg}", "--order", "3",
         "--scheme", "bootstrap", "--draws", "5", "--seed", "2"],
        ["cv", "--model", "linear_regression", "--data", "{linreg}", "--order", "3",
         "--scheme", "kappa", "--kappa", "2", "--draws", "9", "--seed", "4"],
        ["cv", "--model", "mean", "--data", "{mean}", "--order", "2", "--with-bounds",
         "--samples", "8", "--seed", "1"],
        ["bootstrap", "--model", "linear_regression", "--data", "{linreg}", "--order", "2",
         "--draws", "40", "--seed", "3"],
        ["bounds", "--model", "mean", "--data", "{mean}", "--order", "2", "--samples", "8"],
        ["terms", "--max-order", "4"],
        ["scaling", "--model", "mean", "--grid", "30,60", "--order", "1", "--seed", "9"],
    ])
    def test_subcommand_output_is_json_dumps_text(self, argv, mean_csv, linreg_csv,
                                                  tmp_path, monkeypatch):
        emitted = []
        dumps = json.dumps

        def recording(obj, **kwargs):
            emitted.append(obj)
            return dumps(obj, **kwargs)

        monkeypatch.setattr(json, "dumps", recording)
        out = tmp_path / "o.json"
        argv = [a.format(mean=mean_csv, linreg=linreg_csv) for a in argv]
        assert main(argv + ["--out", str(out)]) == 0
        (obj,) = emitted
        text = out.read_text()
        assert text == dumps(obj, sort_keys=True) + "\n"
        assert text.count("\n") == 1

    def test_cv_records_of_every_shape(self, mean_csv, tmp_path, monkeypatch):
        """cv's file holds the report's records as to_json_obj gives them:
        complete records, failed expansions, failed re-fits, both,
        non-finite errors and labels json escapes."""
        from dataclasses import replace

        real = resampling.run_cv
        reports = []

        def mixed(*args, **kwargs):
            report = real(*args, **kwargs)
            o = report.outcomes
            reports.append(replace(report, outcomes=(
                replace(o[0], label='drop "1" \\ é\n'),
                replace(o[1], theta_ij=None, errors=None,
                        expand_error="non-finite contraction for term"),
                replace(o[2], theta_exact=None, errors=None, refit_error='stalled "here"'),
                replace(o[3], errors=np.array([np.nan, 0.5, np.inf, -np.inf])),
                replace(o[0], label="both", theta_ij=None, theta_exact=None, errors=None,
                        expand_error="x", refit_error="y\u2028"),
                replace(o[1], label=""),
            )))
            return reports[-1]

        def nan_as_text(x):
            # NaN != NaN, so the comparison reads it as a string
            if isinstance(x, dict):
                return {k: nan_as_text(v) for k, v in x.items()}
            if isinstance(x, list):
                return [nan_as_text(v) for v in x]
            return "NaN" if isinstance(x, float) and math.isnan(x) else x

        monkeypatch.setattr(resampling, "run_cv", mixed)
        out = tmp_path / "o.json"
        assert main(["cv", "--model", "mean", "--data", mean_csv, "--order", "3",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert text.isascii() and text.count("\n") == 1
        got = json.loads(text)
        del got["config"]
        (report,) = reports
        want = report.to_json_obj()
        assert len(got["outcomes"]) == 6
        assert "expand_error" not in got["outcomes"][0]
        assert nan_as_text(got) == nan_as_text(want)


class TestEntryPoint:
    def test_module_invocation(self, mean_csv):
        proc = subprocess.run(
            [sys.executable, "-m", "hoij.cli", "fit", "--model", "mean",
             "--data", mean_csv],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["theta_hat"] == [3.0]

    def test_commands_leave_scipy_unimported(self, tmp_path):
        """Every subcommand runs in one fresh process without importing any
        scipy module: hoij needs numpy alone, and scipy's linear-algebra
        stack would add about 25 MB of resident memory and a few tenths of
        a second to the start of every command."""
        data = GeneratorConfig(n_features=3).generate("exp_loss", 40,
                                                      np.random.default_rng(8))
        path = tmp_path / "x.csv"
        np.savetxt(path, data.features, delimiter=",", fmt="%.17g")
        common = ["--model", "exp_loss", "--data", str(path)]
        runs = [["fit", *common, "--out", str(tmp_path / "fit.json")],
                ["expand", *common, "--order", "3", "--out", str(tmp_path / "e.json")],
                ["cv", *common, "--order", "2", "--with-bounds", "--samples", "2",
                 "--out", str(tmp_path / "cv.json")],
                ["bootstrap", *common, "--order", "2", "--draws", "5",
                 "--out", str(tmp_path / "boot.json")],
                ["bounds", *common, "--order", "2", "--samples", "2",
                 "--out", str(tmp_path / "b.json")],
                ["terms", "--max-order", "3", "--out", str(tmp_path / "t.json")],
                ["scaling", "--model", "logistic_regression", "--grid", "20,40",
                 "--features", "2", "--out", str(tmp_path / "s.json")]]
        script = ("import sys\nfrom hoij.cli import main\n"
                  f"codes = [main(argv) for argv in {runs!r}]\n"
                  "print(codes, sorted(m for m in sys.modules\n"
                  "                    if m == 'scipy' or m.startswith('scipy.')))")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=subprocess_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0, 0] []"

    @pytest.mark.parametrize("command", [["bounds", "--radius", "1000"],
                                         ["cv", "--with-bounds", "--radius", "1000"]])
    def test_overflow_at_a_sampled_point_is_one_error_line(self, tmp_path, command):
        """exp(theta . x) overflows at the second sampled point: the command
        exits 1 with the one error line, and numpy prints no warning."""
        data = GeneratorConfig(n_features=3).generate("exp_loss", 60,
                                                      np.random.default_rng(5))
        path = tmp_path / "x.csv"
        np.savetxt(path, data.features, delimiter=",", fmt="%.17g")
        proc = subprocess.run(
            [sys.executable, "-m", "hoij.cli", command[0], "--model", "exp_loss",
             "--data", str(path), "--order", "3", "--samples", "4",
             "--out", str(tmp_path / "out.json"), *command[1:]],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: NonFiniteValueError: ")
        assert len(proc.stderr.splitlines()) == 1

    def test_overflowing_statistic_is_one_error_line(self, tmp_path):
        """At radius 200 the rows of every sampled point are finite, but
        their squares overflow: no NaN is written, and the command exits 1
        with the one error line."""
        data = GeneratorConfig(n_features=5).generate("exp_loss", 400,
                                                      np.random.default_rng(41))
        path = tmp_path / "x.csv"
        np.savetxt(path, data.features, delimiter=",", fmt="%.17g")
        out = tmp_path / "out.json"
        proc = subprocess.run(
            [sys.executable, "-m", "hoij.cli", "bounds", "--model", "exp_loss",
             "--data", str(path), "--order", "3", "--samples", "8", "--radius", "200",
             "--out", str(out)],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: NonFiniteValueError: ")
        assert len(proc.stderr.splitlines()) == 1
        assert not out.exists()

    def test_singular_jacobian_at_a_sampled_point_is_one_error_line(self, tmp_path, capsys):
        """The logistic Jacobian vanishes far from theta_hat: a computation
        error, exit 1, not a usage error."""
        path = tmp_path / "x.csv"
        path.write_text("1,0\n-1,1\n2,0\n-2,1\n1.5,1\n-1.5,0\n")
        out = tmp_path / "out.json"
        rc = main(["bounds", "--model", "logistic_regression", "--data", str(path),
                   "--order", "1", "--samples", "16", "--radius", "1000", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err.startswith("error: SingularSampleError: ") and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_usage_exit_code(self):
        proc = subprocess.run([sys.executable, "-m", "hoij.cli", "fit"],
                              capture_output=True, text=True, env=subprocess_env())
        assert proc.returncode == 2


# -- property tests: bad input is one usage-error line, exit code 2 -------------

def _unparsable(token):
    """A non-blank cell that float() rejects or reads as non-finite."""
    if not token.strip():
        return False
    try:
        return not math.isfinite(float(token))
    except ValueError:
        return True


CELL = st.floats(-1e3, 1e3, allow_nan=False).map(repr)
BAD_CELL = st.one_of(
    st.sampled_from(["nan", "inf", "-Infinity", "1e999", "abc", "1..2", "0x10"]),
    st.text(st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",)),
            min_size=1, max_size=6),
).filter(_unparsable)
BAD_VALUE = st.one_of(st.sampled_from(["abc", None, True, [1.0], {"a": 1}, "", math.inf]),
                      st.text(max_size=4).filter(_unparsable))


def _assert_usage_error(argv, out):
    sink = io.StringIO()
    with contextlib.redirect_stderr(sink):
        rc = main(argv + ["--out", str(out)])
    err = sink.getvalue()
    assert rc == 2, (argv, err)
    assert err.startswith("usage error: ") and len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err and not out.exists()
    return err


@pytest.mark.parametrize("text, header", [
    ("", False), ("\n\n\n", False), ("\r\n\r\n", False), ("   ", False),
    ("  \n\t\n", False), ("a,b\n", True), ("\n1,2\r\n\n", True),
])
def test_csv_without_rows_is_one_line(tmp_path, text, header):
    """Empty, blank and header-only files give one usage line and no warning."""
    path = tmp_path / "x.csv"
    path.write_text(text, newline="")
    argv = ["fit", "--model", "mean", "--data", str(path)] + ["--header"] * header
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        err = _assert_usage_error(argv, tmp_path / "o.json")
    assert err == f"usage error: no rows in {path}\n"
    assert not caught, [str(w.message) for w in caught]


def test_csv_cell_over_field_limit_is_one_line(tmp_path):
    """A quoted cell longer than the csv module's field limit (131072
    characters) is a usage error that names its line, not a traceback."""
    path = tmp_path / "x.csv"
    path.write_text("1\n2\n\"" + "1" * 140_000 + "\"\n")
    err = _assert_usage_error(["fit", "--model", "mean", "--data", str(path)],
                              tmp_path / "o.json")
    assert f"line 3 of {path}" in err and "field limit" in err, err


@settings(max_examples=150, deadline=None)
@given(data=st.data(), rows=st.integers(1, 5), cols=st.integers(1, 3),
       flaw=st.sampled_from(["cell", "ragged", "blank"]))
def test_malformed_csv_is_usage_error(tmp_path_factory, data, rows, cols, flaw):
    grid = data.draw(st.lists(st.lists(CELL, min_size=cols, max_size=cols),
                              min_size=rows, max_size=rows))
    r = data.draw(st.integers(0, rows - 1))
    if flaw == "cell":
        grid[r][data.draw(st.integers(0, cols - 1))] = data.draw(BAD_CELL)
    elif flaw == "ragged":
        grid[r] = grid[r] + ["1.0"] if cols == 1 or data.draw(st.booleans()) else grid[r][:-1]
        if rows == 1:
            grid.append(["1.0"] * cols)
    else:
        grid = [[" "] * data.draw(st.integers(1, 3))] * rows
    path = tmp_path_factory.mktemp("csv") / "bad.csv"
    path.write_text("\n".join(",".join(row) for row in grid) + "\n")
    _assert_usage_error(["fit", "--model", "mean", "--data", str(path)],
                        path.with_name("o.json"))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), rows=st.integers(1, 4), cols=st.integers(1, 3),
       flaw=st.sampled_from(["top", "row", "no_x", "x_type", "ragged", "value",
                             "partial_y", "syntax"]))
def test_malformed_json_is_usage_error(tmp_path_factory, data, rows, cols, flaw):
    records = [{"x": data.draw(st.lists(st.floats(-1e3, 1e3), min_size=cols, max_size=cols))}
               for _ in range(rows)]
    r = data.draw(st.integers(0, rows - 1))
    if flaw == "top":
        records = data.draw(st.sampled_from([{}, {"x": [1.0]}, 3, "rows", None, []]))
    elif flaw == "row":
        records[r] = data.draw(st.sampled_from([1.0, "x", [1.0], None]))
    elif flaw == "no_x":
        records[r] = {"y": 1.0}
    elif flaw == "x_type":
        records[r]["x"] = data.draw(st.sampled_from([1.0, "1,2", None, {"0": 1.0}]))
    elif flaw == "ragged":
        records[r]["x"] = records[r]["x"] + [1.0]
        if rows == 1:
            records.append({"x": [1.0] * cols})
    elif flaw == "value":
        records[r]["x"][data.draw(st.integers(0, cols - 1))] = data.draw(BAD_VALUE)
    elif flaw == "partial_y":
        records[r]["y"] = 1.0
        if rows == 1:
            records.append({"x": [1.0] * cols})
    text = json.dumps(records)
    if flaw == "syntax":
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    path = tmp_path_factory.mktemp("json") / "bad.json"
    path.write_text(text)
    _assert_usage_error(["fit", "--model", "mean", "--data", str(path),
                                 "--format", "json"], path.with_name("o.json"))


NOT_INT = st.text(max_size=5).filter(
    lambda s: not s.startswith("-") and not s.strip().lstrip("+").isdigit())
NOT_FLOAT = NOT_INT.filter(_unparsable)
BAD_FLAGS = [
    (["cv", "--order"], st.one_of(NOT_INT, st.integers(7, 10 ** 6), st.integers(-99, -1))),
    (["expand", "--order"], st.integers(-9, 0)),
    (["cv", "--scheme", "bootstrap", "--draws"], st.one_of(NOT_INT, st.integers(-99, 0))),
    (["cv", "--scheme", "kfold", "--folds"], st.one_of(st.integers(-9, 1), st.integers(5, 99))),
    (["cv", "--scheme", "kappa", "--kappa"], st.one_of(st.integers(-9, 0), st.integers(4, 99))),
    (["cv", "--scheme"], st.text(max_size=5).filter(
        lambda s: not s.startswith("-") and s not in ("loo", "kfold", "kappa", "bootstrap"))),
    (["bounds", "--samples"], st.one_of(NOT_INT, st.integers(-99, 0))),
    (["bounds", "--rho"], st.one_of(NOT_FLOAT, st.floats(1.0, 1e9), st.floats(-1e9, 0.0),
                                    st.sampled_from([math.nan, math.inf]))),
    (["bounds", "--radius"], st.one_of(st.floats(-1e9, -1e-9),
                                       st.sampled_from([math.nan, math.inf]))),
    (["bounds", "--epsilon-term"], st.one_of(st.floats(-1e9, -1e-9),
                                             st.sampled_from([math.nan, math.inf]))),
    (["cv", "--with-bounds", "--epsilon-term"], st.sampled_from([math.nan, -1.0])),
    (["fit", "--format"], st.sampled_from(["xml", "CSV", ""])),
    (["terms", "--max-order"], st.one_of(st.integers(-9, 0), st.integers(7, 99))),
    (["scaling", "--grid"], st.sampled_from(["", "5", "30", "1,2", "0,10", "10,5", "a,b",
                                             "10,,x", "10;20"])),
    (["scaling", "--features"], st.integers(-9, 0)),
    (["scaling", "--noise"], st.one_of(st.floats(-1e9, -1e-9),
                                       st.sampled_from([math.nan, math.inf]))),
]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), case=st.sampled_from(BAD_FLAGS))
def test_bad_flag_value_is_usage_error(tmp_path_factory, data, case):
    prefix, values = case
    value = data.draw(values)
    argv = [*prefix, str(value)]
    if argv[0] == "scaling":
        argv += ["--model", "mean"] + (["--grid", "30,60"] if prefix[1] != "--grid" else [])
    elif argv[0] != "terms":
        tmp = tmp_path_factory.mktemp("flags")
        (tmp / "x.csv").write_text("1\n2\n3\n6\n")
        argv += ["--model", "mean", "--data", str(tmp / "x.csv")]
    _assert_usage_error(argv, tmp_path_factory.mktemp("out") / "o.json")


def test_non_finite_response_names_its_row():
    """A NaN noise reaches the Dataset check, which names the row."""
    with pytest.raises(DatasetError, match="non-finite response value at row 1"):
        Dataset(np.ones((2, 1)), np.array([np.nan, 1.0]))
