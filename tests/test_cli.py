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
from hypothesis import example, given, settings
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


class TestOutputsSpareTheDataset:
    """An output file that would land on --data is a usage error, and
    nothing is written."""

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
        """The sandwich, the linear covariance, the samples and the order-3
        expansion share one pass at theta_hat."""
        passes = []
        per_datum_tensors = fad.per_datum_tensors

        def counting(problem, theta, orders, weights=None, summed=()):
            if orders:  # the Newton solve's Jacobians are row sums only
                passes.append((sorted(orders), sorted(summed)))
            return per_datum_tensors(problem, theta, orders, weights, summed)

        monkeypatch.setattr(fad, "per_datum_tensors", counting)
        out = tmp_path / "b.json"
        assert main(["bootstrap", "--model", "linear_regression", "--data", linreg_csv,
                     "--draws", "30", "--order", "3", "--out", str(out)]) == 0
        assert passes == [([0, 1, 2], [3])]

    def test_bootstrap_higher_order_stats(self, mean_csv, tmp_path):
        out = tmp_path / "boot2.json"
        rc = main(["bootstrap", "--model", "mean", "--data", mean_csv,
                   "--draws", "50", "--order", "2", "--seed", "4",
                   "--out", str(out)])
        assert rc == 0
        obj = read_json(out)
        assert "empirical_covariance_order_k" in obj

    def test_out_of_memory_is_one_error_line(self, mean_csv, tmp_path, capsys):
        """10**15 draws of (D,) samples cannot be allocated: the allocation
        fails at once, without touching memory, and is reported as a
        run-time error."""
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
    """Every subcommand writes the text json.dumps(obj, indent=2,
    sort_keys=True) gives for the object it emits."""

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
        writer = cli._json_text

        def recording(obj, *indent):
            if not indent:  # the whole output, not a nested value
                emitted.append(obj)
            return writer(obj, *indent)

        monkeypatch.setattr(cli, "_json_text", recording)
        out = tmp_path / "o.json"
        argv = [a.format(mean=mean_csv, linreg=linreg_csv) for a in argv]
        assert main(argv + ["--out", str(out)]) == 0
        (obj,) = emitted
        assert out.read_text() == json.dumps(obj, indent=2, sort_keys=True) + "\n"


    def test_cv_records_of_every_shape(self, mean_csv, tmp_path, monkeypatch):
        """cv's records, rendered from the outcomes' arrays, give json.dumps's
        text for complete records, failed expansions, failed re-fits, both,
        non-finite errors and labels json escapes."""
        from dataclasses import replace

        real = resampling.run_cv

        def mixed(*args, **kwargs):
            report = real(*args, **kwargs)
            o = report.outcomes
            return replace(report, outcomes=(
                replace(o[0], label='drop "1" \\ é\n'),
                replace(o[1], theta_ij=None, errors=None,
                        expand_error="non-finite contraction for term"),
                replace(o[2], theta_exact=None, errors=None, refit_error='stalled "here"'),
                replace(o[3], errors=np.array([np.nan, 0.5, np.inf, -np.inf])),
                replace(o[0], label="both", theta_ij=None, theta_exact=None, errors=None,
                        expand_error="x", refit_error="y\u2028"),
                replace(o[1], label=""),
            ))

        emitted = []
        writer = cli._json_text

        def recording(obj, *indent):
            if not indent:
                emitted.append(obj)
            return writer(obj, *indent)

        monkeypatch.setattr(resampling, "run_cv", mixed)
        monkeypatch.setattr(cli, "_json_text", recording)
        out = tmp_path / "o.json"
        assert main(["cv", "--model", "mean", "--data", mean_csv, "--order", "3",
                     "--out", str(out)]) == 0
        (obj,) = emitted
        assert isinstance(obj["outcomes"], resampling.OutcomeRecords)
        assert len(obj["outcomes"]) == 6
        assert out.read_text() == json.dumps(obj, indent=2, sort_keys=True) + "\n"


JSON_KEYS = st.one_of(st.text(max_size=6), st.integers(-10 ** 6, 10 ** 6),
                      st.floats(allow_nan=False), st.booleans())
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10 ** 30, 10 ** 30), st.floats(),
              st.text(max_size=8)),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.lists(st.floats(), max_size=6),
        # keys of one kind per dict, since json sorts the keys themselves
        JSON_KEYS.flatmap(lambda key: st.dictionaries(
            st.from_type(type(key)) if not isinstance(key, float)
            else st.floats(allow_nan=False), children, max_size=4))),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(obj=JSON_VALUES)
@example(obj={"é\n": [-0.0, math.nan, math.inf, -math.inf], "": [], "a": {}, 2: None})
@example(obj={2: [True, 1.0], 10: {False: "ü\u2028", True: -0.0}})
@example(obj={None: [1e300, 5e-324, 0.1]})
def test_json_writer_matches_json_dumps(obj):
    try:
        want = json.dumps(obj, indent=2, sort_keys=True)
    except TypeError:  # keys json cannot sort, as in {2: ..., "a": ...}
        with pytest.raises(TypeError):
            cli._json_text(obj)
        return
    assert cli._json_text(obj) == want


class TestEntryPoint:
    def test_module_invocation(self, mean_csv):
        proc = subprocess.run(
            [sys.executable, "-m", "hoij.cli", "fit", "--model", "mean",
             "--data", mean_csv],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["theta_hat"] == [3.0]

    def test_commands_leave_scipy_sparse_unimported(self, tmp_path):
        """bounds, cv (with bounds) and bootstrap run in a fresh process
        without importing scipy.sparse, which would add about 20 ms to the
        start of every one."""
        data = GeneratorConfig(n_features=3).generate("exp_loss", 40,
                                                      np.random.default_rng(8))
        path = tmp_path / "x.csv"
        np.savetxt(path, data.features, delimiter=",", fmt="%.17g")
        common = ["--model", "exp_loss", "--data", str(path), "--order", "2"]
        runs = [["bounds", *common, "--samples", "2", "--out", str(tmp_path / "b.json")],
                ["cv", *common, "--with-bounds", "--samples", "2",
                 "--out", str(tmp_path / "cv.json")],
                ["bootstrap", *common, "--draws", "5", "--out", str(tmp_path / "boot.json")]]
        script = ("import sys\nfrom hoij.cli import main\n"
                  f"codes = [main(argv) for argv in {runs!r}]\n"
                  "print(codes, 'scipy.sparse' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=subprocess_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0] False"

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
