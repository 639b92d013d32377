"""One workload's measurements, run in a child process of run.py.

The parent pins single-threaded BLAS in this process's environment before
numpy is imported.  This process generates the seeded dataset, calls
``hoij.cli.main(argv)`` in-process repeatedly, checks every output, and
prints one JSON line with the raw measurements as its last line of output.

Usage (normally through run.py):
    python3 bench/child.py --workload NAME --seed N --seconds S --trace 0|1 --work DIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import hoij  # noqa: E402
import hoij.cli  # noqa: E402
from hoij import expansion, models, terms  # noqa: E402

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from speed import NOMINAL_SLICE_S, SpeedSampler, mean_slice, reference_slice  # noqa: E402
from tracer import Tracer  # noqa: E402

# The cache as defined in hoij.terms, kept so it can be cleared while the
# tracer has replaced the module attribute.
TERM_TABLES = terms.term_tables

# Order sweep: this many LOO weights of the loo_cv dataset, per order.
SWEEP_WEIGHTS = 48
# ROADMAP baselines the sweep is compared against (logistic, N=800, D=3).
ROADMAP_BASELINES = {"ratio.K1": 0.06, "ratio.K3": 1.0, "ms_p50.K5": 7.5}


def checked(check, *args) -> list:
    """Run an output check; an output missing fields fails it."""
    try:
        return check(*args)
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        return [f"malformed output: {err!r}"]


class Ledger:
    """Operations attempted and failed across every command of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed_ops: set = set()
        self.failures: list = []

    def fail(self, message: str) -> None:
        """Record a failure of the latest operation."""
        self.failed_ops.add(self.attempted)
        self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr)


class Runner:
    """Runs one workload's full and set-up commands and checks their outputs."""

    def __init__(self, workload: wl.Workload, work: Path, seed: int, ledger: Ledger):
        self.w = workload
        self.seed = seed
        self.ledger = ledger
        work.mkdir(parents=True, exist_ok=True)
        self.data = work / "data.csv"
        self.out = work / "out.json"
        self.setup_out = work / "setup.json"
        self.digests: dict = {}       # (kind, setup) -> sha256 of the first output
        self.first_output: dict = {}  # (kind, setup) -> parsed first output
        self.output_bytes = 0

    def call(self, argv: list, tracer: Tracer = None,
             sampler: SpeedSampler = None) -> tuple:
        """One CLI invocation with cold caches; returns (ok, seconds)."""
        self.ledger.attempted += 1
        TERM_TABLES.cache_clear()
        sink = io.StringIO()
        rc, err = None, None
        with contextlib.redirect_stderr(sink), (tracer or contextlib.nullcontext()), \
                (sampler or contextlib.nullcontext()):
            t0 = time.perf_counter()
            try:
                rc = hoij.cli.main(argv)
            except Exception:  # a crash is a failed operation, not a benchmark crash
                err = traceback.format_exc(limit=3)
            seconds = time.perf_counter() - t0
        if err is not None or rc != 0:
            self.ledger.fail(f"{self.w.name}: {argv[0]} exited with {rc}: "
                             f"{err or sink.getvalue().strip()}")
            return False, seconds
        return True, seconds

    def run(self, setup: bool = False, tracer: Tracer = None,
            kind: str = "seeded", sampler: SpeedSampler = None) -> float:
        """Run the full (or set-up) command and check its output.

        ``kind`` "reference" runs on the reference seed.  Outputs of the same
        kind must be byte-identical to the first one, traced runs included.
        """
        out = self.setup_out if setup else self.out
        seed = wl.REFERENCE_SEED if kind == "reference" else self.seed
        ok, seconds = self.call(self.w.argv(self.data, out, seed, setup), tracer, sampler)
        if not ok:
            return seconds
        files = wl.output_files(self.w, out)
        digest = wl.file_sha256(*files)
        key = (kind, setup)
        what = f"{self.w.name} {kind} {'set-up' if setup else 'full'} output"
        if key not in self.digests:
            self.digests[key] = digest
            with open(out) as fh:
                self.first_output[key] = json.load(fh)
            for msg in checked(wl.check_output, self.w, self.first_output[key], setup):
                self.ledger.fail(f"{what}: {msg}")
        elif digest != self.digests[key]:
            self.ledger.fail(f"{what} not byte-identical to the first")
        self.output_bytes = sum(f.stat().st_size for f in files)
        return seconds

    def reference_warmup(self) -> tuple:
        """Warm-up runs on the reference dataset, checked against the record;
        returns their (full, set-up) seconds."""
        info = wl.write_dataset(self.w, wl.REFERENCE_SEED, self.data)
        t_full = self.run(kind="reference")
        obj = self.first_output.get(("reference", False))
        if obj is not None:
            reference = json.loads((BENCH / "reference.json").read_text())
            for msg in checked(wl.check_reference, self.w, obj, reference, info):
                self.ledger.fail(f"{self.w.name} reference: {msg}")
        t_setup = self.run(setup=True, kind="reference")
        return t_full, t_setup

    def traced(self) -> tuple:
        """One traced full run: (seconds, layer metrics, extras, spans)."""
        tracer = Tracer()
        seconds = self.run(tracer=tracer)
        if self.w.name == "loo_cv":
            # Each LOO weight vector has exactly one nonzero entry.
            rows = {s.counters["rows"] for s in tracer.spans
                    if s.name == "forward_ad.g_weight_derivative"}
            if rows != {1}:
                self.ledger.fail(f"loo_cv: g_weight_derivative rows per call {sorted(rows)}, "
                                 "expected 1")
        m, extras = layers.layer_metrics(tracer.spans, self.w.items, self.output_bytes)
        return seconds, m, extras, tracer.spans


def measure(runner: Runner, seconds: float, traced: bool) -> dict:
    """Run cycles for about ``seconds`` seconds, and at least three.

    Untraced, a cycle is one full run and a block of set-up runs, each timed
    with the speed sampler: run times exclude the sampler's slices, and
    relative times divide them by the mean slice during the run.  Set-up
    runs, often shorter than the sampler's interval, also count one slice
    timed right before and one right after each.  Traced, a cycle is one
    untraced and one traced full run.
    """
    t_full, t_setup = runner.reference_warmup()
    dataset = wl.write_dataset(runner.w, runner.seed, runner.data)
    if traced:
        per_cycle = 0
        cycle_estimate = 2.0 * t_full
    else:
        # About a quarter of the time goes to set-up runs.
        per_cycle = max(1, min(10, round(0.25 * t_full / max(t_setup, 1e-6))))
        cycle_estimate = t_full + per_cycle * t_setup
        sampler = SpeedSampler()
    res = {"dataset": dataset, "full": [], "setup": [], "full_rel": [],
           "setup_rel": [], "traced_full": [], "layer_reps": [], "extras": []}
    start = time.perf_counter()
    while (len(res["full"]) < 3
           or time.perf_counter() - start + cycle_estimate <= seconds):
        if traced:
            res["full"].append(runner.run())
            t, m, extras, res["spans"] = runner.traced()
            res["traced_full"].append(t)
            res["layer_reps"].append(m)
            res["extras"].append(extras)
            continue
        t = runner.run(sampler=sampler)
        full_slices = sampler.slices
        res["full"].append(t - sum(full_slices))
        if len(res["full"]) == 1:
            # Peak memory of one warm-up and one measured run.  Later runs
            # would fold allocator fragmentation across repetitions into it.
            res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        res["full_rel"].append(res["full"][-1] / mean_slice(full_slices))
        for _ in range(per_cycle):
            before = reference_slice()
            t = runner.run(setup=True, sampler=sampler) - sum(sampler.slices)
            res["setup"].append(t)
            res["setup_rel"].append(
                t / statistics.mean([before, *sampler.slices, reference_slice()]))
    res["measure_s"] = time.perf_counter() - start
    return res


def order_sweep(seed: int, work: Path) -> dict:
    """Expansion and re-fit cost per order K=1..5 on a seeded subset of LOO
    weights of the loo_cv dataset, calling the library directly."""
    loo = wl.WORKLOADS["loo_cv"]
    path = work / "sweep.csv"
    wl.write_dataset(loo, seed, path)
    problem = models.make_problem(loo.model, models.load_dataset(path, response=True))
    theta_hat = expansion.solve_base(problem)
    hfac = expansion.factorize_hessian(problem, theta_hat)
    subset = np.random.default_rng(seed).choice(loo.n, size=SWEEP_WEIGHTS,
                                                replace=False) + 1
    weights = list(models.loo_weights(loo.n, subset))
    out = {}
    for k in layers.SWEEP_ORDERS:
        table = TERM_TABLES(k)
        t_exp, t_fit = [], []
        for w in weights:
            t0 = time.perf_counter()
            expansion.evaluate_theta_ij(problem, theta_hat, hfac, table, w.delta, k)
            t1 = time.perf_counter()
            expansion.exact_refit(problem, w, theta_hat)
            t_exp.append(t1 - t0)
            t_fit.append(time.perf_counter() - t1)
        p50 = statistics.median(t_exp)
        out[f"ratio.K{k}"] = p50 / statistics.median(t_fit)
        out[f"ms_p50.K{k}"] = p50 * layers.MS
    return out


def traced_metrics(workload: str, seed: int, work: Path, res: dict) -> dict:
    """Per-layer metrics of a traced run: medians over its traced runs, the
    order sweep (loo_cv only) and the tracing overhead."""
    metrics = {name: statistics.median(r[name] for r in res["layer_reps"])
               for name in res["layer_reps"][0]}
    sweep = order_sweep(seed, work) if workload == "loo_cv" else {}
    for k in layers.SWEEP_ORDERS:
        metrics[f"expansion.expand_refit_ratio.K{k}"] = sweep.get(f"ratio.K{k}", 0.0)
        metrics[f"expansion.evaluate_theta_ij.ms_p50.K{k}"] = sweep.get(f"ms_p50.K{k}", 0.0)
    metrics["trace.overhead_s"] = (statistics.median(res["traced_full"])
                                   - statistics.median(res["full"]))
    result = {"layer_metrics": metrics}
    if sweep:
        result["sweep_vs_roadmap"] = {
            k: {"measured": sweep[k], "roadmap": v,
                "reproduces": 0.5 <= sweep[k] / v <= 2.0}
            for k, v in ROADMAP_BASELINES.items()}
    return result


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workers": 1,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--work", required=True)
    args = p.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(hoij.__file__).resolve().parents:
        print(f"hoij was imported from {hoij.__file__}, not {src}", file=sys.stderr)
        return 2

    work = Path(args.work).resolve()
    ledger = Ledger()
    runner = Runner(wl.WORKLOADS[args.workload], work / args.workload, args.seed, ledger)
    res = measure(runner, args.seconds, traced=bool(args.trace))
    result = {
        "dataset": res["dataset"],
        "environment": environment(),
        "items": runner.w.items,
        "measure_s": res["measure_s"],
        "full_s": res["full"],
    }
    if args.trace:
        result.update(traced_metrics(args.workload, args.seed, work, res))
        result["traced_full_s"] = res["traced_full"]
        result["distributions"] = res["extras"][len(res["extras"]) // 2]
        spans_path = work.parent / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w") as fh:
            for s in res["spans"]:
                fh.write(json.dumps(vars(s)) + "\n")
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        result["setup_s"] = res["setup"]
        result["full_rel"] = res["full_rel"]
        result["setup_rel"] = res["setup_rel"]
        result["nominal_slice_s"] = NOMINAL_SLICE_S
        result["peak_rss_mb"] = res["peak_rss_mb"]
        seeded = runner.first_output.get(("seeded", False))
        if args.workload == "loo_cv" and seeded is not None:
            result["max_err"] = seeded["max_error"][-1]
    result.update(attempted=ledger.attempted, failed=len(ledger.failed_ops),
                  failures=ledger.failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
