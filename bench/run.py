"""hoij benchmark: one workload, end to end (--trace 0) or layer by layer (--trace 1).

Run from the repository root:

    python3 bench/run.py --workload loo_cv --seed 1 --seconds 30 --trace 0

The workload runs in a child process (child.py) with single-threaded BLAS.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits non-zero,
without that line, when the workload cannot be run at all (for example when
``src/hoij`` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402
from layers import LAYER_METRICS, not_measured  # noqa: E402

CHILD_TIMEOUT_S = 170
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def end_to_end(raw: dict) -> dict:
    """Bounded metrics: run times relative to the reference slices timed
    during them (see speed.py), set-up time and peak memory.  ``setup_s`` is
    the relative set-up time quoted in seconds at the slice's nominal
    duration, so the host's speed drift does not move it."""
    wall_rel = statistics.median(raw["full_rel"])
    setup_rel = statistics.median(raw["setup_rel"])
    return {
        "wall_rel": {"value": wall_rel, "unit": "ratio"},
        "per_item_rel": {"value": (wall_rel - setup_rel) / (raw["items"] - 1),
                         "unit": "ratio"},
        "setup_s": {"value": setup_rel * raw["nominal_slice_s"], "unit": "s"},
        "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
    }


def wall_times(raw: dict) -> dict:
    """Wall times as measured (sampler slices excluded), printed next to the
    bounded metrics."""
    wall = statistics.median(raw["full_s"])
    setup = statistics.median(raw["setup_s"])
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "setup_wall_s": {"value": setup, "unit": "s"},
        "per_item_ms": {"value": (wall - setup) / (raw["items"] - 1) * 1000.0,
                        "unit": "ms"},
    }


def per_layer(raw: dict) -> dict:
    return {name: {"value": raw["layer_metrics"][name], "unit": unit}
            for name, (unit, _) in LAYER_METRICS.items()}


def expected_names(trace: int) -> list:
    """Metric names listed in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def summary_lines(workload: str, raw: dict, metrics: dict) -> list:
    lines = [f"workload {workload}: dataset shape {raw['dataset']['shape']} "
             f"sha256 {raw['dataset']['sha256']}",
             f"environment: {json.dumps(raw['environment'], sort_keys=True)}"]
    runs = raw["full_s"]
    q = statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
    lines.append(f"full runs: {len(runs)}, quartiles {q[0]:.4f} / {q[1]:.4f} / "
                 f"{q[2]:.4f} s, measured for {raw['measure_s']:.1f} s")
    if "setup_s" in raw:
        lines.append(f"set-up runs: {len(raw['setup_s'])}")
    if "full_rel" in raw:
        for name, m in wall_times(raw).items():
            lines.append(f"{name} = {m['value']!r} {m['unit']} (sampler slices excluded; not bounded)")
    if "max_err" in raw:
        lines.append(f"max_err: {raw['max_err']!r} (order-3 max error against "
                     "the exact re-fit; must match the reference)")
    if "distributions" in raw:
        for name in ("expansion.evaluate_theta_ij", "expansion.exact_refit"):
            d = raw["distributions"][name]
            if d["n"]:
                lines.append(f"{name}: p50 {d['p50']:.4f} ms, p{d['pmax_pct']:.2f} "
                             f"{d['pmax']:.4f} ms over {d['n']} calls")
        if "sweep_vs_roadmap" in raw:
            lines.append(f"order sweep vs ROADMAP: {json.dumps(raw['sweep_vs_roadmap'])}")
        lines.append("not measured (layer not called by this workload's command; "
                     f"reported as 0): {', '.join(not_measured(raw['layer_metrics'])) or 'none'}")
        lines.append(f"spans of the last traced run: {raw['spans_file']}")
    for name, m in metrics.items():
        lines.append(f"  {name} = {m['value']!r} {m['unit']}")
    for msg in raw["failures"]:
        lines.append(f"FAILED: {msg}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "hoij" / "__init__.py").is_file():
        print(f"no hoij sources under {ROOT / 'src'}; nothing to benchmark",
              file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, **PINNED_ENV}
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    try:
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"workload {args.workload} exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"workload child exited with {proc.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(lines[-1])

    metrics = per_layer(raw) if args.trace else end_to_end(raw)
    names = expected_names(args.trace)
    if sorted(names) != sorted(metrics):
        print("metric names differ from BENCHMARK.json: "
              f"{sorted(set(names) ^ set(metrics))}", file=sys.stderr)
        return 1
    for line in summary_lines(args.workload, raw, metrics):
        print(line)
    print(json.dumps({"correct": raw["failed"] == 0, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
