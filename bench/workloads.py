"""Workload definitions, seeded input generation and output checks.

Each workload is one `hoij` subcommand on one synthetic dataset.  The full
command streams ``items`` weight vectors (or sampled points); the set-up
command is the same invocation with a one-item stream, so its wall time is
the fixed cost paid before items stream.

This module imports only the standard library at import time; functions that
need numpy or hoij import them when called, so the parent process never
loads them.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

# Seed of the dataset whose outputs are recorded in reference.json.  It is
# fixed, so every run can check its warm-up repetition against the record
# whatever workload seed it was given.
REFERENCE_SEED = 1907

# Relative tolerance for outputs compared with the recorded reference.
REFERENCE_RTOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    n: int
    dim: int
    items: int          # weight vectors (cv, bootstrap) or sampled points (bounds)
    full: tuple         # subcommand and flags, without model/data/out/seed
    setup: tuple        # the same command with a one-item stream

    def argv(self, data: Path, out: Path, seed: int, setup: bool = False) -> list:
        cmd = self.setup if setup else self.full
        return [cmd[0], "--model", self.model, "--data", str(data),
                "--out", str(out), "--seed", str(seed), *cmd[1:]]


# loo_cv: sparse weights, one expansion and one exact re-fit per weight.
# bootstrap: dense multinomial weights, no re-fits, plus the N x N covariance.
# bounds: constants over D^k direction tuples, no expansion and no re-fits;
# the invertibility condition holds at D=5 for exp_loss (not for logistic).
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "loo_cv", "logistic_regression", 800, 3, 800,
            ("cv", "--scheme", "loo", "--order", "3"),
            ("cv", "--scheme", "kappa", "--kappa", "1", "--draws", "1",
             "--order", "3"),
        ),
        Workload(
            "bootstrap", "logistic_regression", 3000, 3, 600,
            ("bootstrap", "--order", "3", "--draws", "600"),
            ("bootstrap", "--order", "3", "--draws", "1"),
        ),
        Workload(
            "bounds", "exp_loss", 400, 5, 8,
            ("bounds", "--order", "3", "--samples", "8"),
            ("bounds", "--order", "3", "--samples", "1"),
        ),
    )
}


def write_dataset(workload: Workload, seed: int, path: Path) -> dict:
    """Generate the workload's dataset from ``seed`` and write it as CSV.

    Returns the dataset's shape and the SHA-256 of the file's bytes.
    """
    import numpy as np
    from hoij.resampling import GeneratorConfig

    data = GeneratorConfig(n_features=workload.dim).generate(
        workload.model, workload.n, np.random.default_rng(seed))
    cols = [data.features]
    if data.response is not None:
        cols.append(data.response[:, None])
    table = np.hstack(cols)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([repr(float(v)) for v in row] for row in table)
    return {"shape": list(table.shape), "sha256": file_sha256(path)}


def file_sha256(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def output_files(workload: Workload, out: Path) -> list:
    """Every file the command writes: cv also writes a CSV next to the JSON."""
    files = [out]
    if workload.full[0] == "cv":
        files.append(out.with_suffix(".csv"))
    return files


# -- output checks ----------------------------------------------------------------
#
# Each check returns a list of failure messages; an empty list means the
# output passed.


def _finite(values) -> bool:
    if isinstance(values, (list, tuple)):
        return all(_finite(v) for v in values)
    return isinstance(values, (int, float)) and math.isfinite(values)


def check_output(workload: Workload, obj: dict, setup: bool) -> list:
    """Checks that hold on any seed's output, without a reference."""
    items = 1 if setup else workload.items
    fails = []
    if workload.name == "loo_cv":
        outcomes = obj.get("outcomes", [])
        if len(outcomes) != items:
            fails.append(f"expected {items} outcomes, got {len(outcomes)}")
        bad = [o["label"] for o in outcomes if o.get("refit_error") is not None]
        if bad:
            fails.append(f"refit_error on {len(bad)} weights, first {bad[0]}")
        if not all(_finite(o["theta_ij"]) for o in outcomes):
            fails.append("non-finite theta_ij")
        errs = obj.get("max_error", [])
        if not _finite(errs) or len(errs) != 4:
            fails.append(f"max_error malformed: {errs}")
        elif not setup and not all(b < a for a, b in zip(errs, errs[1:])):
            # Over all LOO weights.  For the set-up command's single weight
            # the truncation error need not fall at every order (seed 11:
            # 9.9e-9 at k=2, 1.4e-8 at k=3).
            fails.append(f"max_error not decreasing in k: {errs}")
    elif workload.name == "bootstrap":
        if obj.get("draws") != items:
            fails.append(f"expected {items} draws, got {obj.get('draws')}")
        keys = ("sandwich_covariance", "ij_linear_covariance",
                "empirical_linear_covariance", "empirical_covariance_order_k")
        for key in keys:
            if key not in obj or not _finite(obj[key]):
                fails.append(f"{key} missing or not finite")
        if not fails:
            scale = max(abs(v) for row in obj["sandwich_covariance"] for v in row)
            gap = obj.get("identity_max_abs_gap", math.inf)
            if not gap <= 1e-12 * scale:
                fails.append(f"identity gap {gap:.3e} > 1e-12 * {scale:.3e}")
    elif workload.name == "bounds":
        if obj.get("condition_satisfied") is not True:
            fails.append(f"condition not satisfied (C_set={obj.get('C_set')})")
        errb = obj.get("err_bound_per_K", {})
        if sorted(errb) != ["0", "1", "2", "3"] or not _finite(list(errb.values())):
            fails.append(f"err_bound_per_K malformed: {errb}")
    return fails


def reference_values(workload: Workload, obj: dict) -> dict:
    """The parts of a full-command output that are recorded as the reference."""
    if workload.name == "loo_cv":
        return {"theta_ij": {o["label"]: o["theta_ij"] for o in obj["outcomes"]}}
    if workload.name == "bootstrap":
        return {k: obj[k] for k in ("theta_hat", "sandwich_covariance",
                                    "empirical_covariance_order_k")}
    return {"err_bound_per_K": obj["err_bound_per_K"], "C_set": obj["C_set"]}


def _flat(x) -> list:
    if isinstance(x, dict):
        return [v for k in sorted(x) for v in _flat(x[k])]
    if isinstance(x, (list, tuple)):
        return [v for item in x for v in _flat(item)]
    return [x]


def _rel_gap(got, want) -> float:
    g, w = _flat(got), _flat(want)
    if len(g) != len(w):
        return math.inf
    scale = max((abs(v) for v in w), default=0.0)
    gap = max((abs(a - b) for a, b in zip(g, w)), default=0.0)
    return gap / scale if scale > 0 else gap


def check_reference(workload: Workload, obj: dict, reference: dict,
                    data_info: dict) -> list:
    """Compare a reference-seed output with the record, to REFERENCE_RTOL.

    loo_cv compares each weight's theta_ij separately, relative to that
    weight's own values.
    """
    rec = reference.get(workload.name)
    if rec is None:
        return [f"no recorded reference for {workload.name}"]
    if rec["dataset"] != data_info:
        return [f"reference dataset differs from the record: {data_info}"]
    got = reference_values(workload, obj)
    want = rec["values"]
    fails = []
    if workload.name == "loo_cv":
        if sorted(got["theta_ij"]) != sorted(want["theta_ij"]):
            return ["loo_cv labels differ from the reference"]
        worst = max(_rel_gap(got["theta_ij"][k], want["theta_ij"][k])
                    for k in want["theta_ij"])
        if not worst <= REFERENCE_RTOL:
            fails.append(f"theta_ij differs from reference by {worst:.3e} relative")
        return fails
    for key in want:
        gap = _rel_gap(got[key], want[key])
        if not gap <= REFERENCE_RTOL:
            fails.append(f"{key} differs from reference by {gap:.3e} relative")
    return fails
