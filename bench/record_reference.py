"""Record bench/reference.json: each workload's full-command outputs on the
reference dataset (seed workloads.REFERENCE_SEED).

Run from the repository root, only for a change that is meant to alter
results:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        python3 bench/record_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys

from child import BENCH, ROOT, Ledger, Runner  # also puts src/ on sys.path

import workloads as wl


def main() -> int:
    work = ROOT / ".bench_work" / "record-reference"
    ledger = Ledger()
    record = {}
    try:
        for w in wl.WORKLOADS.values():
            runner = Runner(w, work / w.name, wl.REFERENCE_SEED, ledger)
            info = wl.write_dataset(w, wl.REFERENCE_SEED, runner.data)
            runner.run(kind="reference")
            if ledger.failures:
                return 1
            record[w.name] = {"dataset": info, "values": wl.reference_values(
                w, runner.first_output[("reference", False)])}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH / "reference.json").write_text(json.dumps(record, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
