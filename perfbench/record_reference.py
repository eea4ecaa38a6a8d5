"""Record reference.json from the current code: the sha256 digest of every
output CSV the workloads check, and each workload's SRAM event count.

    python3 perfbench/record_reference.py

The benchmark counts every later mismatch as a failed command, so record
again only for a change that is meant to alter the simulator's outputs.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import run


def main() -> None:
    reference = {"digests": {}, "sram_events": {}}
    run.WORK.mkdir(exist_ok=True)
    for workload in run.WORKLOADS:
        tmp = Path(tempfile.mkdtemp(prefix=f"record-{workload}-", dir=run.WORK))
        try:
            plan = run.make_plan(workload, tmp)
            it = run.run_iteration(workload, plan, run.Runner(tmp), None, traced=True)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if it.problems:
            raise SystemExit(f"{workload}: {it.problems}")
        reference["digests"][workload] = it.digests
        reference["sram_events"][workload] = int(it.counts["engine.sram_events"])
        print(workload, len(it.digests), "digests,", reference["sram_events"][workload],
              "SRAM events")
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
