"""Regenerate reference.json: the sha256 of the output of every case any seed can produce.

Usage (from the root of a checkout): python3 perfbench/make_reference.py [WORKLOAD ...]

Run it only on a commit whose outputs are known to be right; the benchmark
counts every case whose output differs from this file as failed.
"""
from __future__ import annotations

import json
import sys
import time

import run
import workloads


def main(argv) -> int:
    names = argv or sorted(workloads.POOLS)
    reference = {}
    if run.REFERENCE.exists():
        reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    run.OUT_DIR.mkdir(exist_ok=True)
    for name in names:
        pool = workloads.POOLS[name]
        runner = run.Runner(workloads.root_system_names(pool), time.perf_counter() + 3600)
        rep = runner.run(pool)
        for argv_, rec in zip(pool, rep["cases"]):
            if rec["error"] or rec["rc"] != 0:
                sys.stderr.write(f"{workloads.case_key(argv_)} failed: {rec['error'] or rec['rc']}\n")
                return 1
            reference[workloads.case_key(argv_)] = rec["sha256"]
        print(f"{name}: {len(pool)} cases in {rep['end'] - rep['ready']:.1f} s")
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
