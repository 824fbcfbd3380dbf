"""Self-test of the benchmark itself.

Usage (from the root of a checkout): python3 perfbench/selftest.py

For each workload it runs a smoke-size case list once, traced, and checks that
every case matches its reference digest and that a tampered digest is caught,
that every span's self time is non-negative, that per case the self times sum
to no more than the case's wall time, and that the host speed was gauged.  It
runs one smoke list traced twice and checks that the work counts agree
exactly.  It also checks that BENCHMARK.json names exactly the metrics run.py
reports, and that run.py fails without printing a result in a directory
holding only the benchmark.  Exits 1 on the first failed check.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import run
import workloads


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def traced_smoke(name: str) -> tuple[list, dict]:
    cases = workloads.SMOKE[name]
    runner = run.Runner(workloads.root_system_names(cases), time.perf_counter() + 600)
    return cases, runner.run(cases, trace=True)


def count_metrics(rep) -> dict:
    return {k: v for k, v in run.layer_values(rep).items()
            if not k.startswith("_") and run.PER_LAYER[k][0] != "s"}


def check_workload(name: str, reference: dict) -> None:
    cases, rep = traced_smoke(name)
    check(run.case_failures(cases, rep["cases"], reference) == [],
          f"{name}: {len(cases)} smoke cases match their reference digests")
    tampered = dict(reference)
    key = workloads.case_key(cases[-1])
    tampered[key] = ("0" if reference[key][0] != "0" else "1") + reference[key][1:]
    caught = run.case_failures(cases, rep["cases"], tampered)
    check([k for k, _ in caught] == [key], f"{name}: a tampered reference digest is caught")
    spans = rep["trace"]["spans"]
    check(bool(spans) and all(s[2] >= s[1] for s in spans), f"{name}: {len(spans)} spans recorded")
    check(run.trace_checks(rep) == [],
          f"{name}: self times are non-negative and sum to at most each case's wall time")
    check(rep["gauge_n"] >= 1 and run.ref_wall(rep) > 0,
          f"{name}: host speed gauged {rep['gauge_n']} times")
    values = run.layer_values(rep)
    missing = [m for m in run.PER_LAYER if m != "trace_overhead_ratio" and m not in values]
    check(not missing, f"{name}: every per-layer metric is computed")


def check_repeatable_counts() -> None:
    _, first = traced_smoke("recursion")
    _, second = traced_smoke("recursion")
    a, b = count_metrics(first), count_metrics(second)
    check(a == b, f"recursion: two traced runs give identical work counts ({len(a)} counts)")


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check({w["name"] for w in spec["workloads"]} == set(workloads.GENERATORS),
          "BENCHMARK.json lists every workload")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
          "BENCHMARK.json end_to_end metrics match run.py")
    check({m["name"]: m["unit"] for m in spec["per_layer"]}
          == {k: unit for k, (unit, _) in run.PER_LAYER.items()},
          "BENCHMARK.json per_layer metrics match run.py")


def check_bare_directory() -> None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
    check(proc.returncode != 0 and not printed_result,
          "without the siflag sources run.py exits nonzero and prints no result")


def main() -> int:
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    run.OUT_DIR.mkdir(exist_ok=True)
    check_benchmark_json()
    check(all(workloads.case_key(c) in reference
              for pool in workloads.POOLS.values() for c in pool),
          "every case a seed can produce has a reference digest")
    check(workloads.cases("recursion", 7) == workloads.cases("recursion", 7)
          and workloads.cases("oracle", 7) != workloads.cases("oracle", 8),
          "case lists are a function of the seed")
    for name in workloads.SMOKE:
        check_workload(name, reference)
    check_repeatable_counts()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
