"""Benchmark of siflag: cold-process time to solution, with per-module tracing.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs the workload's whole seeded case list in a fresh child
interpreter (one thread, ``--jobs 1``), so siflag's module-level caches start
cold, as they do for a CLI user.  A run repeats the case list for about
``--seconds`` (at least twice) and reports medians.  Every case's output is
hashed and compared with ``reference.json``; a case fails when it raises,
exits nonzero (a failed ``verify``) or its digest differs.  The last line of
stdout is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
lines above it start with ``#`` and give the environment and the details
behind each number.  The exit code is 0 only when every case passed.

The reference machine (see README.md) changes speed by tens of percent over
seconds to minutes, so the gated time is ``wall_ref_s``: each repetition's
wall time scaled by ``GAUGE_REF_S`` over the mean of the child's gauge samples
(see child.py), i.e. the time to solution at the reference host speed.  The raw
``wall_s`` is printed beside it.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes two traced
repetitions, whose work counts must agree exactly, around a plain one, and
reports the per-layer metrics and ``trace_overhead_ratio``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

# set-up-only children ahead of each repetition, besides the repetition's own
# set-up; spread over the run, their median does not hang on one moment of a
# host whose speed drifts over seconds
SETUP_PER_REP = 4
MIN_REPS = 2
TRACE_PLAN = (True, False, True)  # whether each repetition of a traced run is traced
CHILD_LIMIT_S = 170  # a run must end within 180 s

# mean gauge sample (child.gauge) on the reference machine at its usual speed
GAUGE_REF_S = 0.00047

END_TO_END = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB"}

LAYERS = ("rootdata", "affine", "charpoly", "qt", "macdonald", "weylchar", "cli")

# metric -> (unit, source); a source is ("calls"|"self_s", span), ("count", key),
# or ("ratio", numerator count, denominator span calls)
PER_LAYER = {
    "rootdata.inverse.calls": ("count", ("calls", "rootdata.inverse")),
    "rootdata.inverse.self_s": ("s", ("self_s", "rootdata.inverse")),
    "affine.mul.calls": ("count", ("calls", "affine.mul")),
    "affine.shortest_word.calls": ("count", ("calls", "affine.shortest_word")),
    "affine.shortest_word.self_s": ("s", ("self_s", "affine.shortest_word")),
    "affine.minimal_loops.self_s": ("s", ("self_s", "affine.minimal_loops")),
    "charpoly.demazure_op.calls": ("count", ("calls", "charpoly.demazure_op")),
    "charpoly.demazure_op.terms_in": ("count", ("count", "charpoly.demazure_op.terms_in")),
    "charpoly.demazure_op.self_s": ("s", ("self_s", "charpoly.demazure_op")),
    "charpoly.exact_divide.self_s": ("s", ("self_s", "charpoly.exact_divide")),
    "charpoly.freeness_factor.self_s": ("s", ("self_s", "charpoly.freeness_factor")),
    "qt.gauss_solve.calls": ("count", ("calls", "qt.gauss_solve")),
    "qt.gauss_solve.cells": ("count", ("count", "qt.gauss_solve.cells")),
    "qt.gauss_solve.nnz": ("count", ("count", "qt.gauss_solve.nnz")),
    "qt.gauss_solve.fraction.self_s": ("s", ("self_s", "qt.gauss_solve.fraction")),
    "qt.gauss_solve.qtrat.self_s": ("s", ("self_s", "qt.gauss_solve.qtrat")),
    "qt.gauss_nullspace.self_s": ("s", ("self_s", "qt.gauss_nullspace")),
    "qt.p_gcd.calls": ("count", ("calls", "qt.p_gcd")),
    "qt.p_gcd.self_s": ("s", ("self_s", "qt.p_gcd")),
    "macdonald.density_table.calls": ("count", ("calls", "macdonald.density_table")),
    "macdonald.density_table.targets": ("count", ("count", "macdonald.density_table.targets")),
    "macdonald.density_table.entries": ("count", ("count", "macdonald.density_table.entries")),
    "macdonald.density_table.self_s": ("s", ("self_s", "macdonald.density_table")),
    "macdonald.gram_schmidt_E.self_s": ("s", ("self_s", "macdonald.gram_schmidt_E")),
    "macdonald.gram_schmidt_E.hit_ratio": (
        "ratio", ("ratio", "macdonald.gram_schmidt_E.hits", "macdonald.gram_schmidt_E")),
    "weylchar.eigen_solve_base.attempts": ("count", ("calls", "weylchar.eigen_solve_base")),
    "weylchar.eigen_solve_base.success_ratio": (
        "ratio", ("ratio", "weylchar.eigen_solve_base.successes", "weylchar.eigen_solve_base")),
    "weylchar.eigen_solve_base.self_s": ("s", ("self_s", "weylchar.eigen_solve_base")),
    "weylchar.base_char.hit_ratio": (
        "ratio", ("ratio", "weylchar.base_char.hits", "weylchar.base_char")),
    "weylchar.global_demazure_char.self_s": ("s", ("self_s", "weylchar.global_demazure_char")),
    "weylchar.difference_loop_check.self_s": ("s", ("self_s", "weylchar.difference_loop_check")),
    "cli.main.self_s": ("s", ("self_s", "cli.main")),
    "cli.report_bytes": ("bytes", ("count", "cli.report_bytes")),
}
PER_LAYER.update({f"layer.{name}.self_s": ("s", ("layer", name)) for name in LAYERS})
PER_LAYER["trace_overhead_ratio"] = ("ratio", ("overhead",))

# The self-time hot spot each workload was chosen for: a span, or a set of layers.
PREDICTED = {
    "oracle": ("span", "macdonald.density_table"),
    "eigen-rank2": ("span", "qt.gauss_solve.fraction"),
    "eigen-rank3": ("layer", "affine", "rootdata"),
    "recursion": ("span", "charpoly.demazure_op"),
}


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "child_hash_seed": "0",
    }


def child_env() -> dict:
    # no PYTHON* variable reaches the child (PYTHONOPTIMIZE strips siflag's
    # asserts, PYTHONPATH could shadow the checkout), and SIMAC_TRUNC would
    # silently change the default truncation
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "SIMAC_TRUNC"}
    env["PYTHONHASHSEED"] = "0"
    return env


class ChildFailed(Exception):
    pass


class Runner:
    """Spawns child interpreters and reads back what they measured."""

    def __init__(self, types: list[str], deadline: float):
        self.types = types
        self.deadline = deadline
        self.env = child_env()
        self.count = 0

    def run(self, cases, trace=False, setup_only=False) -> dict:
        self.count += 1
        spec_path = OUT_DIR / f"child-{os.getpid()}-{self.count}.spec.json"
        out_path = OUT_DIR / f"child-{os.getpid()}-{self.count}.out.json"
        err_path = OUT_DIR / f"child-{os.getpid()}-{self.count}.stderr"
        spec = {"src": str(ROOT / "src"), "types": self.types, "cases": cases,
                "trace": trace, "setup_only": setup_only}
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise ChildFailed("no time left before the run's hard limit")
        try:
            with open(err_path, "wb") as err:
                spawn = time.perf_counter()
                proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path),
                                       str(out_path)], env=self.env, cwd=ROOT,
                                      stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                      stderr=err, timeout=timeout)
            if proc.returncode != 0 or not out_path.exists():
                tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
                raise ChildFailed(f"child exited with {proc.returncode}: {tail}")
            with open(out_path, encoding="utf-8") as fh:
                data = json.load(fh)
        except subprocess.TimeoutExpired:
            raise ChildFailed("child ran past the run's hard limit and was killed")
        finally:
            for path in (spec_path, out_path, err_path):
                path.unlink(missing_ok=True)
        data["setup_s"] = data["ready"] - spawn
        data["traced"] = trace
        return data


def next_rep(durations: list[float], elapsed: float, seconds: int, trace: int):
    """Whether the next repetition is traced, or None when the run is over.

    A plain run makes at least MIN_REPS repetitions, and another one while more
    than half of it, judged by the median so far, fits in --seconds; so a run
    lasts about --seconds however fast the host or the code is.  A traced run
    follows TRACE_PLAN whatever the time.
    """
    done = len(durations)
    if trace:
        return TRACE_PLAN[done] if done < len(TRACE_PLAN) else None
    if done < MIN_REPS or elapsed + statistics.median(durations) / 2 <= seconds:
        return False
    return None


def ref_wall(rep) -> float:
    """A repetition's wall time at the reference host speed."""
    return (rep["end"] - rep["ready"]) * GAUGE_REF_S / rep["gauge_s"]


def case_failures(cases, records, reference) -> list[tuple[str, str]]:
    """(case, reason) for every case that raised, exited nonzero or changed its output."""
    out = []
    for argv, rec in zip(cases, records):
        key = workloads.case_key(argv)
        want = reference.get(key)
        if rec["error"] or rec["rc"] != 0:
            out.append((key, rec["error"] or f"exit code {rec['rc']}"))
        elif want is None:
            out.append((key, "no reference digest"))
        elif rec["sha256"] != want:
            out.append((key, f"output digest {rec['sha256'][:12]} differs from reference"))
    return out


def tail_latency(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) of the highest order statistic with >= 10 cases beyond it.

    With 10 cases or fewer no such percentile exists and the maximum is returned,
    flagged by a percentile of 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def trace_checks(rep) -> list[str]:
    """Self times must be non-negative and sum, per case, to at most the case's wall time."""
    spans = rep["trace"]["spans"]
    selfs = tracer.self_times(spans)
    problems = []
    per_case = defaultdict(float)
    for span, own in zip(spans, selfs):
        if own < -1e-9:
            problems.append(f"span {span[0]} has negative self time {own}")
        per_case[span[4]] += own
    for idx, rec in enumerate(rep["cases"]):
        wall = rec["end"] - rec["start"]
        if per_case.get(idx, 0.0) > wall + 1e-9:
            problems.append(f"case {idx}: span self times {per_case[idx]} exceed wall {wall}")
    return problems


def layer_values(rep) -> dict:
    """Per-layer metrics of one traced repetition (all but trace_overhead_ratio)."""
    spans, counts = rep["trace"]["spans"], dict(rep["trace"]["counts"])
    counts["cli.report_bytes"] = sum(rec["bytes"] for rec in rep["cases"])
    calls, self_s, layer_s = Counter(), defaultdict(float), defaultdict(float)
    for span, own in zip(spans, tracer.self_times(spans)):
        calls[span[0]] += 1
        self_s[span[0]] += own
        layer_s[span[0].split(".")[0]] += own

    def total(table, name):
        # "qt.gauss_solve" covers both of its per-field spans
        return sum(v for k, v in table.items() if k == name or k.startswith(name + "."))

    values = {}
    for metric, (_, source) in PER_LAYER.items():
        kind = source[0]
        if kind == "calls":
            values[metric] = total(calls, source[1])
        elif kind == "self_s":
            values[metric] = total(self_s, source[1])
        elif kind == "count":
            values[metric] = counts.get(source[1], 0)
        elif kind == "ratio":
            base = total(calls, source[2])
            values[metric] = counts.get(source[1], 0) / base if base else 0.0
        elif kind == "layer":
            values[metric] = layer_s[source[1]]
    values["_top_spans"] = sorted(self_s.items(), key=lambda kv: -kv[1])[:5]
    values["_layers"] = dict(layer_s)
    return values


def prediction_line(workload: str, values: dict) -> str:
    top_span = values["_top_spans"][0][0] if values["_top_spans"] else "none"
    layers = values["_layers"]
    top_layer = max(layers, key=layers.get) if layers else "none"
    kind, *names = PREDICTED[workload]
    met = (top_span in names) if kind == "span" else (top_layer in names)
    wanted = " or ".join(names)
    return (f"# dominant self time: span {top_span}, layer {top_layer}; "
            f"predicted {kind} {wanted}: {'met' if met else 'NOT MET'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="siflag benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()
    # turn SIGTERM into SystemExit so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if sys.flags.optimize or os.environ.get("PYTHONOPTIMIZE"):
        sys.stderr.write("refusing to run: -O / PYTHONOPTIMIZE strips siflag's load-bearing "
                         "asserts, so it would measure a weaker program\n")
        return 2
    if not (ROOT / "src" / "siflag" / "__init__.py").is_file():
        sys.stderr.write(f"no siflag sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    if args.seconds < 1:
        sys.stderr.write("--seconds must be at least 1\n")
        return 2
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    OUT_DIR.mkdir(exist_ok=True)

    cases = workloads.cases(args.workload, args.seed)
    runner = Runner(workloads.root_system_names(cases), began + CHILD_LIMIT_S)
    env = environment()
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed}: {len(cases)} cases per repetition")

    setups, reps, problems = [], [], []
    attempted = failed = 0
    durations = []
    try:
        runner.run([], setup_only=True)  # warms the bytecode and file caches; not measured
        start = time.perf_counter()
        while (traced := next_rep(durations, time.perf_counter() - start, args.seconds,
                                  args.trace)) is not None:
            began_rep = time.perf_counter()
            setups += [runner.run([], setup_only=True)["setup_s"] for _ in range(SETUP_PER_REP)]
            rep = runner.run(cases, trace=traced)
            durations.append(time.perf_counter() - began_rep)
            reps.append(rep)
            setups.append(rep["setup_s"])
            bad = case_failures(cases, rep["cases"], reference)
            attempted += len(cases)
            failed += len(bad)
            problems += [f"{key}: {why}" for key, why in bad]
    except ChildFailed as err:
        problems.append(str(err))
        attempted += len(cases)
        failed += len(cases)

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    walls = [r["end"] - r["ready"] for r in plain]
    ref_walls = [ref_wall(r) for r in plain]
    times = [c["end"] - c["start"] for r in plain for c in r["cases"]]
    print(f"# repetitions: {len(plain)} plain, {len(traced)} traced; "
          f"run took {time.perf_counter() - began:.2f} s")

    metrics = {}
    if times:
        tail, pct, n = tail_latency(times)
        e2e = {
            "setup_s": statistics.median(setups),
            "wall_ref_s": statistics.median(ref_walls),
            "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in plain),
        }
        print(f"# setup_s median of {len(setups)} set-ups; wall_ref_s median of {len(walls)} "
              f"repetitions; case_tail_s is p{pct:.1f} of {n} cases")
        for name, value in e2e.items():
            print(f"# {name} = {value:.6g} {END_TO_END[name]}")
        print(f"# wall_s = {statistics.median(walls):.6g} s (raw time to solution, not gated); "
              "gauge over reference per repetition: "
              + ", ".join(f"{r['gauge_s'] / GAUGE_REF_S:.3f} ({r['gauge_n']} samples)"
                          for r in plain))
        # printed but not gated: on the reference machine the case percentiles
        # spread between runs by more than the largest bound allowed (host noise
        # on per-case costs that differ tenfold); fail_ratio is 0 whenever the
        # program is correct, and the result carries it as "failed" over "attempted"
        print(f"# case_p50_s = {statistics.median(times):.6g} s (reported, not gated)")
        print(f"# case_tail_s = {tail:.6g} s (reported, not gated)")
        print(f"# fail_ratio = {failed}/{attempted} = {failed / max(attempted, 1):.4g}")
        if not args.trace:
            metrics = {name: {"value": value, "unit": END_TO_END[name]}
                       for name, value in e2e.items()}

    if args.trace and traced and walls:
        per_rep = [layer_values(r) for r in traced]
        for r in traced:
            problems += trace_checks(r)
        for name, (unit, source) in PER_LAYER.items():
            if source[0] == "overhead":
                value = statistics.median(ref_wall(r) for r in traced) \
                    / statistics.median(ref_walls)
            else:
                values = [v[name] for v in per_rep]
                if unit == "s":
                    value = statistics.median(values)
                else:
                    if len(set(values)) != 1:
                        problems.append(f"{name} differs between traced repetitions: {values}")
                    value = values[0]
            metrics[name] = {"value": value, "unit": unit}
        for name, own in per_rep[0]["_top_spans"]:
            print(f"# top self time: {name} {own:.4g} s")
        print(prediction_line(args.workload, per_rep[0]))
        for name, m in metrics.items():
            print(f"# {name} = {m['value']:.6g} {m['unit']}")

    for line in problems[:20]:
        print(f"# problem: {line}")
    correct = not problems and failed == 0 and bool(metrics)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "correct": correct, "problems": problems,
              "setups": setups, "walls": walls, "ref_walls": ref_walls,
              "gauges_s": [r["gauge_s"] for r in plain], "case_times": times, "failed": failed,
              "attempted": attempted, "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
