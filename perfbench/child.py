"""One benchmark child: a fresh interpreter that runs a case list of siflag CLI calls.

Usage: python3 child.py SPEC OUT

SPEC is a JSON file ``{"src", "types", "cases", "trace", "setup_only"}`` written
by run.py.  The child imports siflag from ``src`` only, builds the workload's
root systems, records the moment it is ready, then calls ``siflag.cli.main`` on
each case in turn with stdout captured, and writes the timings, the sha256 of
each case's output and its own peak RSS to OUT as JSON.  With ``trace`` set it
installs the tracer after set-up and writes the spans too.

While the cases run, a timer interrupts them every ``GAUGE_EVERY_S`` to time a
fixed ``Fraction`` sum (``gauge``) on the same thread, so on the same CPU at
the same moment.  The host's speed drifts by tens of percent over seconds, and
the mean of these samples tracks the cases' own slow-downs; run.py uses it to
express wall time at a reference host speed.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

GAUGE_EVERY_S = 0.1


def gauge() -> float:
    """Seconds a fixed Fraction sum takes now, with the collector held off."""
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, i + 3)
    took = time.perf_counter() - start
    if collecting:
        gc.enable()
    return took


def run_cases(cli, cases, tracer):
    records = []
    for idx, argv in enumerate(cases):
        if tracer is not None:
            tracer.case = idx
        buf = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(argv))
        except SystemExit as exc:
            rc, error = exc.code, f"SystemExit: {exc.code}"
        except Exception as exc:  # a failing case is recorded, the rest still run
            rc, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        data = buf.getvalue().encode("utf-8")
        records.append({"start": start, "end": end, "rc": rc, "error": error,
                        "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()})
    return records


def main() -> int:
    spec_path, out_path = sys.argv[1:3]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if sys.flags.optimize:
        sys.stderr.write("child: refusing to run under -O, which strips siflag's asserts\n")
        return 2
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import siflag
    from siflag import cli
    from siflag.rootdata import from_name

    if not os.path.abspath(siflag.__file__).startswith(src + os.sep):
        sys.stderr.write(f"child: siflag imported from {siflag.__file__}, not from {src}\n")
        return 2
    for name in spec["types"]:
        from_name(name)
    result = {"ready": time.perf_counter()}
    if not spec["setup_only"]:
        tracer = None
        if spec["trace"]:
            import tracer as tracing

            tracer = tracing.install()
        samples = [gauge()]
        signal.signal(signal.SIGALRM, lambda *_: samples.append(gauge()))
        signal.setitimer(signal.ITIMER_REAL, GAUGE_EVERY_S, GAUGE_EVERY_S)
        result["cases"] = run_cases(cli, spec["cases"], tracer)
        signal.setitimer(signal.ITIMER_REAL, 0)
        result["end"] = time.perf_counter()
        result["gauge_s"] = sum(samples) / len(samples)
        result["gauge_n"] = len(samples)
        if tracer is not None:
            result["trace"] = tracer.dump()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
