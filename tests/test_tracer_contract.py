"""The benchmark tracer's contract with the package.

``perfbench/tracer.py`` wraps the functions it lists in ``TARGETS`` by name and
counts cache hits by watching ``macdonald._E_CACHE`` and
``weylchar._BASE_CACHE``.  A rename in the package would break a traced
benchmark run (``--trace 1``); this test breaks first.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import siflag

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = """
import contextlib, io, json, sys
import tracer
from siflag import cli
traced = tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in (
        ["emac", "--type", "A1", "--gamma=-1", "--format", "json"],
        ["weylchar", "--type", "B2", "--lambda", "1,0", "--w", "e", "--format", "json"],
        ["verify", "--type", "A1", "--suite", "all", "--max-weight", "1", "--trunc", "8"])]
unwrapped = []
for mod, cls, attr, span in tracer.TARGETS:
    owner = sys.modules["siflag." + mod]
    owner = getattr(owner, cls) if cls else owner
    if not hasattr(vars(owner)[attr], "__wrapped__"):
        unwrapped.append(span)
print(json.dumps({"codes": codes, "unwrapped": unwrapped, "counts": traced.counts,
                  "spans": sorted({span[0] for span in traced.spans})}))
"""


def test_tracer_wraps_every_target_and_counts_cache_hits():
    src = os.path.dirname(os.path.dirname(siflag.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.path.join(ROOT, "perfbench"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == [0, 0, 0]
    assert got["unwrapped"] == []
    # the spans come through the names cli imported, so the rebinding reached them
    for span in ("cli.main", "macdonald.density_table", "macdonald.gram_schmidt_E",
                 "weylchar.base_char", "weylchar.eigen_solve_base", "charpoly.demazure_op"):
        assert span in got["spans"], span
    assert got["counts"].get("macdonald.gram_schmidt_E.hits", 0) > 0
    assert got["counts"].get("weylchar.base_char.hits", 0) > 0
