"""Span tracing of siflag, installed from outside the package.

``install`` wraps the public functions listed in ``TARGETS``.  The siflag
modules import one another by name (``from .qt import gauss_solve``), so every
module-level binding of a wrapped function is replaced, not only the one in the
defining module; methods are replaced on their class.

Each call becomes a span ``(name, start, end, parent, case)`` kept in memory and
written out by the caller at exit.  A span's self time is its duration minus the
durations of its direct children; calls run on one thread, so children never
overlap.  Alongside the spans the tracer keeps exact work counts (Gauss cells,
density entries, cache hits) taken from the arguments and results.
"""
from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction

# (module, class or None, attribute, span name)
TARGETS = [
    ("rootdata", "WeylElement", "inverse", "rootdata.inverse"),
    ("affine", "AffineElement", "__mul__", "affine.mul"),
    ("affine", None, "shortest_word", "affine.shortest_word"),
    ("affine", None, "minimal_loops", "affine.minimal_loops"),
    ("charpoly", None, "demazure_op", "charpoly.demazure_op"),
    ("charpoly", None, "exact_divide", "charpoly.exact_divide"),
    ("charpoly", None, "freeness_factor", "charpoly.freeness_factor"),
    ("qt", None, "gauss_solve", "qt.gauss_solve"),
    ("qt", None, "gauss_nullspace", "qt.gauss_nullspace"),
    ("qt", None, "p_gcd", "qt.p_gcd"),
    ("macdonald", None, "density_table", "macdonald.density_table"),
    ("macdonald", None, "gram_schmidt_E", "macdonald.gram_schmidt_E"),
    ("weylchar", None, "eigen_solve_base", "weylchar.eigen_solve_base"),
    ("weylchar", None, "base_char", "weylchar.base_char"),
    ("weylchar", None, "global_demazure_char", "weylchar.global_demazure_char"),
    ("weylchar", None, "difference_loop_check", "weylchar.difference_loop_check"),
    ("cli", None, "main", "cli.main"),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.case = -1

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name, before=None, after=None):
        """A traced stand-in for fn.

        name is a string or a function of the call's arguments.  before(args)
        runs ahead of the call and its value goes to after(token, args, result,
        raised); both run outside the span's own interval.
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            token = before(args) if before else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result, raised = None, True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent, self.case)
                if after:
                    after(token, args, result, raised)

        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def _rebind(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "siflag" or mod_name.startswith("siflag.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _probes(tracer: Tracer, modules: dict) -> dict:
    """Per-target (name, before, after) overrides that record work counts."""
    add = tracer.add
    CharPoly = modules["charpoly"].CharPoly
    e_cache = modules["macdonald"]._E_CACHE
    base_cache = modules["weylchar"]._BASE_CACHE

    def demazure_before(args):
        f = args[2]
        if isinstance(f, CharPoly):
            add("charpoly.demazure_op.terms_in", len(f.terms))

    def gauss_name(args):
        return "qt.gauss_solve.fraction" if isinstance(args[2], Fraction) else "qt.gauss_solve.qtrat"

    def gauss_after(_token, args, _result, _raised):
        rows = args[0]
        add("qt.gauss_solve.cells", len(rows) * (len(rows[0]) if rows else 0))
        add("qt.gauss_solve.nnz", sum(1 for row in rows for x in row if x))

    def density_after(_token, args, result, raised):
        add("macdonald.density_table.targets", len(args[1]))
        if not raised:
            add("macdonald.density_table.entries", len(result))

    def cache_probe(cache, key):
        # a call that leaves the cache size unchanged was served from it
        def after(size_before, _args, _result, raised):
            if not raised and len(cache) == size_before:
                add(key)
        return (lambda _args: len(cache)), after

    def eigen_after(_token, _args, _result, raised):
        if not raised:
            add("weylchar.eigen_solve_base.successes")

    e_before, e_after = cache_probe(e_cache, "macdonald.gram_schmidt_E.hits")
    b_before, b_after = cache_probe(base_cache, "weylchar.base_char.hits")
    return {
        "charpoly.demazure_op": (None, demazure_before, None),
        "qt.gauss_solve": (gauss_name, None, gauss_after),
        "macdonald.density_table": (None, None, density_after),
        "macdonald.gram_schmidt_E": (None, e_before, e_after),
        "weylchar.base_char": (None, b_before, b_after),
        "weylchar.eigen_solve_base": (None, None, eigen_after),
    }


def install() -> Tracer:
    """Wrap every target in the imported siflag package and return the tracer."""
    import siflag  # noqa: F401  (loads every submodule)

    modules = {name: sys.modules["siflag." + name] for name, _, _, _ in TARGETS}
    tracer = Tracer()
    probes = _probes(tracer, modules)
    for mod_name, cls_name, attr, span in TARGETS:
        label, before, after = probes.get(span, (None, None, None))
        owner = getattr(modules[mod_name], cls_name) if cls_name else modules[mod_name]
        original = vars(owner)[attr]
        traced = tracer.wrap(original, label or span, before, after)
        if cls_name:
            setattr(owner, attr, traced)
        else:
            _rebind(original, traced)
    return tracer


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]
