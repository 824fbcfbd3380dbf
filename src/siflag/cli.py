"""Command-line front end and batch verification driver."""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iproduct

from .affine import adapted_sequence, quantum_covers
from .charpoly import CharPoly, CharSeries, demazure_word
from .macdonald import bar_conjugate, gram_schmidt_E, specialize
from .rootdata import (
    RootSystem,
    Weight,
    Coweight,
    WeylElement,
    build_root_system,
    from_name,
    minimal_coset_reps,
)
from . import weylchar as wc

SUITES = ("nmconn", "dmain", "fdif", "cor", "gnsmac", "all")


@dataclass
class RunConfig:
    command: str
    rs: RootSystem
    lam: Weight | None = None
    gamma: Weight | None = None
    w_word: tuple[int, ...] | None = None
    beta: Coweight | None = None
    trunc: int = 20
    spec_modes: tuple[str, ...] = ()
    fmt: str = "plain"
    suite: str = "all"
    max_weight: int = 2
    jobs: int = 1
    out: str | None = None
    global_series: bool = False
    dagger: bool = False
    qb_from: str = "e"
    qb_to: str | None = None


@dataclass
class Report:
    suite: str
    type_name: str
    cases: list = field(default_factory=list)

    def n_failed(self) -> int:
        return sum(1 for c in self.cases if c["status"] != "pass")

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "type": self.type_name,
            "cases": sorted(self.cases, key=lambda c: (c["suite"], c["case"])),
            "n_cases": len(self.cases),
            "n_failed": self.n_failed(),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def default_trunc() -> int:
    env = os.environ.get("SIMAC_TRUNC")
    if env:
        try:
            val = int(env)
            if val >= 1:
                return val
        except ValueError:
            pass
        raise SystemExit(f"SIMAC_TRUNC must be a positive integer, got {env!r}")
    return 20


def parse_weight(rs: RootSystem, text: str, name: str) -> Weight:
    parts = [p.strip() for p in text.split(",") if p.strip() != ""]
    try:
        coords = tuple(int(p) for p in parts)
    except ValueError:
        raise SystemExit(f"--{name} expects a comma list of integers, got {text!r}")
    if len(coords) != rs.rank:
        raise SystemExit(
            f"--{name} has {len(coords)} coordinates but {rs.type_label}{rs.rank} has rank {rs.rank}")
    return Weight(coords)


def parse_coweight(rs: RootSystem, text: str) -> Coweight:
    return Coweight(parse_weight(rs, text, "beta").coords)


def parse_weyl_word(rs: RootSystem, text: str) -> WeylElement:
    text = text.strip()
    if text in ("", "e", "1"):
        return rs.identity
    if text == "w0":
        return rs.longest_element()
    out = rs.identity
    for token in text.split():
        if not (token.startswith("s") and token[1:].isdigit()):
            raise SystemExit(f"cannot parse Weyl word token {token!r} (use e.g. 's1 s2' or 'w0')")
        i = int(token[1:])
        if not 1 <= i <= rs.rank:
            raise SystemExit(f"generator index {i} out of range for rank {rs.rank}")
        out = out * rs.simple_reflection(i)
    return out


def _build_rs(args) -> RootSystem:
    name = args.type
    if name is None:
        raise SystemExit("--type is required (e.g. --type A2)")
    if name.isalpha():
        if args.rank is None:
            raise SystemExit("--rank is required when --type is a bare letter")
        return build_root_system(name.upper(), args.rank)
    try:
        return from_name(name)
    except ValueError as err:
        raise SystemExit(str(err))


# -- emission -------------------------------------------------------------------


def emit(result, fmt: str) -> str:
    """Render a CharPoly/CharSeries (or QTRat coefficient map) as text."""
    if isinstance(result, CharSeries):
        result = result.poly
    if isinstance(result, CharPoly):
        items = result.sorted_terms()
        if fmt == "json":
            return json.dumps(
                [{"coeff": _frac_str(c), "q": n, "wt": list(wt)} for (wt, n), c in items],
                separators=(",", ":"))
        if fmt == "latex":
            if not items:
                return "0"
            bits = []
            for (wt, n), c in items:
                mono = f"q^{{{n}}} e^{{{list(wt)}}}"
                bits.append(mono if c == 1 else f"{_frac_str(c)}\\, {mono}")
            return " + ".join(bits)
        return repr(result)
    # weight -> QTRat map (generic-t output)
    items = sorted(result.items(), key=lambda kv: kv[0].coords)
    if fmt == "json":
        return json.dumps(
            [{"wt": list(w.coords), **c.to_json()} for w, c in items],
            separators=(",", ":"))
    if fmt == "latex":
        bits = []
        for w, c in items:
            cj = c.to_json()
            coeff = cj["num"] if cj["den"] == "1" else f"\\frac{{{cj['num']}}}{{{cj['den']}}}"
            bits.append(f"{coeff}\\, e^{{{list(w.coords)}}}")
        return " + ".join(bits) if bits else "0"
    return "\n".join(f"e{list(w.coords)}: {c!r}" for w, c in items)


def _frac_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


# -- verification suites -----------------------------------------------------------


def _dominant_weights(rs: RootSystem, max_weight: int):
    out = []
    for coords in iproduct(range(max_weight + 1), repeat=rs.rank):
        if 0 < sum(coords) <= max_weight:
            out.append(Weight(coords))
    return sorted(out, key=lambda w: (sum(w.coords), w.coords))


def _default_beta(rs: RootSystem) -> Coweight:
    simples = [rs.root_to_weight(tuple(1 if k == i else 0 for k in range(rs.rank)))
               for i in range(rs.rank)]
    for radius in range(1, 9):
        for coords in sorted(iproduct(range(0, -radius - 1, -1), repeat=rs.rank)):
            beta = Coweight(coords)
            if all(rs.pairing(beta, a) < 0 for a in simples):
                return beta
    raise AssertionError("no strictly antidominant coweight found in search box")


def _series_discrepancy(a: CharSeries, b: CharSeries):
    got = a.first_discrepancy(b)
    if got is None:
        return None
    (wt, n), ca, cb = got
    return {"q": n, "wt": list(wt), "lhs": _frac_str(ca), "rhs": _frac_str(cb)}


def _suite_nmconn(rs: RootSystem, max_weight: int, trunc: int, beta: Coweight | None = None):
    if beta is None:
        beta = _default_beta(rs)
    for lam in _dominant_weights(rs, max_weight):
        case = f"{rs.type_label}{rs.rank}:lam={','.join(map(str, lam.coords))}"

        def run(lam=lam):
            ok, disc = wc.nmconn_report(rs, lam, beta, trunc)
            return ok, disc

        yield case, run


def _suite_dmain(rs: RootSystem, max_weight: int, trunc: int):
    elems = rs.weyl_elements()
    for lam in _dominant_weights(rs, max_weight):
        for w in elems:
            for v in elems:
                if (w * v).length() != w.length() + v.length():
                    continue
                case = (f"{rs.type_label}{rs.rank}:lam={','.join(map(str, lam.coords))}"
                        f":w={'.'.join(map(str, w.word())) or 'e'}"
                        f":v={'.'.join(map(str, v.word())) or 'e'}")

                def run(lam=lam, w=w, v=v):
                    lhs = demazure_word(rs, w.word(), wc.global_demazure_char(rs, v, lam, trunc).value)
                    rhs = wc.global_demazure_char(rs, w * v, lam, trunc).value
                    # the left side keeps the full watermark: only classical letters act
                    ok = lhs.equal_upto_watermark(rhs)
                    return ok, (None if ok else _series_discrepancy(lhs, rhs))

                yield case, run


def _suite_fdif(rs: RootSystem, max_weight: int, trunc: int):
    from .affine import minimal_loops

    for lam in _dominant_weights(rs, max_weight):
        for w in minimal_coset_reps(rs, lam):
            case = (f"{rs.type_label}{rs.rank}:lam={','.join(map(str, lam.coords))}"
                    f":w={'.'.join(map(str, w.word())) or 'e'}")

            def run(lam=lam, w=w):
                loops = minimal_loops(rs, w)
                for loop in loops:
                    m, ok = wc.difference_loop_check(rs, w, lam, loop, trunc)
                    expected = wc.loop_exponent(rs, loop, w, lam)
                    if not ok or m != expected:
                        return False, {"loop": list(loop), "exponent": m, "telescoped": expected}
                if len(loops) >= 2:
                    a, b = loops[0], loops[1]
                    dc = wc.global_demazure_char(rs, w, lam, trunc)
                    ab = demazure_word(rs, a + b, dc.value)
                    ba = demazure_word(rs, b + a, dc.value)
                    if not ab.equal_upto_watermark(ba):
                        return False, {"loops": [list(a), list(b)],
                                       "issue": "loop operators fail to commute"}
                return True, None

            yield case, run


def _suite_cor(rs: RootSystem, max_weight: int, trunc: int):
    oracle_ok = rs.key in (("A", 1), ("A", 2))
    bound = min(max_weight, 2) if oracle_ok else max_weight
    for lam in _dominant_weights(rs, bound):
        for w in minimal_coset_reps(rs, lam):
            case = (f"{rs.type_label}{rs.rank}:lam={','.join(map(str, lam.coords))}"
                    f":w={'.'.join(map(str, w.word())) or 'e'}")

            def run(lam=lam, w=w):
                fam = wc.cor_family(rs, w, lam)
                if not oracle_ok:
                    # no oracle at this type: the exactness of every (1 - q^a)
                    # division along the chain is itself the check
                    return True, None
                oracle = specialize(
                    bar_conjugate(gram_schmidt_E(rs, -w.act(lam))), ("t-inf", "q-inv"))
                if fam != oracle:
                    return False, wc._poly_discrepancy(fam, oracle)
                if w == rs.identity and wc.genweyl_char(rs, w, lam).value != fam:
                    return False, "base characters of the two families disagree"
                if w.length() == max(u.length() for u in minimal_coset_reps(rs, lam)):
                    # the antidominant endpoint is the t = 0 specialization
                    zero_end = specialize(bar_conjugate(gram_schmidt_E(rs, -lam)), "t-0")
                    gen = wc.genweyl_char(rs, w, lam).value
                    if gen != zero_end:
                        return False, wc._poly_discrepancy(gen, zero_end)
                return True, None

            yield case, run


def _suite_gnsmac(rs: RootSystem, max_weight: int, trunc: int):
    for lam in _dominant_weights(rs, max_weight):
        for w in minimal_coset_reps(rs, lam):
            case = (f"{rs.type_label}{rs.rank}:lam={','.join(map(str, lam.coords))}"
                    f":w={'.'.join(map(str, w.word())) or 'e'}")

            def run(lam=lam, w=w):
                try:
                    wc.twisted_euler_char(rs, w, lam, trunc, check=True)
                except AssertionError as err:
                    return False, str(err)
                return True, None

            yield case, run


_SUITE_BUILDERS = {
    "nmconn": _suite_nmconn,
    "dmain": _suite_dmain,
    "fdif": _suite_fdif,
    "cor": _suite_cor,
    "gnsmac": _suite_gnsmac,
}


def run_suite(config: RunConfig) -> Report:
    """Execute the selected verification suites, order-stable and parallel-safe."""
    names = list(_SUITE_BUILDERS) if config.suite == "all" else [config.suite]
    cases = []
    for name in names:
        builder = _SUITE_BUILDERS[name]
        if name == "nmconn":
            gen = builder(config.rs, config.max_weight, config.trunc, config.beta)
        else:
            gen = builder(config.rs, config.max_weight, config.trunc)
        for case_id, thunk in gen:
            cases.append((name, case_id, thunk))

    def execute(entry):
        name, case_id, thunk = entry
        try:
            ok, disc = thunk()
        except Exception as err:  # deterministic: message only, no traceback
            ok, disc = False, f"{type(err).__name__}: {err}"
        return {
            "suite": name,
            "case": case_id,
            "status": "pass" if ok else "fail",
            "first_discrepancy": disc,
        }

    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(execute, cases))
    else:
        results = [execute(entry) for entry in cases]
    report = Report(config.suite, f"{config.rs.type_label}{config.rs.rank}", results)
    return report


# -- argument parsing ----------------------------------------------------------------


def parse_args(argv) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="siflag",
        description="Exact characters of current-algebra Weyl module Demazure submodules "
                    "and nonsymmetric Macdonald specializations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_lambda=False):
        p.add_argument("--type", help="root system, e.g. A2, C2, G2")
        p.add_argument("--rank", type=int, help="rank when --type is a bare letter")
        p.add_argument("--trunc", type=int, default=None, help="q-series truncation order")
        p.add_argument("--format", dest="fmt", choices=("json", "latex", "plain"),
                       default="plain")
        p.add_argument("--out", help="write output to this file")
        if need_lambda:
            p.add_argument("--lambda", dest="lam", required=True,
                           help="dominant weight, fundamental coordinates, e.g. 1,0")
            p.add_argument("--w", default="e", help="Weyl word, e.g. 's1 s2', 'e', 'w0'")

    p_roots = sub.add_parser("roots", help="dump root-system data")
    common(p_roots)

    p_qb = sub.add_parser("qbruhat", help="adapted sequences and the quantum Bruhat graph")
    common(p_qb)
    p_qb.add_argument("--from", dest="qb_from", default="e")
    p_qb.add_argument("--to", dest="qb_to", default=None)

    p_emac = sub.add_parser("emac", help="nonsymmetric Macdonald polynomial oracle")
    common(p_emac)
    p_emac.add_argument("--gamma", required=True, help="index weight, e.g. -1,0")
    p_emac.add_argument("--spec", default=None,
                        help="comma list of specializations: t-0, t-inf, q-inv")
    p_emac.add_argument("--dagger", action="store_true",
                        help="bar-conjugate (invert weight exponentials) first")

    p_wc = sub.add_parser("weylchar", help="generalized / global Weyl module characters")
    common(p_wc, need_lambda=True)
    p_wc.add_argument("--global", dest="global_series", action="store_true",
                      help="emit the global Demazure series instead of the finite character")

    p_tw = sub.add_parser("twisted", help="twisted Euler characteristics")
    common(p_tw, need_lambda=True)

    p_ver = sub.add_parser("verify", help="run verification suites")
    common(p_ver)
    p_ver.add_argument("--suite", choices=SUITES, default="all")
    p_ver.add_argument("--max-weight", type=int, default=2)
    p_ver.add_argument("--beta", default=None,
                       help="override the antidominant coweight for nmconn")
    p_ver.add_argument("--jobs", type=int, default=1)

    args = parser.parse_args(argv)
    rs = _build_rs(args)
    trunc = args.trunc if args.trunc is not None else default_trunc()
    if trunc < 1:
        raise SystemExit("--trunc must be >= 1")

    config = RunConfig(command=args.command, rs=rs, trunc=trunc, fmt=getattr(args, "fmt", "plain"),
                       out=args.out)
    if hasattr(args, "lam"):
        config.lam = parse_weight(rs, args.lam, "lambda")
        if not config.lam.is_dominant():
            raise SystemExit("--lambda must be dominant (nonnegative coordinates)")
        config.w_word = parse_weyl_word(rs, args.w).word()
    if getattr(args, "gamma", None) is not None:
        config.gamma = parse_weight(rs, args.gamma, "gamma")
    if getattr(args, "spec", None):
        config.spec_modes = tuple(m.strip() for m in args.spec.split(",") if m.strip())
    if getattr(args, "beta", None):
        config.beta = parse_coweight(rs, args.beta)
    if args.command == "verify":
        if args.max_weight < 1:
            raise SystemExit("--max-weight must be >= 1")
        config.suite = args.suite
        config.max_weight = args.max_weight
        config.jobs = max(1, args.jobs)
    if args.command == "qbruhat":
        config.qb_from = args.qb_from
        config.qb_to = args.qb_to
    config.global_series = getattr(args, "global_series", False)
    config.dagger = getattr(args, "dagger", False)
    return config


def _write(config: RunConfig, text: str) -> None:
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def main(argv=None) -> int:
    config = parse_args(sys.argv[1:] if argv is None else argv)
    rs = config.rs

    if config.command == "roots":
        _write(config, json.dumps(rs.to_json(), sort_keys=True, separators=(",", ":")))
        return 0

    if config.command == "qbruhat":
        if config.qb_to is not None:
            v = parse_weyl_word(rs, config.qb_from)
            w = parse_weyl_word(rs, config.qb_to)
            word = adapted_sequence(rs, v, w)
            _write(config, " ".join(map(str, word)))
            return 0
        edges = []
        for u in rs.weyl_elements():
            for cov in quantum_covers(rs, u):
                edges.append({
                    "from": " ".join(f"s{i}" for i in u.word()) or "e",
                    "to": " ".join(f"s{i}" for i in cov.target.word()) or "e",
                    "letter": cov.letter,
                })
        _write(config, json.dumps({"edges": edges}, sort_keys=True, separators=(",", ":")))
        return 0

    if config.command == "emac":
        # the oracle's scope and the specialization modes are the library's to judge
        try:
            epoly = gram_schmidt_E(rs, config.gamma)
            if config.dagger:
                epoly = bar_conjugate(epoly)
            if config.spec_modes:
                result = specialize(epoly, config.spec_modes)
            else:
                result = dict(epoly.coeffs)
        except ValueError as err:
            raise SystemExit(f"emac: {err}")
        _write(config, emit(result, config.fmt))
        return 0

    if config.command == "weylchar":
        w = rs.element_from_word(config.w_word)
        if config.global_series:
            result = wc.global_demazure_char(rs, w, config.lam, config.trunc).value
        else:
            result = wc.genweyl_char(rs, w, config.lam).value
        _write(config, emit(result, config.fmt))
        return 0

    if config.command == "twisted":
        w = rs.element_from_word(config.w_word)
        result = wc.twisted_euler_char(rs, w, config.lam, config.trunc)
        _write(config, emit(result, config.fmt))
        return 0

    if config.command == "verify":
        report = run_suite(config)
        _write(config, report.to_json())
        return 0 if report.n_failed() == 0 else 1

    raise SystemExit(f"unknown command {config.command!r}")


if __name__ == "__main__":
    sys.exit(main())
