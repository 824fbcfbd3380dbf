"""Command-line front end and batch verification driver.

``main`` may be called many times in one process (scripts, tests, the
benchmark).  The argument parser is built on first use and shared by every
later call, and ``--type`` resolves through ``rootdata.build_root_system``, so
each call uses the process's one ``RootSystem`` per ``(type, rank)``; importing
this module builds neither.  Suites run their cases one after another.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field

from .affine import adapted_sequence, quantum_covers
from .charpoly import CharPoly
from .macdonald import bar_conjugate, gram_schmidt_E, specialize
from .rootdata import RootSystem, Weight, Coweight, WeylElement, build_root_system, from_name
from . import verify
from . import weylchar as wc


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
    out: str | None = None
    global_series: bool = False
    dagger: bool = False
    qb_from: WeylElement | None = None
    qb_to: WeylElement | None = None


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


def parse_weight(rs: RootSystem, text: str, name: str) -> Weight:
    try:
        coords = tuple(int(p) for p in text.split(","))
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
    if name.isalpha() and args.rank is None:
        raise SystemExit("--rank is required when --type is a bare letter")
    try:
        rs = build_root_system(name.upper(), args.rank) if name.isalpha() else from_name(name)
    except ValueError as err:
        raise SystemExit(str(err))
    if args.rank is not None and args.rank != rs.rank:
        raise SystemExit(f"--rank {args.rank} does not match --type {name}")
    return rs


# -- emission -------------------------------------------------------------------


def emit(result, fmt: str) -> str:
    """Render a CharPoly (or QTRat coefficient map) as text."""
    if isinstance(result, CharPoly):
        items = result.sorted_terms()
        if fmt == "json":
            return json.dumps(
                [{"coeff": str(c), "q": n, "wt": list(wt)} for (wt, n), c in items],
                separators=(",", ":"))
        if fmt == "latex":
            if not items:
                return "0"
            bits = []
            for (wt, n), c in items:
                mono = f"q^{{{n}}} e^{{{list(wt)}}}"
                bits.append(mono if c == 1 else f"{c}\\, {mono}")
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


def run_suite(config: RunConfig) -> Report:
    """Execute the selected verification suites, one case after another, order-stable."""
    rs = config.rs
    specs = verify.cases(rs, config.suite, config.max_weight)
    beta = config.beta
    if beta is None and any(case.suite == "nmconn" for case in specs):
        beta = verify.default_beta(rs)
    results = []
    for case in specs:
        try:
            ok, disc = verify.check(rs, case, beta)
        except Exception as err:  # deterministic: message only, no traceback
            ok, disc = False, f"{type(err).__name__}: {err}"
        results.append({
            "suite": case.suite,
            "case": case.case_id,
            "status": "pass" if ok else "fail",
            "first_discrepancy": disc,
        })
    if rs.key not in verify.ORACLE_TYPES:
        unreferenced = sum(1 for r in results if r["suite"] == "cor" and r["status"] == "pass")
        if unreferenced:
            print(f"note: {unreferenced} cor case(s) passed with no independent reference; "
                  "only their exact (1 - q^a) divisions were checked", file=sys.stderr)
    elif config.suite in ("cor", "all") and config.max_weight > verify.COR_MAX_WEIGHT:
        print(f"note: cor cases capped at --max-weight {verify.COR_MAX_WEIGHT} on "
              f"{rs.type_label}{rs.rank}, where the oracle is their reference", file=sys.stderr)
    return Report(config.suite, f"{rs.type_label}{rs.rank}", results)


# -- argument parsing ----------------------------------------------------------------


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The CLI's argument parser and its weylchar subparser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="siflag",
        description="Exact characters of current-algebra Weyl module Demazure submodules "
                    "and nonsymmetric Macdonald specializations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_lambda=False, trunc=False, fmt=False):
        p.add_argument("--type", help="root system, e.g. A2, C2, G2")
        p.add_argument("--rank", type=int,
                       help="rank when --type is a bare letter (must match a full name)")
        if trunc:
            p.add_argument("--trunc", type=int,
                           help="q-series truncation order of weylchar --global and twisted "
                                "(default 20); verify accepts it but its verdicts do not "
                                "depend on it")
        if fmt:
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
    p_qb.add_argument("--from", dest="qb_from", default=None,
                      help="start of the adapted sequence (default e); needs --to")
    p_qb.add_argument("--to", dest="qb_to", default=None)

    p_emac = sub.add_parser("emac", help="nonsymmetric Macdonald polynomial oracle")
    common(p_emac, fmt=True)
    p_emac.add_argument("--gamma", required=True, help="index weight, e.g. -1,0")
    p_emac.add_argument("--spec", default=None,
                        help="comma list of specializations: t-0, t-inf, q-inv")
    p_emac.add_argument("--dagger", action="store_true",
                        help="bar-conjugate (invert weight exponentials) first")

    p_wc = sub.add_parser("weylchar", help="generalized / global Weyl module characters")
    common(p_wc, need_lambda=True, trunc=True, fmt=True)
    p_wc.add_argument("--global", dest="global_series", action="store_true",
                      help="emit the global Demazure series instead of the finite character")

    p_tw = sub.add_parser("twisted", help="twisted Euler characteristics")
    common(p_tw, need_lambda=True, trunc=True, fmt=True)

    p_ver = sub.add_parser("verify", help="run verification suites")
    common(p_ver, trunc=True)
    p_ver.add_argument("--suite", choices=verify.SUITES + ("all",), default="all")
    p_ver.add_argument("--max-weight", type=int, default=2)
    p_ver.add_argument("--beta", default=None,
                       help="override the antidominant coweight for nmconn")
    p_ver.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility and read by nothing: cases run "
                            "one after another")
    return parser, p_wc


def _attach_negative_values(argv) -> list[str]:
    """argv with "--gamma -1,0" written "--gamma=-1,0", so both forms parse alike.

    argparse reads a token that starts with "-" as a flag unless it is a plain
    negative number, so a weight such as -1,0 could follow a flag only after
    "="; no flag of this CLI starts with "-" and a digit.
    """
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if token[:1] == "-" and token[1:2].isdigit() and prev.startswith("--") and "=" not in prev:
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def parse_args(argv) -> RunConfig:
    parser, p_wc = _parser()
    args = parser.parse_args(_attach_negative_values(argv))
    if args.command == "weylchar" and args.trunc is not None and not args.global_series:
        p_wc.error("--trunc is read only with --global")
    rs = _build_rs(args)
    config = RunConfig(command=args.command, rs=rs, fmt=getattr(args, "fmt", "plain"),
                       out=args.out)
    if getattr(args, "trunc", None) is not None:
        if args.trunc < 1:
            raise SystemExit("--trunc must be >= 1")
        config.trunc = args.trunc
    if hasattr(args, "lam"):
        config.lam = parse_weight(rs, args.lam, "lambda")
        if not config.lam.is_dominant():
            raise SystemExit("--lambda must be dominant (nonnegative coordinates)")
        config.w_word = parse_weyl_word(rs, args.w).word()
    if getattr(args, "gamma", None) is not None:
        config.gamma = parse_weight(rs, args.gamma, "gamma")
    if getattr(args, "spec", None):
        config.spec_modes = tuple(m.strip() for m in args.spec.split(",") if m.strip())
    if getattr(args, "beta", None) is not None:
        config.beta = parse_coweight(rs, args.beta)
        if not verify._strictly_antidominant(rs, config.beta):
            raise SystemExit("--beta must pair strictly negatively with every simple root")
    if args.command == "verify":
        if args.max_weight < 1:
            raise SystemExit("--max-weight must be >= 1")
        config.suite = args.suite
        config.max_weight = args.max_weight
        if args.jobs < 1:
            raise SystemExit("--jobs must be >= 1")
    if args.command == "qbruhat":
        if args.qb_from is not None and args.qb_to is None:
            raise SystemExit("qbruhat --from needs --to")
        if args.qb_to is not None:
            config.qb_from = parse_weyl_word(rs, args.qb_from or "e")
            config.qb_to = parse_weyl_word(rs, args.qb_to)
    config.global_series = getattr(args, "global_series", False)
    config.dagger = getattr(args, "dagger", False)
    return config


def _write(config: RunConfig, text: str) -> None:
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as err:
            raise SystemExit(f"cannot write --out {config.out}: {err.strerror}")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def main(argv=None) -> int:
    config = parse_args(sys.argv[1:] if argv is None else argv)
    # what the library rejects (oracle scope, specialization modes, a base the
    # eigen solve cannot pin) ends as "<command>: <message>", exit 1
    try:
        return _run(config)
    except ValueError as err:
        raise SystemExit(f"{config.command}: {err}")


def _run(config: RunConfig) -> int:
    rs = config.rs

    if config.command == "roots":
        _write(config, json.dumps(rs.to_json(), sort_keys=True, separators=(",", ":")))
        return 0

    if config.command == "qbruhat":
        if config.qb_to is not None:
            word = adapted_sequence(rs, config.qb_from, config.qb_to)
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
        epoly = gram_schmidt_E(rs, config.gamma)
        if config.dagger:
            epoly = bar_conjugate(epoly)
        if config.spec_modes:
            result = specialize(epoly, config.spec_modes)
        else:
            result = dict(epoly.coeffs)
        _write(config, emit(result, config.fmt))
        return 0

    if config.command == "weylchar":
        w = rs.element_from_word(config.w_word)
        if config.global_series:
            result = wc.global_demazure_char(rs, w, config.lam, config.trunc)
        else:
            result = wc.genweyl_char(rs, w, config.lam).value
        _write(config, emit(result, config.fmt))
        return 0

    if config.command == "twisted":
        w = rs.element_from_word(config.w_word)
        result = wc.twisted_euler_char(rs, w, config.lam, config.trunc)
        _write(config, emit(result, config.fmt))
        return 0

    report = run_suite(config)  # verify, the one command left
    _write(config, report.to_json())
    return 0 if report.n_failed() == 0 else 1
