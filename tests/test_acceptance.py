"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every criterion is checked as an exact polynomial equality; criterion 1 also
compares q-series characters through q^N (N = 20), each an exact product
truncated once.  The series forms of criteria 5 and 6, with the freeness factor
(through q^N) multiplied back in, are exact polynomial equalities too.  A
PASS/FAIL line is printed for each criterion.
"""
from __future__ import annotations

import random
from fractions import Fraction

from siflag.affine import (
    affine_identity,
    affine_simple,
    all_reduced_words,
    minimal_loops,
)
from siflag.charpoly import CharPoly, demazure_word, freeness_factor
from siflag.cli import RunConfig, main, run_suite
from siflag.rootdata import Coweight, Weight, build_root_system, minimal_coset_reps
from siflag.verify import cases, check, check_nmconn, dominant_weights
from siflag.weylchar import (
    coset_chain,
    genweyl_char,
    global_demazure_char,
    loop_exponent,
    twisted_euler_char,
    _pullback_simple,
)

TRUNC = 20

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
C2 = build_root_system("C", 2)
G2 = build_root_system("G", 2)


def _report(number: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status}{': ' + detail if detail else ''}")
    assert ok, f"criterion {number} failed: {detail}"


def mono(*coords, n=0, c=1):
    return CharPoly.monomial(tuple(coords), n, Fraction(c))


def test_criterion_1_a1_anchor_table():
    w = A1.fundamental_weight(1)
    s1 = A1.simple_reflection(1)
    ok = genweyl_char(A1, A1.identity, w).value == mono(1) + mono(-1, n=1)
    ok = ok and genweyl_char(A1, s1, w).value == mono(1) + mono(-1)
    ok = ok and twisted_euler_char(A1, s1, w, TRUNC) == mono(-1)
    got = global_demazure_char(A1, s1, w, TRUNC)
    expect = (freeness_factor(A1, w, TRUNC) * (mono(1) + mono(-1))).truncate(TRUNC)
    ok = ok and got == expect
    _report(1, ok, "A1 anchor table exact")


def test_criterion_2_reduced_word_independence():
    rng = random.Random(2024)

    def random_poly(rs):
        out = CharPoly.zero()
        for _ in range(4):
            wt = tuple(rng.randint(-2, 2) for _ in range(rs.rank))
            out = out + CharPoly.monomial(wt, rng.randint(-1, 2), Fraction(rng.randint(-3, 3)))
        return out

    checked = 0
    for rs in (A1, A2, C2):
        ball = {affine_identity(rs)}
        frontier = [affine_identity(rs)]
        for _ in range(5):
            nxt = []
            for x in frontier:
                for i in range(rs.rank + 1):
                    y = x * affine_simple(rs, i)
                    if y not in ball:
                        ball.add(y)
                        nxt.append(y)
            frontier = nxt
        probes = [random_poly(rs) for _ in range(20)]
        for x in ball:
            words = all_reduced_words(x)
            if len(words) < 2:
                continue
            for f in probes:
                base = demazure_word(rs, words[0], f)
                for word in words[1:]:
                    if demazure_word(rs, word, f) != base:
                        _report(2, False, f"{rs.key} element {x} word {word}")
                    checked += 1
    _report(2, True, f"{checked} word/probe comparisons, exact operator equality")


def _gate(number: int, rs, specs):
    """Run the verify check of every case spec, failing the criterion at the first."""
    for case in specs:
        ok, disc = check(rs, case)
        if not ok:
            _report(number, False, f"{case.case_id}: {disc}")
    return specs


def test_criterion_3_nmconn_identities():
    plans = [
        (A1, [Weight((1,)), Weight((2,)), Weight((3,))], Coweight((-1,))),
        (A2, [Weight((1, 0)), Weight((0, 1)), Weight((1, 1)), Weight((2, 0))],
         Coweight((-1, -1))),
        (C2, [Weight((1, 0)), Weight((0, 1))], Coweight((-2, -3))),
        (G2, [Weight((1, 0)), Weight((0, 1))], Coweight((-3, -5))),
    ]
    n = 0
    for rs, lams, beta in plans:
        for lam in lams:
            ok, disc = check_nmconn(rs, lam, beta)
            if not ok:
                _report(3, False, f"{rs.key} lam={lam.coords}: {disc}")
            n += 1
    _report(3, n == 11, f"{n} weight cases, both identities polynomial-exact")


def test_criterion_4_oracle_equivalence():
    n = sum(len(_gate(4, rs, cases(rs, "cor", 2))) for rs in (A1, A2))
    _report(4, n == 22, f"{n} (lambda, w) oracle comparisons, exact")


def test_criterion_5_difference_equation_loops():
    n = n_loops = n_commute = 0
    for rs in (A1, A2, C2):
        for case in _gate(5, rs, cases(rs, "fdif", 2)):
            loops = minimal_loops(rs, rs.element_from_word(case.w))
            n += 1
            n_loops += len(loops)
            n_commute += len(loops) >= 2
    if n_commute == 0:
        _report(5, False, "no w with two independent loops was exercised")
    _report(5, n == 46, f"{n} (lambda, w) cases: {n_loops} loops scale by a pure q-power; "
                        f"{n_commute} two-loop commutativity checks, exact")


CRITERION_6_LAMS = {(1, 0), (0, 1), (1, 1)}


def test_criterion_6_dmain_composition():
    specs = [case for case in cases(A2, "dmain", 2) if case.lam in CRITERION_6_LAMS]
    n = len(_gate(6, A2, specs))
    _report(6, n == 51, f"{n} length-additive pairs, exact")


def test_series_form_of_criteria_5_and_6():
    # ch W(lam)_w = F_lam(q) ch W_{w lam}: the exact checks above hold with the
    # freeness factor multiplied back in, as exact polynomial equalities, since
    # every D_i fixes q and so F_lam through any q-degree
    n = 0
    for rs in (A1, A2, C2):
        for case in cases(rs, "fdif", 2):
            lam, w = Weight(case.lam), rs.element_from_word(case.w)
            series = freeness_factor(rs, lam, TRUNC) * genweyl_char(rs, w, lam).value
            assert series.truncate(TRUNC) == global_demazure_char(rs, w, lam, TRUNC), case.case_id
            for loop in minimal_loops(rs, w):
                stepped = demazure_word(rs, loop, series)
                assert stepped == series.shift_q(loop_exponent(rs, loop, w, lam)), \
                    (case.case_id, loop)
                n += 1
    for case in cases(A2, "dmain", 2):
        if case.lam in CRITERION_6_LAMS:
            lam = Weight(case.lam)
            w, v = A2.element_from_word(case.w), A2.element_from_word(case.v)
            factor = freeness_factor(A2, lam, TRUNC)
            lhs = demazure_word(A2, case.w, factor * genweyl_char(A2, v, lam).value)
            assert lhs == factor * genweyl_char(A2, w * v, lam).value, case.case_id
            n += 1
    assert n == 64 + 51  # the loops of criterion 5 and the pairs of criterion 6


def test_criterion_7_structural_invariants():
    plans = [
        (A1, dominant_weights(A1, 3)),
        (A2, [Weight((1, 0)), Weight((0, 1)), Weight((1, 1)), Weight((2, 0)), Weight((0, 2))]),
        (C2, [Weight((1, 0)), Weight((0, 1))]),
        (G2, [Weight((1, 0)), Weight((0, 1))]),
    ]
    n = 0
    for rs, lams in plans:
        for lam in lams:
            totals = set()
            for w in minimal_coset_reps(rs, lam):
                val = genweyl_char(rs, w, lam).value
                if not all(c.denominator == 1 and c > 0 for c in val.terms.values()):
                    _report(7, False, f"positivity {rs.key} lam={lam.coords} w={w.word()}")
                if val.coeff(w.act(lam), 0) != 1:
                    _report(7, False, f"cyclic vector {rs.key} lam={lam.coords} w={w.word()}")
                totals.add(val.total_at_one())
                n += 1
            if len(totals) != 1:
                _report(7, False, f"dimension varies over orbit: {rs.key} lam={lam.coords}")
    _report(7, True, f"{n} characters positive, integral, orbit-constant at q=1")


def test_criterion_8_gnsmac_coherence():
    n = divisions = 0
    for rs in (A1, A2):
        for case in _gate(8, rs, cases(rs, "gnsmac", 2)):
            chain = coset_chain(rs, Weight(case.lam), rs.element_from_word(case.w))
            # steps pulling back to a simple root divide exactly by (1 - q^a)
            divisions += sum(_pullback_simple(rs, u, i) is not None for i, u in chain)
            n += 1
    if divisions == 0:
        _report(8, False, "no simple-pullback division step was exercised")
    _report(8, n == 22, f"{n} closed forms match the T_i reconstruction exactly "
                        f"({divisions} exact-division steps)")


def test_criterion_9_determinism(tmp_path):
    cfg = RunConfig(command="verify", rs=A1, suite="all", max_weight=2, trunc=12)
    first = run_suite(cfg).to_json()
    second = run_suite(cfg).to_json()
    ok = first == second
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = main(["verify", "--suite", "all", "--type", "A1", "--jobs", "8",
                  "--out", str(out1)])
    code2 = main(["verify", "--suite", "all", "--type", "A1", "--jobs", "8",
                  "--out", str(out2)])
    ok = ok and code1 == 0 and code2 == 0
    ok = ok and out1.read_bytes() == out2.read_bytes()
    _report(9, ok, "byte-identical reports under --jobs 8, exit code 0")
