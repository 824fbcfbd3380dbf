"""Character ring and Demazure operator tests."""
from __future__ import annotations

import random
from fractions import Fraction
from operator import add, itemgetter, mul, neg

import pytest

from siflag import charpoly
from siflag.affine import all_reduced_words
from siflag.charpoly import (
    CharPoly,
    demazure_op,
    demazure_word,
    exact_divide,
    freeness_factor,
    freeness_ratio,
    t_op,
)
from siflag.macdonald import EPoly, gram_schmidt_E, specialize
from siflag.qt import QTRat
from siflag.rootdata import SUPPORTED, Weight, build_root_system

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
C2 = build_root_system("C", 2)
G2 = build_root_system("G", 2)


def mono(*coords, n=0, c=1):
    return CharPoly.monomial(tuple(coords), n, Fraction(c))


def random_charpoly(rs, rng, n_terms=5):
    out = CharPoly.zero()
    for _ in range(n_terms):
        wt = tuple(rng.randint(-2, 2) for _ in range(rs.rank))
        n = rng.randint(-2, 2)
        out = out + CharPoly.monomial(wt, n, Fraction(rng.randint(-3, 3)))
    return out


def test_ring_axioms_smoke():
    rng = random.Random(1)
    a = random_charpoly(A2, rng)
    b = random_charpoly(A2, rng)
    c = random_charpoly(A2, rng)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert mono(1, 0) * mono(0, 1) == mono(1, 1)
    assert mono(1, n=2) * mono(-1, n=3) == mono(0, n=5)


def test_no_zero_terms_stored():
    p = mono(1) - mono(1)
    assert p.is_zero()
    assert p.terms == {}


def test_demazure_a1_examples():
    w = (1,)
    assert demazure_op(A1, 1, mono(1)) == mono(1) + mono(-1)
    assert demazure_op(A1, 1, mono(-1)).is_zero()
    assert demazure_op(A1, 1, mono(-2)) == -mono(0)
    assert demazure_op(A1, 0, mono(-1)) == mono(-1) + mono(1, n=-1)
    assert demazure_op(A1, 0, mono(1)).is_zero()


def test_demazure_word_a2_example():
    f = mono(1, 0)
    lhs = demazure_word(A2, (1, 2, 1), f)
    rhs = demazure_word(A2, (2, 1, 2), f)
    expected = mono(1, 0) + mono(-1, 1) + mono(0, -1)
    assert lhs == expected
    assert rhs == expected
    assert demazure_word(A2, (), f) == f


def test_demazure_word_a1_raw_loop_composite():
    f = mono(1) + mono(-1, n=1)
    raw = demazure_word(A1, (0, 1), f)
    assert raw == mono(1, n=-1) + mono(-1)


def test_t_op_examples():
    assert t_op(A1, 1, mono(1)) == mono(-1)
    assert t_op(A1, 1, mono(-1)) == -mono(-1)
    assert t_op(A1, 1, mono(0)).is_zero()
    assert t_op(A2, 2, CharPoly.one(2)).is_zero()


def test_demazure_idempotent_random():
    rng = random.Random(5)
    for rs in (A1, A2, C2):
        for i in range(rs.rank + 1):
            for _ in range(50):
                f = random_charpoly(rs, rng)
                df = demazure_op(rs, i, f)
                assert demazure_op(rs, i, df) == df


def test_defining_fraction_consistency():
    """(1 - e^{-alpha_i}) D_i(m) = m - e^{-alpha_i} * s_i(m), level zero, every node."""
    rng = random.Random(9)
    from siflag.affine import s0_action

    for key in (("A", 1), ("A", 2), ("G", 2), ("B", 2), ("C", 2), ("A", 3), ("D", 4)):
        rs = build_root_system(*key)
        for _ in range(40):
            wt = Weight(tuple(rng.randint(-3, 3) for _ in range(rs.rank)))
            n = rng.randint(-2, 2)
            m = CharPoly.monomial(wt, n)
            for i in range(rs.rank + 1):
                if i == 0:
                    # e^{-alpha_0} = q^{-1} e^{theta}
                    e_neg_alpha = CharPoly.monomial(rs.theta_weight, -1)
                    n2, wt2 = s0_action(rs, n, wt)
                else:
                    alpha = rs.root_to_weight(
                        tuple(1 if k == i - 1 else 0 for k in range(rs.rank)))
                    e_neg_alpha = CharPoly.monomial(-alpha, 0)
                    n2, wt2 = n, rs.simple_reflection(i).act(wt)
                lhs = (CharPoly.one(rs.rank) - e_neg_alpha) * demazure_op(rs, i, m)
                rhs = m - e_neg_alpha * CharPoly.monomial(wt2, n2)
                assert lhs == rhs, (rs.key, i, wt, n)


def _closed_sum_demazure(rs, i, f):
    """D_i by the closed finite-sum loop, with no memo: a reference for demazure_op."""
    if i == 0:
        coroot = tuple(map(neg, rs.theta_coroot.coords))
        theta = rs.theta_weight.coords
        pairing, step, back, qstep = (lambda wt: sum(map(mul, coroot, wt))), theta, \
            tuple(map(neg, theta)), -1
    else:
        root = rs.simple_root(i).coords
        pairing, step, back, qstep = itemgetter(i - 1), tuple(map(neg, root)), root, 0
    out = {}
    for (wt, n), c in f.terms.items():
        k = pairing(wt)
        if k >= 0:
            cur, m, d, dq, v, left = wt, n, step, qstep, c, k
        elif k <= -2:
            cur, m, d, dq, v, left = tuple(map(add, wt, back)), n - qstep, back, -qstep, -c, -k - 2
        else:
            continue
        while True:
            s = out.get((cur, m), 0) + v
            if s:
                out[cur, m] = s
            else:
                del out[cur, m]
            if not left:
                break
            left -= 1
            cur = tuple(map(add, cur, d))
            m += dq
    return CharPoly(out)


@pytest.mark.parametrize("key", SUPPORTED, ids=lambda k: f"{k[0]}{k[1]}")
def test_demazure_op_matches_the_closed_sum_loop_cold_and_warm(key, monkeypatch):
    rs = build_root_system(*key)
    rng = random.Random(f"demazure:{key}")
    probes = []
    for _ in range(6):
        f = random_charpoly(rs, rng, 8)
        probes += [f, f + random_charpoly(rs, rng, 4).scale(Fraction(1, 3))]
    monkeypatch.setattr(charpoly, "_RUNS", {})
    for memo in ("cold", "warm"):
        for f in probes:
            for i in range(rs.rank + 1):
                got, want = demazure_op(rs, i, f), _closed_sum_demazure(rs, i, f)
                assert got == want, (memo, i, f)
                assert list(got.terms) == list(want.terms), (memo, i, f)
                assert_exact(got)
        assert set(charpoly._RUNS) == {(*key, i) for i in range(rs.rank + 1)}


def test_reduced_word_independence_length4():
    rng = random.Random(11)
    for rs in (A1, A2):
        probes = [random_charpoly(rs, rng) for _ in range(8)]
        seen = set()
        from siflag.affine import affine_identity, affine_simple

        frontier = [affine_identity(rs)]
        ball = set(frontier)
        for _ in range(4):
            nxt = []
            for x in frontier:
                for i in range(rs.rank + 1):
                    y = x * affine_simple(rs, i)
                    if y not in ball:
                        ball.add(y)
                        nxt.append(y)
            frontier = nxt
        for x in ball:
            words = all_reduced_words(x)
            if len(words) < 2:
                continue
            for f in probes:
                base = demazure_word(rs, words[0], f)
                for word in words[1:]:
                    assert demazure_word(rs, word, f) == base


def test_freeness_factor_examples():
    zero = Weight((0,))
    assert freeness_factor(A1, zero, 10) == CharPoly.one(1)

    f1 = freeness_factor(A1, Weight((1,)), 6)
    assert f1 == CharPoly({((0,), m): Fraction(1) for m in range(7)})

    f2 = freeness_factor(A1, Weight((2,)), 6)
    # 1/((1-q)(1-q^2)) = 1 + q + 2q^2 + 2q^3 + 3q^4 + 3q^5 + 4q^6 + ...
    expect = {0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 6: 4}
    assert f2 == CharPoly({((0,), m): Fraction(c) for m, c in expect.items()})

    with pytest.raises(ValueError):
        freeness_factor(A1, Weight((-1,)), 5)

    # F_lam / F_mu is the polynomial (1-q^2)(1-q^3) here, and F_lam = ratio * F_mu
    lam, mu = Weight((1, 0)), Weight((3, 0))
    ratio = freeness_ratio(A2, lam, mu)
    assert ratio == (mono(0, 0) - mono(0, 0, n=2)) * (mono(0, 0) - mono(0, 0, n=3))
    assert (freeness_factor(A2, mu, 12) * ratio).truncate(12) == freeness_factor(A2, lam, 12)
    assert freeness_ratio(A2, mu, mu) == CharPoly.one(2)
    with pytest.raises(ValueError):
        freeness_ratio(A2, Weight((0, 1)), mu)


def test_exact_divide_examples():
    one_minus_q = CharPoly.one(1) - CharPoly.monomial((0,), 1)
    f = one_minus_q * mono(1)
    assert exact_divide(f, one_minus_q) == mono(1)

    g = mono(2) - mono(2, n=2)
    assert exact_divide(g, one_minus_q) == mono(2) + mono(2, n=1)
    assert exact_divide(CharPoly.zero(), one_minus_q).is_zero()

    # a quotient term outside the Newton-polytope box: past max(f) - max(d) in
    # the weight, past it in q, and below min(f) - min(d) in q
    for f, d in ((mono(1), one_minus_q),
                 (CharPoly.one(1) - mono(3), CharPoly.one(1) - mono(2)),
                 (mono(0) + mono(0, n=3), one_minus_q),
                 (mono(0, n=1) + mono(0, n=2), mono(0) + mono(0, n=2))):
        with pytest.raises(ValueError, match="does not divide"):
            exact_divide(f, d)


def test_exact_divide_accepts_long_exact_quotients():
    # 1 - e^400 = (1 - e^2)(1 + e^2 + ... + e^398): 200 quotient terms from 2-term operands
    one = CharPoly.one(1)
    got = exact_divide(one - mono(400), one - mono(2))
    assert got == CharPoly({((2 * k,), 0): 1 for k in range(200)})
    # and with the q-degree as the long direction
    got = exact_divide(mono(0) - mono(0, n=300), mono(0) - mono(0, n=3))
    assert got == CharPoly({((0,), 3 * k): 1 for k in range(100)})


def test_exact_divide_random_roundtrip():
    rng = random.Random(3)
    for _ in range(25):
        q = random_charpoly(A2, rng, 4)
        d = random_charpoly(A2, rng, 3)
        if d.is_zero():
            continue
        f = q * d
        assert exact_divide(f, d) == q


def test_series_truncations_are_prefixes():
    # F through q^10 is F through q^15 cut at q^10: every term held is exact
    lam = Weight((2,))
    assert freeness_factor(A1, lam, 10) == freeness_factor(A1, lam, 15).truncate(10)
    for n in (0, 1, 7):
        assert freeness_factor(A2, Weight((1, 2)), n).q_max() == n


def test_demazure_ops_fix_q_series_factors():
    # q is inert under every D_i, so D_w(F p) = F D_w(p) exactly, whatever F's truncation
    lam = Weight((1,))
    p = mono(1) + mono(-1, n=1)
    for trunc in (12, 20):
        series = freeness_factor(A1, lam, trunc)
        for word in ((0, 1), (1, 0, 1), (0,)):
            assert demazure_word(A1, word, series * p) == series * demazure_word(A1, word, p)


def test_series_equality_and_discrepancy():
    # q-series characters compare exactly, and the first difference is reported
    series = freeness_factor(A1, Weight((1,)), 8)
    a = series * (mono(1) + mono(-1, n=1))
    b = series * (mono(1) + mono(-1, n=1).scale(2))
    assert a != b
    assert a.first_discrepancy(b) == (((-1,), 1), 1, 2)
    assert a.first_discrepancy(series * (mono(1) + mono(-1, n=1))) is None


def assert_exact(p):
    """Every coefficient is an int, or a Fraction that is not integral; never a float."""
    for key, c in p.terms.items():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (key, c)


def test_coefficients_are_int_or_fraction_never_float():
    rng = random.Random(5)
    half = Fraction(1, 2)
    for rs in (A1, A2, C2, G2):
        for _ in range(6):
            f = random_charpoly(rs, rng, 5)
            # halves that sum to whole numbers under the operators and the ring operations
            g = f + random_charpoly(rs, rng, 3).scale(half) + random_charpoly(rs, rng, 3).scale(half)
            for p in (f, g):
                assert_exact(p)
                assert_exact(p + p)
                assert_exact(p * p)
                assert_exact(p.scale(2))
                for i in range(rs.rank + 1):
                    assert_exact(demazure_op(rs, i, p))
                    assert_exact(t_op(rs, i, p))
    assert type(CharPoly.monomial((1,), 0, Fraction(4, 2)).coeff((1,), 0)) is int
    assert_exact(mono(1).scale(half) + mono(1).scale(half))
    for bad in (0.5, 1.0):
        with pytest.raises(TypeError):
            CharPoly.monomial((1,), 0, bad)
        with pytest.raises(TypeError):
            mono(1).scale(bad)
    assert_exact(freeness_ratio(A2, Weight((0, 1)), Weight((3, 2))))
    assert_exact(freeness_factor(G2, Weight((2, 1)), 12))


def test_exact_divide_divides_exactly():
    two = mono(0, c=2)
    # minimal divisor coefficient 2: halves come out as Fractions, whole quotients as ints
    q = exact_divide(mono(0) + mono(1, n=1), two)
    assert_exact(q)
    assert q == mono(0, c=Fraction(1, 2)) + mono(1, n=1, c=Fraction(1, 2))
    q = exact_divide(mono(0, c=4) - mono(2, n=1, c=6), two)
    assert_exact(q)
    assert q == mono(0, c=2) - mono(2, n=1, c=3)
    d = two + mono(2, n=1) - mono(-2, n=2, c=3)
    rng = random.Random(11)
    for _ in range(10):
        q = random_charpoly(A1, rng, 4) + random_charpoly(A1, rng, 2).scale(Fraction(1, 3))
        got = exact_divide(q * d, d)
        assert got == q
        assert_exact(got)


def test_specialized_coefficients_are_exact():
    w = Weight((1,))
    q, t = QTRat.q(), QTRat.t()
    third = QTRat.from_fraction(Fraction(1, 3))
    rational = EPoly(w, {w: QTRat.one(), -w: third + q * t + QTRat.from_int(2) / (QTRat.one() + t)})
    got = specialize(rational, "t0")
    assert_exact(got)
    assert got.coeff((-1,), 0) == Fraction(7, 3)
    assert type(got.coeff((1,), 0)) is int
    for gamma in ((2,), (-2,)):
        for modes in ("t0", "tinf", "tinf,qinv"):
            assert_exact(specialize(gram_schmidt_E(A1, Weight(gamma)), modes))
