"""Module characters, recursion steps, loop eigen-structure, specialization identities."""
from __future__ import annotations

from fractions import Fraction

import pytest

from siflag.charpoly import CharPoly, demazure_word, freeness_factor
from siflag.macdonald import bar_conjugate, gram_schmidt_E, specialize
from siflag.rootdata import Coweight, Weight, build_root_system
from siflag.weylchar import (
    base_char,
    cns_step,
    cor_family,
    coset_chain,
    difference_loop_check,
    eigen_solve_base,
    genweyl_char,
    global_demazure_char,
    lambda_w,
    twisted_euler_char,
    weyl_character,
)
from siflag.verify import check_nmconn

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
C2 = build_root_system("C", 2)


def mono(*coords, n=0, c=1):
    return CharPoly.monomial(tuple(coords), n, Fraction(c))


def test_genweyl_a1_anchor_table():
    w = A1.fundamental_weight(1)
    s1 = A1.simple_reflection(1)
    assert genweyl_char(A1, A1.identity, w).value == mono(1) + mono(-1, n=1)
    assert genweyl_char(A1, s1, w).value == mono(1) + mono(-1)
    zero = Weight((0,))
    for u in (A1.identity, s1):
        assert genweyl_char(A1, u, zero).value == CharPoly.one(1)


def test_genweyl_a2_values():
    w1 = A2.fundamental_weight(1)
    s1 = A2.simple_reflection(1)
    s2 = A2.simple_reflection(2)
    assert genweyl_char(A2, A2.identity, w1).value == \
        mono(1, 0) + mono(-1, 1, n=1) + mono(0, -1, n=1)
    assert genweyl_char(A2, s1, w1).value == \
        mono(1, 0) + mono(-1, 1) + mono(0, -1, n=1)
    assert genweyl_char(A2, s2 * s1, w1).value == \
        mono(1, 0) + mono(-1, 1) + mono(0, -1)


def test_genweyl_reduces_non_minimal_w():
    w1 = A2.fundamental_weight(1)
    s2 = A2.simple_reflection(2)
    # s2 stabilizes w1, so its minimal representative is the identity
    assert genweyl_char(A2, s2, w1).value == genweyl_char(A2, A2.identity, w1).value
    assert genweyl_char(A2, s2, w1).w == A2.identity


def test_global_demazure_examples():
    w = A1.fundamental_weight(1)
    s1 = A1.simple_reflection(1)
    dc = global_demazure_char(A1, s1, w, 8)
    expect = freeness_factor(A1, w, 8).mul_poly(mono(1) + mono(-1))
    assert dc.value.equal_upto_watermark(expect)
    dc_e = global_demazure_char(A1, A1.identity, w, 8)
    expect_e = freeness_factor(A1, w, 8).mul_poly(mono(1) + mono(-1, n=1))
    assert dc_e.value.equal_upto_watermark(expect_e)


def test_cns_step_examples():
    w = A1.fundamental_weight(1)
    s1 = A1.simple_reflection(1)
    dc_e = global_demazure_char(A1, A1.identity, w, 10)
    step1 = cns_step(A1, 1, dc_e)
    assert step1.w == s1
    assert step1.value.equal_upto_watermark(global_demazure_char(A1, s1, w, 10).value)
    # closing the loop with the normalized affine step recovers the start
    step0 = cns_step(A1, 0, step1)
    assert step0.w == A1.identity
    assert step0.value.equal_upto_watermark(dc_e.value)

    zero = Weight((0,))
    dc0 = global_demazure_char(A1, A1.identity, zero, 6)
    assert cns_step(A1, 1, dc0).value.equal_upto_watermark(dc0.value)

    with pytest.raises(ValueError):
        cns_step(A1, 1, step1)  # s1 s1 < s1 is not a cover


def test_difference_loop_examples():
    w = A1.fundamental_weight(1)
    s1 = A1.simple_reflection(1)
    assert difference_loop_check(A1, A1.identity, w, (0, 1), 14) == (-1, True)
    assert difference_loop_check(A1, s1, w, (1, 0), 14) == (-1, True)
    assert difference_loop_check(A1, A1.identity, w, (), 14) == (0, True)


def test_eigen_solve_examples():
    w = A1.fundamental_weight(1)
    got = eigen_solve_base(A1, w, 8)
    assert got.value == mono(1) + mono(-1, n=1)
    assert eigen_solve_base(A1, Weight((0,)), 6).value == CharPoly.one(1)
    w1 = A2.fundamental_weight(1)
    assert eigen_solve_base(A2, w1, 8).value == base_char(A2, w1, method="oracle")


def test_eigen_solve_window_ladder():
    # too small a window must fail as "not uniquely solvable" (not give a wrong
    # answer), so that base_char climbs to the next window
    B2 = build_root_system("B", 2)
    for rs, lam, too_small, first_ok in ((B2, (1, 0), 1, 2), (C2, (1, 1), 2, 3)):
        lam = Weight(lam)
        with pytest.raises(ValueError, match="not uniquely solvable"):
            eigen_solve_base(rs, lam, too_small)
        assert eigen_solve_base(rs, lam, first_ok).value == eigen_solve_base(rs, lam, 8).value


def test_base_methods_agree_rank2():
    for rs in (A1, A2):
        for lam in (rs.fundamental_weight(1), rs.rho()):
            assert base_char(rs, lam, "oracle") == base_char(rs, lam, "eigen"), (rs.key, lam)


def test_base_methods_agree_c2():
    # the oracle also covers C2; the two independent routes must coincide there
    for i in (1, 2):
        lam = C2.fundamental_weight(i)
        assert base_char(C2, lam, "oracle") == base_char(C2, lam, "eigen"), i


def test_lambda_w_examples():
    w1 = A2.fundamental_weight(1)
    rho = A2.rho()
    s1 = A2.simple_reflection(1)
    assert lambda_w(A2, rho, A2.identity) == rho
    assert lambda_w(A1, A1.fundamental_weight(1), A1.simple_reflection(1)) == Weight((0,))
    assert lambda_w(A2, rho, s1) == A2.fundamental_weight(2)
    with pytest.raises(ValueError):
        lambda_w(A1, Weight((0,)), A1.simple_reflection(1))


def test_twisted_euler_examples():
    w = A1.fundamental_weight(1)
    s1 = A1.simple_reflection(1)
    tw_e = twisted_euler_char(A1, A1.identity, w, 9)
    expect = freeness_factor(A1, w, 9).mul_poly(mono(1) + mono(-1, n=1))
    assert tw_e.equal_upto_watermark(expect)

    tw_s1 = twisted_euler_char(A1, s1, w, 9)
    assert tw_s1.poly == mono(-1)

    # the twisted character at s1 is also the Demazure quotient character
    quot = global_demazure_char(A1, s1, w, 9).value - global_demazure_char(A1, A1.identity, w, 9).value
    assert tw_s1.equal_upto_watermark(quot)

    zero = Weight((0,))
    assert twisted_euler_char(A1, A1.identity, zero, 5).poly == CharPoly.one(1)


def test_cor_family_endpoints_match_oracle():
    # criterion-4 style spot check: recursion = Gram-Schmidt specialization
    w1 = A2.fundamental_weight(1)
    for w in (A2.identity, A2.simple_reflection(1),
              A2.simple_reflection(2) * A2.simple_reflection(1)):
        target = -w.act(w1)
        oracle = specialize(bar_conjugate(gram_schmidt_E(A2, target)), "t-inf,q-inv")
        assert cor_family(A2, w, w1) == oracle, w


def test_q0_endpoint_matches_nmac_second_equality():
    # ch W_{-lam} = E^dagger_{w0 lam}(q, 0)
    for rs in (A1, A2):
        for lam in (rs.fundamental_weight(1), rs.rho()):
            w0 = rs.longest_element()
            lam_dual = -w0.act(lam)
            lhs = genweyl_char(rs, w0, lam_dual).value
            rhs = specialize(bar_conjugate(gram_schmidt_E(rs, w0.act(lam))), "t-0")
            assert lhs == rhs, (rs.key, lam)


def test_nmconn_examples():
    w = A1.fundamental_weight(1)
    ok, disc = check_nmconn(A1, w, Coweight((-1,)))
    assert ok and disc is None
    assert check_nmconn(A1, Weight((2,)), Coweight((-1,)))[0]
    assert check_nmconn(A2, A2.fundamental_weight(1), Coweight((-1, -1)))[0]
    with pytest.raises(ValueError):
        check_nmconn(A2, A2.fundamental_weight(1), Coweight((-1, 0)))


def test_dmain_composition_smoke():
    lam = A2.fundamental_weight(1)
    s1 = A2.simple_reflection(1)
    s2 = A2.simple_reflection(2)
    v = s1
    w = s2
    dc_v = global_demazure_char(A2, v, lam, 12)
    lhs = demazure_word(A2, w.word(), dc_v.value)
    rhs = global_demazure_char(A2, w * v, lam, 12).value
    assert lhs.equal_upto_watermark(rhs)


def test_classical_demazure_vs_weyl_character():
    for rs in (A1, A2, C2):
        w0 = rs.longest_element()
        lams = [Weight(c) for c in
                {(0,) * rs.rank, (1,) + (0,) * (rs.rank - 1), (1,) * rs.rank}]
        for lam in lams:
            dem = demazure_word(rs, w0.word(), CharPoly.monomial(lam, 0))
            assert dem == weyl_character(rs, lam), (rs.key, lam)


def test_genweyl_structural_invariants():
    for rs, lams in ((A1, [Weight((1,)), Weight((2,))]),
                     (A2, [A2.fundamental_weight(1), A2.rho()])):
        from siflag.rootdata import minimal_coset_reps
        for lam in lams:
            totals = set()
            for w in minimal_coset_reps(rs, lam):
                val = genweyl_char(rs, w, lam).value
                assert all(c.denominator == 1 and c > 0 for c in val.terms.values())
                assert val.coeff(w.act(lam), 0) == 1
                totals.add(val.total_at_one())
            assert len(totals) == 1, (rs.key, lam)


def test_coset_chain_stays_in_reps():
    from siflag.rootdata import minimal_coset_reps
    lam = A2.fundamental_weight(1)
    reps = set(minimal_coset_reps(A2, lam))
    for w in reps:
        u = A2.identity
        for i, frm in coset_chain(A2, lam, w):
            assert frm == u
            u = A2.simple_reflection(i) * u
            assert u in reps
        assert u == w
