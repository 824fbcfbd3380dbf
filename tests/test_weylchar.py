"""Module characters, recursion steps, loop eigen-structure, specialization identities."""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from siflag import macdonald, weylchar
from siflag.charpoly import CharPoly, demazure_op, demazure_word, freeness_factor
from siflag.macdonald import bar_conjugate, gram_schmidt_E, specialize
from siflag.qt import P
from siflag.rootdata import (SUPPORTED, Coweight, RootSystem, Weight, build_root_system,
                             from_name, minimal_coset_representative, minimal_coset_reps)
from siflag.weylchar import (
    _pullback_simple,
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
    twisted_family,
    weyl_character,
)
from siflag.verify import check_nmconn

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
C2 = build_root_system("C", 2)
G2 = build_root_system("G", 2)
C4 = build_root_system("C", 4)


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
    got = global_demazure_char(A1, s1, w, 8)
    assert got == (freeness_factor(A1, w, 8) * (mono(1) + mono(-1))).truncate(8)
    got_e = global_demazure_char(A1, A1.identity, w, 8)
    assert got_e == (freeness_factor(A1, w, 8) * (mono(1) + mono(-1, n=1))).truncate(8)
    # F_omega = 1/(1 - q): through q^8 every coefficient is a partial sum of the character
    assert got_e.coeff((1,), 8) == 1 and got_e.coeff((-1,), 8) == 1
    assert got_e.coeff((-1,), 0) == 0 and got_e.q_max() == 8


def test_times_freeness_refuses_negative_q_degrees():
    # F's terms above q^trunc would reach q^trunc through a q^-1 term
    with pytest.raises(ValueError, match="q-degree -1 < 0"):
        weylchar._times_freeness(A1, Weight((1,)), mono(1, n=-1), 6)
    assert weylchar._times_freeness(A1, Weight((1,)), CharPoly.zero(), 6) == CharPoly.zero()


def test_cns_step_examples():
    w = A1.fundamental_weight(1)
    s1 = A1.simple_reflection(1)
    gen_e = genweyl_char(A1, A1.identity, w)
    step1 = cns_step(A1, 1, gen_e)
    assert step1.w == s1
    assert step1.value == genweyl_char(A1, s1, w).value
    # closing the loop with the normalized affine step recovers the start
    step0 = cns_step(A1, 0, step1)
    assert step0.w == A1.identity
    assert step0.value == gen_e.value
    # the global step: D_i fixes F_omega(q), so it steps ch W(omega)_e onto ch W(omega)_{s1}
    series = freeness_factor(A1, w, 10)
    assert (series * step1.value).truncate(10) == global_demazure_char(A1, s1, w, 10)

    zero = Weight((0,))
    gen0 = genweyl_char(A1, A1.identity, zero)
    assert cns_step(A1, 1, gen0).value == gen0.value

    with pytest.raises(ValueError):
        cns_step(A1, 1, step1)  # s1 s1 < s1 is not a cover


def test_difference_loop_examples():
    w = A1.fundamental_weight(1)
    s1 = A1.simple_reflection(1)
    assert difference_loop_check(A1, A1.identity, w, (0, 1)) == (-1, True)
    assert difference_loop_check(A1, s1, w, (1, 0)) == (-1, True)
    assert difference_loop_check(A1, A1.identity, w, ()) == (0, True)


def test_eigen_solve_examples():
    w = A1.fundamental_weight(1)
    got = eigen_solve_base(A1, w)
    assert got.value == mono(1) + mono(-1, n=1)
    assert eigen_solve_base(A1, Weight((0,))).value == CharPoly.one(1)
    w1 = A2.fundamental_weight(1)
    oracle = specialize(bar_conjugate(gram_schmidt_E(A2, -w1)), ("t-inf", "q-inv"))
    assert eigen_solve_base(A2, w1).value == oracle


def test_rank_deficient_eigen_solve_raises():
    # C4 omega4 has rank 39 at the check point, where a unique base needs 40:
    # the solve must stop with that rank, not give an answer
    with pytest.raises(ValueError, match="not uniquely solvable: rank 39 at the check point, "
                                         "a unique base needs 40"):
        eigen_solve_base(C4, Weight((0, 0, 0, 1)))
    # on B4 omega3 even the rows of all 44 loops fall short, so each loop's rows
    # are built and the message names the whole system's rank
    with pytest.raises(ValueError, match="not uniquely solvable: rank 63 at the check point, "
                                         "a unique base needs 64"):
        eigen_solve_base(from_name("B4"), Weight((0, 0, 1, 0)))


def _rank_at_check_point(rows, h1):
    """Rank mod P of rows of M(q) at the check point on the h1 unknown columns,
    by dense Gaussian elimination independent of qt._rref and weylchar._at."""
    x = weylchar._CHECK_POINT
    dense = [[sum(c * pow(x, n, P) for n, c in row.get(j, {}).items()) % P for j in range(h1)]
             for row in rows]
    rank = 0
    for col in range(h1):
        piv = next((i for i in range(rank, len(dense)) if dense[i][col]), None)
        if piv is None:
            continue
        dense[rank], dense[piv] = dense[piv], dense[rank]
        inv = pow(dense[rank][col], -1, P)
        for i in range(rank + 1, len(dense)):
            f = dense[i][col] * inv % P
            if f:
                dense[i] = [(a - f * b) % P for a, b in zip(dense[i], dense[rank])]
        rank += 1
    return rank


def _spy_loop_rows(monkeypatch):
    """Record (loop, order, rows) for every loop whose rows the solve builds."""
    built = []
    loop_rows = weylchar._loop_rows

    def spy(rs, order, loop, m_eig):
        rows = loop_rows(rs, order, loop, m_eig)
        built.append((loop, order, rows))
        return rows

    monkeypatch.setattr(weylchar, "_loop_rows", spy)
    return built


def test_rows_stop_at_full_rank_while_every_loop_is_checked(monkeypatch):
    # on A3 omega1 the first loop's rows already hold h - 1 rows independent at
    # the check point, so no other loop's rows are built; on D4 omega1 the build
    # stops after 51 of the 52 loops.  Either way the loops built are the
    # shortest prefix whose rows reach rank h - 1, and the exact check that
    # makes the base unique still applies every loop
    for name, n_loops, n_built in (("A3", 16, 1), ("D4", 52, 51)):
        rs = from_name(name)
        loops = weylchar._base_loops(rs)
        checked = set()
        is_base, word = weylchar._is_base, weylchar.demazure_word

        def spy_is_base(*args):
            with monkeypatch.context() as patch:
                patch.setattr(weylchar, "demazure_word",
                              lambda rs, loop, value: checked.add(loop) or word(rs, loop, value))
                return is_base(*args)

        with monkeypatch.context() as patch:
            built = _spy_loop_rows(patch)
            patch.setattr(weylchar, "_is_base", spy_is_base)
            eigen_solve_base(rs, rs.fundamental_weight(1))
        assert len(loops) == n_loops
        assert [loop for loop, _, _ in built] == loops[:n_built]
        assert checked == set(loops)
        h1 = len(built[0][1]) - 1
        ranks = [_rank_at_check_point([row for *_, rows in built[:k] for row in rows], h1)
                 for k in (n_built - 1, n_built)]
        assert ranks[0] < h1 == ranks[1]


@pytest.mark.parametrize("name, lam", [("A3", (1, 0, 0)), ("G2", (1, 1)), ("B4", (1, 0, 0, 0)),
                                       ("D4", (1, 0, 0, 0))],
                         ids=["A3-omega1", "G2-(1,1)", "B4-omega1", "D4-omega1"])
def test_solve_rows_are_built_rows_of_full_rank(monkeypatch, name, lam):
    # the rows the solve interpolates from: exactly h - 1 of them, each a row
    # some loop built, independent on the unknown columns at the check point
    rs = from_name(name)
    built = _spy_loop_rows(monkeypatch)
    solve_rows, got = weylchar._solve_rows, []
    monkeypatch.setattr(weylchar, "_solve_rows",
                        lambda *args: got.extend(solve_rows(*args)) or got)
    eigen_solve_base(rs, Weight(lam))
    h1 = len(built[0][1]) - 1
    assert len(got) == h1
    assert all(any(row in rows for *_, rows in built) for row in got)
    assert _rank_at_check_point(got, h1) == h1


def test_rank_counts_a_row_left_on_x_lams_column_alone(monkeypatch):
    # x_0 + x_1 = 0 and x_0 + x_1 + x_lam = 0 leave rank 1 on the two unknowns
    # and 2 on the whole system, which the message names; X_lam's column must
    # not take a pivot in place of an unknown's
    rows = {"a": [{0: {0: 1}, 1: {0: 1}}], "b": [{0: {0: 1}, 1: {0: 1}, 2: {0: 1}}]}
    monkeypatch.setattr(weylchar, "_loop_rows", lambda rs, order, loop, m_eig: rows[loop])
    with pytest.raises(ValueError, match="rank 2 at the check point, a unique base needs 2$"):
        weylchar._solve_rows(A1, ["nu_0", "nu_1", "lam"], {"a": 0, "b": 0})


def _wrong_candidates(monkeypatch, mutate):
    """Route every candidate of the solve through mutate; count the exact rejections."""
    candidate, is_base = weylchar._candidate, weylchar._is_base
    rejected = []

    def check(*args):
        ok = is_base(*args)
        rejected.append(not ok)
        return ok

    monkeypatch.setattr(weylchar, "_candidate", lambda *args: mutate(candidate, *args))
    monkeypatch.setattr(weylchar, "_is_base", check)
    return rejected


@pytest.mark.parametrize("rs, lam", [(A1, (5,)), (B2, (1, 1)), (G2, (0, 1))])
def test_perturbed_lift_is_rejected(monkeypatch, rs, lam):
    # one lifted coefficient off by one: the exact loop identities must refuse it
    lam = Weight(lam)

    def perturb(candidate, lam, order, newton, xs):
        value = candidate(lam, order, newton, xs)
        return value + CharPoly.monomial(order[0], 0)

    rejected = _wrong_candidates(monkeypatch, perturb)
    with pytest.raises(ValueError, match="fails the exact loop identity"):
        eigen_solve_base(rs, lam)
    assert rejected and all(rejected)


@pytest.mark.parametrize("rs, lam", [(A1, (5,)), (B2, (1, 1)), (G2, (0, 1))])
def test_interpolation_one_point_short_is_rejected(monkeypatch, rs, lam):
    # each interpolant without its top Newton term, i.e. through one point fewer
    # than its degree needs: the exact loop identities must refuse it
    lam = Weight(lam)

    def short(candidate, lam, order, newton, xs):
        cut = [coeffs[:max((i for i, c in enumerate(coeffs) if c), default=0)]
               for coeffs in newton]
        return candidate(lam, order, cut, xs)

    rejected = _wrong_candidates(monkeypatch, short)
    with pytest.raises(ValueError, match="fails the exact loop identity"):
        eigen_solve_base(rs, lam)
    assert rejected and all(rejected)


def test_premature_stop_falls_back_to_the_cap(monkeypatch):
    # an early stop at every point only costs time: its candidates fail the
    # exact check and the solve goes on to the proven cap
    lam = Weight((2, 1))
    want = eigen_solve_base(B2, lam).value
    rejected = _wrong_candidates(monkeypatch, lambda candidate, *args: candidate(*args))
    newton_add = weylchar._newton_add
    monkeypatch.setattr(weylchar, "_newton_add", lambda *args: newton_add(*args) or True)
    assert eigen_solve_base(B2, lam).value == want
    assert rejected[0] and rejected[-1] is False


def test_rank_deficient_solve_raises_under_python_O():
    # the stop is an explicit raise, so -O (which strips assert) keeps it
    src = os.path.dirname(os.path.dirname(weylchar.__file__))
    script = ("from siflag.rootdata import build_root_system, Weight\n"
              "from siflag.weylchar import eigen_solve_base\n"
              "try:\n"
              "    eigen_solve_base(build_root_system('C', 4), Weight((0, 0, 0, 1)))\n"
              "except ValueError as err:\n"
              "    print(err)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("loop eigen-system is not uniquely solvable: rank 39")


def test_base_methods_agree_rank2():
    for rs in (A1, A2):
        for lam in (rs.fundamental_weight(1), rs.rho()):
            oracle = specialize(bar_conjugate(gram_schmidt_E(rs, -lam)), ("t-inf", "q-inv"))
            assert base_char(rs, lam) == oracle, (rs.key, lam)


def test_engine_computes_no_oracle_polynomial(monkeypatch, fresh_char_caches):
    # the oracle is only a reference: no engine entry point may fill its cache
    monkeypatch.setattr(macdonald, "_E_CACHE", {})
    for rs, beta in ((A1, Coweight((-1,))), (A2, Coweight((-1, -1)))):
        for lam in (rs.fundamental_weight(1), rs.rho().scale(2)):
            base_char(rs, lam)
            genweyl_char(rs, rs.longest_element(), lam)
            twisted_euler_char(rs, rs.longest_element(), lam, 6)
            assert check_nmconn(rs, lam, beta)[0]
            assert not macdonald._E_CACHE, (rs.key, lam)
    assert weylchar._BASE_CACHE


def test_base_char_a1_dimension_is_2_to_the_n():
    # dim W_{n omega} = 2^n for sl2 (Chari-Loktev, Adv. Math. 2006)
    for n in (10, 11, 12):
        lam = Weight((n,))
        got = base_char(A1, lam)
        assert got.coeff(lam, 0) == 1
        assert got.total_at_one() == 2 ** n


def test_base_methods_agree_c2():
    # the oracle also covers C2, B2 and G2; the two independent routes must
    # coincide there.  The G2 solves (about 6 s together) carry the heaviest
    # bivariate QTRat arithmetic of the suite.
    for rs in (C2, B2, G2):
        for i in (1, 2):
            lam = rs.fundamental_weight(i)
            oracle = specialize(bar_conjugate(gram_schmidt_E(rs, -lam)), ("t-inf", "q-inv"))
            assert base_char(rs, lam) == oracle, (rs.key, i)


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
    assert tw_e == (freeness_factor(A1, w, 9) * (mono(1) + mono(-1, n=1))).truncate(9)

    tw_s1 = twisted_euler_char(A1, s1, w, 9)
    assert tw_s1 == mono(-1)

    # the twisted character at s1 is also the Demazure quotient character
    quot = global_demazure_char(A1, s1, w, 9) - global_demazure_char(A1, A1.identity, w, 9)
    assert tw_s1 == quot

    zero = Weight((0,))
    assert twisted_euler_char(A1, A1.identity, zero, 5) == CharPoly.one(1)


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
    series = freeness_factor(A2, lam, 12)
    lhs = demazure_word(A2, w.word(), series * genweyl_char(A2, v, lam).value)
    assert lhs == series * genweyl_char(A2, w * v, lam).value
    assert lhs.truncate(12) == global_demazure_char(A2, w * v, lam, 12)


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
    for key in SUPPORTED:
        rs = build_root_system(*key)
        if rs.rank > 3:
            continue
        for j in range(1, rs.rank + 1):
            lam = rs.fundamental_weight(j)
            reps = set(minimal_coset_reps(rs, lam))
            for w in reps:
                u = rs.identity
                for i, frm in coset_chain(rs, lam, w):
                    assert frm == u
                    u = rs.simple_reflection(i) * u
                    assert u in reps and u.length() == frm.length() + 1
                assert u == w
            # s_k for k != j fixes omega_j, so it lies outside W^lam
            for k in range(1, rs.rank + 1):
                if k != j:
                    with pytest.raises(ValueError, match="not a minimal coset representative"):
                        coset_chain(rs, lam, rs.simple_reflection(k))


# The cover chains of W^lam as the package built them before it read them off
# reduced words: a breadth-first cover tree, kept verbatim as the reference.
_COSET_TREES: dict = {}


def _coset_tree(rs: RootSystem, lam: Weight) -> dict:
    """Breadth-first cover tree of W^lam: {v: (i, u)} with v = s_i u, and e -> None."""
    key = (rs.key, lam.coords)
    got = _COSET_TREES.get(key)
    if got is not None:
        return got
    reps = set(minimal_coset_reps(rs, lam))
    parent: dict = {rs.identity: None}
    frontier = [rs.identity]
    while frontier:
        nxt = []
        for u in sorted(frontier, key=lambda x: x.word()):
            for i in range(1, rs.rank + 1):
                v = rs.simple_reflection(i) * u
                if v in reps and v not in parent and v.length() == u.length() + 1:
                    parent[v] = (i, u)
                    nxt.append(v)
        frontier = nxt
    _COSET_TREES[key] = parent
    return parent


def _tree_chain(rs, lam, w):
    """The cover steps (i, u) from e up to w along the reference tree."""
    parent = _coset_tree(rs, lam)
    steps = []
    cur = w
    while cur != rs.identity:
        i, u = parent[cur]
        steps.append((i, u))
        cur = u
    steps.reverse()
    return steps


# A2, B2 and C2 up to weight sum 2; G2, A3, B3 and C3 at the fundamental weights
_CHAIN_WEIGHTS = ([(name, lam) for name in ("A2", "B2", "C2")
                   for lam in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))]
                  + [(name, tuple(int(k == j) for k in range(int(name[1]))))
                     for name in ("G2", "A3", "B3", "C3") for j in range(int(name[1]))])


@pytest.mark.parametrize("name, lam", _CHAIN_WEIGHTS,
                         ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else v)
def test_chain_values_match_the_tree_reference(monkeypatch, name, lam):
    # outside A1 and A2 no report digest pins these values: a cor report
    # records only pass or fail, so this is their one guard
    rs = build_root_system(name[0], int(name[1]))
    lam = Weight(lam)
    for w in minimal_coset_reps(rs, lam):
        gen = base_char(rs, lam)
        for i, _ in _tree_chain(rs, lam, w):
            gen = demazure_op(rs, i, gen)
        assert genweyl_char(rs, w, lam).value == gen, (name, lam, w)
        got = cor_family(rs, w, lam), twisted_family(rs, w, lam)
        with monkeypatch.context() as patch:
            patch.setattr(weylchar, "coset_chain", _tree_chain)
            want = cor_family(rs, w, lam), twisted_family(rs, w, lam)
        assert got == want, (name, lam, w)


# sha256 of repr(_base_loops(rs)) and the number of loops, per type: the loops
# fix every eigen base, so a change in how reduced words are found must keep them
PINNED_LOOPS = {
    "A1": (3, "3ef93cbc5ec060df4f2637e4117749c477171fbb02a9239f77ee76197b06e415"),
    "A2": (8, "43331873ddf8edd4a1030d87a55f94a8ff4e800e7bda69cbb22e3b632f5886c9"),
    "A3": (16, "2d2d07276bbb08ec76b434a27d54fc6cf87d3028badc9edd03d470f0b96ce69e"),
    "A4": (32, "02203feec736f2f4c75458b8b3d81ee2427dfc14f36d38c482d0889c9e70f7af"),
    "B2": (5, "3497a1627c37ed13073c85b93f5e22b235be20625d297d43ee019be2cbc03f85"),
    "B3": (7, "dec487c5fd6b102ab1bb9b3f9ced4be84aa5de5b5ed7349e93e4055d682c5b62"),
    "B4": (44, "e909062846b45c49893493b4805272c9dcc5f2265cdde8ca896b4a73969d629a"),
    "C2": (5, "a805d652ee3d4d732e72a059fbd2be18b3297482ae630a6c2d03a61d11cd592b"),
    "C3": (6, "ab378cb10b2e0bee4962d79aec6a7bb8fce8c2dc4de59db04cc6cd7149301c48"),
    "C4": (6, "1b5e9265e9271b6402d40dfebd6dbb46d7dff18fa1fd70fefa5a82b3a299ab3e"),
    "D4": (52, "aa329915be561613eaf5f167301c878446677fbe0b83bc40a47f7530c496e3ac"),
    "G2": (2, "9d3f5d2225e6d47d4c5ee45f170651814cd53ca683b45d527bf409828e2a9e8c"),
    "F4": (29, "e7b198bce1ca9e88fd08557c08f4f5cc819bf8eebc90362f41eeeec5a964ee0d"),
}


@pytest.mark.parametrize("name", sorted(PINNED_LOOPS))
def test_base_loops_are_pinned(monkeypatch, name):
    monkeypatch.setattr(weylchar, "_BASE_LOOPS", {})
    loops = weylchar._base_loops(from_name(name))
    count, digest = PINNED_LOOPS[name]
    assert len(loops) == count
    assert hashlib.sha256(repr(loops).encode()).hexdigest() == digest


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_pullback_simple_matches_the_inverse_action(name):
    # the index tables' u^{-1} alpha_i against the inverse element acting on alpha_i
    rs = from_name(name)
    simple = [rs.simple_root(j) for j in range(1, rs.rank + 1)]
    for u in rs.weyl_elements():
        for i in range(1, rs.rank + 1):
            pulled = u.inverse().act(rs.simple_root(i))
            expected = next((j for j, a in enumerate(simple, 1) if a == pulled), None)
            assert _pullback_simple(rs, u, i) == expected


def test_weyl_character_of_a_long_string():
    # (e^{n+1} - e^{-n-1}) / (e - e^{-1}): n + 1 quotient terms from two-term operands
    for n in (151, 200):
        got = weyl_character(A1, Weight((n,)))
        assert got == CharPoly({((n - 2 * k,), 0): 1 for k in range(n + 1)})
    assert len(weyl_character(A1, Weight((200,))).terms) == 201


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "C2", "G2", "A3"])
def test_cached_characters_match_a_fresh_demazure_word(fresh_char_caches, name):
    # the cache is keyed on w as passed: every w of W, reduced or not, must get
    # the character of its minimal coset representative, on a miss and on a hit
    rs = from_name(name)
    for lam in [Weight((0,) * rs.rank)] + [rs.fundamental_weight(j) for j in range(1, rs.rank + 1)]:
        for w in rs.weyl_elements():
            rep = minimal_coset_representative(rs, w, lam)
            want = demazure_word(rs, rep.word(), base_char(rs, lam))
            got = genweyl_char(rs, w, lam)
            assert genweyl_char(rs, w, lam) is got
            assert (got.lam, got.w, got.value) == (lam, rep, want), (name, lam, w)
    with pytest.raises(FrozenInstanceError):
        got.value = CharPoly.one(rs.rank)
