"""Root systems, pairings, and the finite Weyl group."""
from __future__ import annotations

import random

import pytest

from siflag.rootdata import (
    Coweight,
    Weight,
    build_root_system,
    from_name,
    minimal_coset_representative,
    minimal_coset_reps,
)

EXPECTED_POS_ROOTS = {("A", 1): 1, ("A", 2): 3, ("B", 2): 4, ("C", 2): 4, ("G", 2): 6, ("A", 3): 6}
EXPECTED_GROUP_ORDER = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("B", 2): 8, ("C", 2): 8,
    ("B", 3): 48, ("C", 3): 48, ("D", 4): 192, ("G", 2): 12, ("F", 4): 1152,
}


def test_build_examples():
    a1 = build_root_system("A", 1)
    assert a1.positive_roots == ((1,),)
    assert a1.theta == (1,)
    assert a1.theta_coroot == Coweight((1,))

    a2 = build_root_system("A", 2)
    assert len(a2.positive_roots) == 3
    assert a2.theta == (1, 1)

    g2 = build_root_system("G", 2)
    assert len(g2.positive_roots) == 6
    assert g2.theta == (3, 2)


def test_positive_root_counts():
    for key, n in EXPECTED_POS_ROOTS.items():
        rs = build_root_system(*key)
        assert len(rs.positive_roots) == n, key


def test_unsupported_type_rejected():
    with pytest.raises(ValueError):
        build_root_system("E", 6)
    with pytest.raises(ValueError):
        build_root_system("A", 9)
    with pytest.raises(ValueError):
        from_name("Q3")


def test_cartan_invariants():
    for key in EXPECTED_GROUP_ORDER:
        rs = build_root_system(*key)
        for i in range(rs.rank):
            assert rs.cartan[i][i] == 2
            # alpha_i has fundamental-weight coordinates <alpha_k^vee, alpha_i>
            assert rs.simple_root(i + 1).coords == tuple(row[i] for row in rs.cartan)
            for j in range(rs.rank):
                if i != j:
                    assert rs.cartan[i][j] <= 0


def test_pairing_examples():
    a2 = build_root_system("A", 2)
    assert a2.pairing(a2.simple_coroot(1), a2.fundamental_weight(1)) == 1
    assert a2.pairing(a2.simple_coroot(1), a2.fundamental_weight(2)) == 0
    assert a2.pairing(a2.theta_coroot, a2.theta_weight) == 2
    alpha2 = a2.root_to_weight((0, 1))
    assert a2.pairing(a2.simple_coroot(1), alpha2) == -1
    assert a2.simple_root(2) == alpha2
    for bad in (0, 3):
        with pytest.raises(ValueError):
            a2.simple_root(bad)


def test_weyl_act_examples():
    a1 = build_root_system("A", 1)
    s1 = a1.simple_reflection(1)
    w = a1.fundamental_weight(1)
    assert s1.act(w) == -w

    a2 = build_root_system("A", 2)
    s1 = a2.simple_reflection(1)
    assert s1.act(a2.fundamental_weight(1)) == Weight((-1, 1))
    for w in a2.weyl_elements():
        assert w.act(Weight((0, 0))) == Weight((0, 0))


def test_group_orders_and_longest():
    for key, n in EXPECTED_GROUP_ORDER.items():
        rs = build_root_system(*key)
        elems = rs.weyl_elements()
        assert len(elems) == n, key
        assert len(set(elems)) == n
        w0 = rs.longest_element()
        assert w0.length() == len(rs.positive_roots)


def test_inverse_and_composition():
    for key in (("A", 2), ("B", 2), ("G", 2)):
        rs = build_root_system(*key)
        for w in rs.weyl_elements():
            assert w * w.inverse() == rs.identity
            assert w.inverse() * w == rs.identity


def test_word_letterwise_action_matches():
    for key in (("A", 2), ("C", 2), ("G", 2)):
        rs = build_root_system(*key)
        for w in rs.weyl_elements():
            assert rs.element_from_word(w.word()) == w
            assert len(w.word()) == w.length()


def test_length_subadditive_with_reduced_concatenation():
    rs = build_root_system("A", 2)
    for w in rs.weyl_elements():
        for v in rs.weyl_elements():
            wv = w * v
            assert wv.length() <= w.length() + v.length()
            concatenated_reduced = wv.length() == w.length() + v.length()
            # equality iff concatenating reduced words stays reduced
            assert concatenated_reduced == (
                rs.element_from_word(w.word() + v.word()).length()
                == len(w.word() + v.word())
            )


def test_pairing_weyl_invariance():
    rng = random.Random(7)
    for key in (("A", 2), ("B", 2), ("G", 2)):
        rs = build_root_system(*key)
        elems = rs.weyl_elements()
        for _ in range(25):
            w = rng.choice(elems)
            lam = Weight(tuple(rng.randint(-3, 3) for _ in range(rs.rank)))
            beta = Coweight(tuple(rng.randint(-3, 3) for _ in range(rs.rank)))
            assert rs.pairing(w.act_coweight(beta), w.act(lam)) == rs.pairing(beta, lam)


def test_coweight_action_on_simple_reflection():
    rs = build_root_system("G", 2)
    for i in (1, 2):
        si = rs.simple_reflection(i)
        for j in (1, 2):
            img = si.act_coweight(rs.simple_coroot(j))
            # s_i(alpha_j^vee) = alpha_j^vee - C[j][i] alpha_i^vee
            expect = list(rs.simple_coroot(j).coords)
            expect[i - 1] -= rs.cartan[j - 1][i - 1]
            assert img == Coweight(tuple(expect))


def test_minimal_coset_reps_examples():
    a1 = build_root_system("A", 1)
    reps = minimal_coset_reps(a1, a1.fundamental_weight(1))
    assert [w.word() for w in reps] == [(), (1,)]

    a2 = build_root_system("A", 2)
    reps = minimal_coset_reps(a2, a2.fundamental_weight(1))
    assert len(reps) == 3
    words = {w.word() for w in reps}
    assert () in words and (1,) in words
    assert any(len(word) == 2 for word in words)

    reps0 = minimal_coset_reps(a2, Weight((0, 0)))
    assert reps0 == [a2.identity]

    with pytest.raises(ValueError):
        minimal_coset_reps(a2, Weight((-1, 0)))


def test_minimal_coset_counts():
    for key in (("A", 2), ("B", 2), ("G", 2)):
        rs = build_root_system(*key)
        for lam in (rs.fundamental_weight(1), rs.fundamental_weight(2), rs.rho()):
            reps = minimal_coset_reps(rs, lam)
            stab = [i for i in range(1, rs.rank + 1) if lam.coords[i - 1] == 0]
            stab_order = 2 if stab else 1
            assert len(reps) * stab_order == len(rs.weyl_elements())
            # exactly one representative per orbit point
            assert len({w.act(lam) for w in reps}) == len(reps)


def test_minimal_coset_representative_reduction():
    a2 = build_root_system("A", 2)
    lam = a2.fundamental_weight(1)
    for w in a2.weyl_elements():
        rep = minimal_coset_representative(a2, w, lam)
        assert rep.act(lam) == w.act(lam)
        assert rep in minimal_coset_reps(a2, lam)


def test_bruhat_order_basics():
    a2 = build_root_system("A", 2)
    e = a2.identity
    s1 = a2.simple_reflection(1)
    s2 = a2.simple_reflection(2)
    w0 = a2.longest_element()
    assert a2.bruhat_leq(e, w0)
    assert a2.bruhat_leq(s1, s1 * s2)
    assert not a2.bruhat_leq(s1 * s2, s2 * s1)
    for u in a2.weyl_elements():
        assert a2.bruhat_leq(u, w0)


def test_dominant_representative():
    g2 = build_root_system("G", 2)
    for lam in (g2.fundamental_weight(1), g2.rho()):
        for w in g2.weyl_elements():
            nu = w.act(lam)
            plus, v = g2.dominant_representative(nu)
            assert plus == lam
            assert v.act(plus) == nu


def test_json_dump_fields():
    b2 = build_root_system("B", 2)
    data = b2.to_json()
    assert set(data) == {"type", "Cartan", "pos_roots", "theta"}
    assert data["type"] == "B2"
