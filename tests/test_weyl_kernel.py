"""The integer Weyl-group kernel against references that use no table.

The index tables are the one source of words, lengths, inverses and the
elements words spell.  Lengths must equal an inversion count, the element of a
word the product of its letters taken on matrices, and inverses that product
over the reversed word, whose product with the element is the identity; the
affine product needs no inverse at all and must agree with the same
reference.  A matrix outside W has no word, length or inverse, and all three
say so with one message.  The Cartan inverse must multiply the Cartan matrix
to the identity.  The tables are built on first use only, and concurrent
first uses must see the same group.
"""
from __future__ import annotations

import random
import sys
import threading
from itertools import product

import pytest

from siflag.affine import AffineElement, translation_word
from siflag.rootdata import SUPPORTED, Coweight, RootSystem, WeylElement, build_root_system

KERNEL_TYPES = (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("G", 2))


def _matrix_product(rs: RootSystem, word) -> WeylElement:
    # RootSystem.element_from_word before it read the index tables, kept verbatim
    out = rs.identity
    for i in word:
        out = out * rs.simple_reflection(i)
    return out


def _reference_inverse(w: WeylElement) -> WeylElement:
    # (s_i1 ... s_ik)^-1 = s_ik ... s_i1
    return _matrix_product(w.rs, reversed(w.word()))


def _reference_mul(x: AffineElement, y: AffineElement) -> AffineElement:
    # (w1 t_b1)(w2 t_b2) = (w1 w2) t_{w2^{-1} b1 + b2}
    moved = _reference_inverse(y.finite).act_coweight(Coweight(x.trans))
    trans = tuple(a + b for a, b in zip(moved.coords, y.trans))
    return AffineElement(x.finite * y.finite, trans)


@pytest.mark.parametrize("key", SUPPORTED)
def test_memoised_inverse_matches_fraction_reference(key):
    rs = build_root_system(*key)
    for w in rs.weyl_elements():
        inv = w.inverse()
        assert inv == _reference_inverse(w)
        assert inv.inverse() == w
        assert (w * inv).is_identity()
        assert w.length() == sum(1 for a in rs.positive_root_weights
                                 if rs.root_is_negative(w.act(a)))
    assert rs.theta_reflection() is rs.theta_reflection()


@pytest.mark.parametrize("key", [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("G", 2), ("A", 3)],
                         ids=lambda key: f"{key[0]}{key[1]}")
def test_element_from_word_matches_the_matrix_product(key):
    # every word of length <= 4, unreduced ones included
    rs = build_root_system(*key)
    for n in range(5):
        for word in product(range(1, rs.rank + 1), repeat=n):
            assert rs.element_from_word(word) == _matrix_product(rs, word), word
    # 0 would read s_theta's column of the tables, and -1 the last letter's
    for bad in (0, rs.rank + 1, -1):
        with pytest.raises(ValueError, match=f"^simple reflection index {bad} out of range$"):
            rs.element_from_word((1, bad))


@pytest.mark.parametrize("key", SUPPORTED)
def test_cartan_inverse(key):
    rs = build_root_system(*key)
    n = rs.rank
    assert all(
        sum(rs.cartan[i][k] * rs.cartan_inv[k][j] for k in range(n)) == (i == j)
        for i in range(n) for j in range(n)
    )


@pytest.mark.parametrize("key", KERNEL_TYPES)
def test_affine_product_matches_fraction_reference(key):
    rs = build_root_system(*key)
    elems = rs.weyl_elements()
    rng = random.Random(20160516)
    for _ in range(60):
        x, y = (AffineElement(rng.choice(elems), tuple(rng.randint(-3, 3) for _ in range(rs.rank)))
                for _ in range(2))
        assert x * y == _reference_mul(x, y)


def test_non_integral_inverse_raises():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError, match=r"\)\) is not a Weyl group element$"):
        WeylElement(rs, ((2, 0), (0, 1))).inverse()


def test_singular_inverse_raises():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError, match=r"\)\) is not a Weyl group element$"):
        WeylElement(rs, ((0, 0), (0, 1))).inverse()


@pytest.mark.parametrize("cols", [((0, 1), (1, 0)), ((2, 0), (0, 1)), ((0, 0), (0, 1))])
def test_non_element_has_no_word_length_or_inverse(cols):
    # ((0, 1), (1, 0)) swaps w_1 and w_2: A2's diagram automorphism, not in W
    w = WeylElement(build_root_system("A", 2), cols)
    for method in (w.word, w.length, w.inverse):
        with pytest.raises(ValueError) as exc:
            method()
        assert str(exc.value) == f"{cols} is not a Weyl group element"
    # its repr names the columns rather than raising inside a failure report
    assert repr(w) == f"WeylElement({cols})"


def test_repr_of_an_element_is_its_word():
    rs = build_root_system("A", 2)
    assert repr(rs.identity) == "e"
    assert repr(rs.element_from_word((1, 2))) == "s1*s2"


@pytest.mark.parametrize("key", SUPPORTED)
def test_index_tables_match_the_group_inverse(key):
    rs = build_root_system(*key)
    tables = rs.weyl_tables()
    assert tables.elements[0] == rs.identity
    letters = (rs.theta_reflection(),) + tuple(rs.simple_reflection(i) for i in range(1, rs.rank + 1))
    roots = (rs.theta_weight,) + tuple(rs.simple_root(i) for i in range(1, rs.rank + 1))
    for k, w in enumerate(tables.elements):
        inv = _reference_inverse(w)
        assert tables.index[w] == k and tables.words[k] == w.word()
        assert tables.left[k] == tuple(tables.index[s * w] for s in letters)
        assert tables.inv_roots[k] == tuple(inv.act(a).coords for a in roots)
        assert tables.inv_negative[k] == tuple(rs.root_is_negative(inv.act(a)) for a in roots)
        assert tables.inv_theta_coroot[k] == inv.act_coweight(rs.theta_coroot).coords


@pytest.mark.parametrize("key", SUPPORTED)
def test_fresh_root_system_builds_no_group_table(key):
    rs = RootSystem(*key)
    assert rs._tables is None


def test_concurrent_first_use_gives_the_same_words():
    box = [Coweight(c) for c in product(range(3), repeat=4)]
    serial = RootSystem("F", 4)
    expected = [translation_word(serial, beta) for beta in box]
    rs = RootSystem("F", 4)
    start = threading.Barrier(4)
    results = [None] * 4

    def run(slot):
        start.wait()
        results[slot] = [translation_word(rs, beta) for beta in box]

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(words == expected for words in results)
