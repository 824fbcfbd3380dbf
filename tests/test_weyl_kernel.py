"""The integer Weyl-group kernel against references that use no table.

An element is its index in the tables, and the tables are the one source of
words, lengths, inverses and products.  The references here build each
reflection's matrix from the roots alone, multiply matrices, and find an
element by its matrix, so no check reads the tables it tests.  Lengths must
equal an inversion count, the element of a word the product of its letters,
every ``left`` entry the product of a letter's matrix with the element's, and
inverses the product over the reversed word; the affine product needs no
inverse at all and must agree with the same reference.  Elements compare and
hash by index alone, also across root systems of one type.  The Cartan inverse
must multiply the Cartan matrix to the identity.  The tables are built on
first use only, and concurrent first uses must see the same group.
"""
from __future__ import annotations

import functools
import random
import sys
import threading
from itertools import product

import pytest

from siflag import weylchar
from siflag.affine import AffineElement, translation_word
from siflag.rootdata import (SUPPORTED, Coweight, RootSystem, Weight, WeylElement,
                             build_root_system)

KERNEL_TYPES = (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("G", 2))


def _matmul(a, b):
    # columns hold the images of the fundamental weights: (ab)(w_j) = sum_m b[j][m] a(w_m)
    return tuple(tuple(sum(x * col[k] for x, col in zip(bj, a)) for k in range(len(a)))
                 for bj in b)


def _letters(rs: RootSystem):
    # s_theta (letter 0) and s_1 .. s_rank as matrices: w_j - <coroot, w_j> root
    mirrors = [(rs.theta_coroot, rs.theta_weight)] + [
        (rs.simple_coroot(i), rs.simple_root(i)) for i in range(1, rs.rank + 1)]
    return [tuple(tuple(int(j == k) - co.coords[j] * root.coords[k] for k in range(rs.rank))
                  for j in range(rs.rank)) for co, root in mirrors]


@functools.cache
def _by_matrix(rs: RootSystem) -> dict:
    # each element keyed by its matrix; the matrices must be distinct
    found = {w.cols: w for w in rs.weyl_elements()}
    assert len(found) == len(rs.weyl_elements())
    return found


def _matrix_product(rs: RootSystem, word) -> WeylElement:
    letters = _letters(rs)
    out = rs.identity.cols
    for i in word:
        out = _matmul(out, letters[i])
    return _by_matrix(rs)[out]


def _reference_inverse(w: WeylElement) -> WeylElement:
    # (s_i1 ... s_ik)^-1 = s_ik ... s_i1
    return _matrix_product(w.rs, reversed(w.word()))


def _reference_mul(x: AffineElement, y: AffineElement) -> AffineElement:
    # (w1 t_b1)(w2 t_b2) = (w1 w2) t_{w2^{-1} b1 + b2}
    moved = _reference_inverse(y.finite).act_coweight(Coweight(x.trans))
    trans = tuple(a + b for a, b in zip(moved.coords, y.trans))
    return AffineElement(_by_matrix(x.finite.rs)[_matmul(x.finite.cols, y.finite.cols)], trans)


@pytest.mark.parametrize("key", SUPPORTED)
def test_memoised_inverse_matches_fraction_reference(key):
    rs = build_root_system(*key)
    for w in rs.weyl_elements():
        inv = w.inverse()
        assert inv == _reference_inverse(w)
        assert inv.inverse() == w
        assert _matmul(w.cols, inv.cols) == rs.identity.cols
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


@pytest.mark.parametrize("key", SUPPORTED)
def test_product_matches_the_matrix_product(key):
    rs = build_root_system(*key)
    elems = rs.weyl_elements()
    rng = random.Random(20160516)
    for _ in range(100):
        u, v = rng.choice(elems), rng.choice(elems)
        assert (u * v).cols == _matmul(u.cols, v.cols)


def test_repr_of_an_element_is_its_word():
    rs = build_root_system("A", 2)
    assert repr(rs.identity) == "e"
    assert repr(rs.element_from_word((1, 2))) == "s1*s2"


@pytest.mark.parametrize("key", SUPPORTED)
def test_index_tables_match_the_group_inverse(key):
    rs = build_root_system(*key)
    tables = rs.weyl_tables()
    letters = _letters(rs)
    assert [rs.theta_reflection().cols] + [rs.simple_reflection(i).cols
                                           for i in range(1, rs.rank + 1)] == letters
    roots = (rs.theta_weight,) + tuple(rs.simple_root(i) for i in range(1, rs.rank + 1))
    for k, w in enumerate(tables.elements):
        inv = _reference_inverse(w)
        assert w.index == k and tables.words[k] == w.word()
        assert tables.left[k] == tuple(_by_matrix(rs)[_matmul(s, w.cols)].index for s in letters)
        assert tables.inv_roots[k] == tuple(inv.act(a).coords for a in roots)
        assert tables.inv_negative[k] == tuple(rs.root_is_negative(inv.act(a)) for a in roots)
        assert tables.inv_theta_coroot[k] == inv.act_coweight(rs.theta_coroot).coords


@pytest.mark.parametrize("key", SUPPORTED)
def test_fresh_root_system_builds_no_group_table(key):
    rs = RootSystem(*key)
    assert rs.identity.index == 0 and rs.identity.is_identity()
    assert rs.identity == build_root_system(*key).identity
    assert rs._tables is None
    assert rs.identity is rs.weyl_tables().elements[0]


@pytest.mark.parametrize("key", KERNEL_TYPES)
def test_elements_are_equal_exactly_when_their_indices_are(key):
    shared, private = build_root_system(*key), RootSystem(*key)
    for u in shared.weyl_elements():
        for v in private.weyl_elements():
            assert (u == v) == (u.index == v.index)
            if u == v:
                assert hash(u) == hash(v) and u.word() == v.word() and u.cols == v.cols


def test_a_private_root_system_shares_the_character_cache(fresh_char_caches):
    shared, private = build_root_system("A", 2), RootSystem("A", 2)
    lam = Weight((1, 1))
    w, w_private = shared.element_from_word((1, 2)), private.element_from_word((1, 2))
    assert w == w_private and w.rs is not w_private.rs
    got = weylchar.genweyl_char(shared, w, lam)
    assert weylchar.genweyl_char(private, w_private, lam) is got
    assert len(weylchar._CHAR_CACHE) == 1


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
