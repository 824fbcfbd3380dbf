"""Affine Weyl group, translation words, and the quantum Bruhat graph."""
from __future__ import annotations

from collections import deque
from itertools import product

import pytest

from siflag import affine
from siflag.affine import (
    adapted_sequence,
    affine_identity,
    affine_length,
    affine_simple,
    all_reduced_words,
    element_from_word,
    loop_translation_weight,
    minimal_loops,
    quantum_covers,
    s0_action,
    shortest_word,
    translation,
    translation_loop,
    translation_word,
    walk_quantum,
)
from siflag.rootdata import Coweight, Weight, build_root_system

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
C2 = build_root_system("C", 2)
# every type up to rank 3: the reference searches below run on all of them
SMALL = tuple(build_root_system(t, r) for t, r in (
    ("A", 1), ("A", 2), ("B", 2), ("C", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)))
RANK4 = tuple(build_root_system(t, 4) for t in "ABCDF")


def test_s0_action_examples():
    w = A1.fundamental_weight(1)
    assert s0_action(A1, 0, -w) == (-1, w)
    assert s0_action(A1, 0, w) == (1, -w)
    assert s0_action(A1, 5, Weight((0,))) == (5, Weight((0,)))


def test_group_law_and_inverse():
    for rs in (A1, A2, C2):
        letters = range(rs.rank + 1)
        for word in product(letters, repeat=4):
            x = element_from_word(rs, word)
            assert (x * x.inverse()).is_identity()
    # associativity spot check
    a = element_from_word(A2, (0, 1))
    b = element_from_word(A2, (2, 0))
    c = element_from_word(A2, (1, 2))
    assert (a * b) * c == a * (b * c)


def test_projection_is_homomorphism_exhaustive():
    for rs in (A1, A2, C2):
        bars = {i: (rs.theta_reflection() if i == 0 else rs.simple_reflection(i))
                for i in range(rs.rank + 1)}
        for length in range(9 if rs is A1 else 7):
            for word in product(range(rs.rank + 1), repeat=length):
                x = element_from_word(rs, word)
                finite = rs.identity
                for i in word:
                    finite = finite * bars[i]
                assert x.finite == finite


def test_translation_words_a1():
    alpha_vee = Coweight((1,))
    assert translation_word(A1, -alpha_vee) == (1, 0)
    assert translation_word(A1, alpha_vee) == (0, 1)
    assert translation_word(A1, Coweight((0,))) == ()


def test_translation_word_multiplies_out():
    boxes = [(A1, range(-2, 3)), (A2, range(-2, 3))] + [(rs, range(-1, 2)) for rs in RANK4]
    for rs, box in boxes:
        betas = [Coweight(c) for c in product(box, repeat=rs.rank)]
        for beta in betas:
            word = translation_word(rs, beta)
            assert element_from_word(rs, word) == translation(rs, beta)
            assert len(word) == affine_length(translation(rs, beta))


def test_translations_commute_and_add():
    for rs in (A2, C2):
        b1 = Coweight((1, 0))
        b2 = Coweight((-1, 1))
        t1 = element_from_word(rs, translation_word(rs, b1))
        t2 = element_from_word(rs, translation_word(rs, b2))
        assert t1 * t2 == t2 * t1 == translation(rs, b1 + b2)


def _bfs_words(rs, radius):
    """First word breadth-first search reaches each element by, within radius.

    Frontiers stay in lexicographic order of their words, so each word is the
    lexicographically smallest reduced word of its element.
    """
    words = {affine_identity(rs): ()}
    frontier = [affine_identity(rs)]
    for _ in range(radius):
        nxt = []
        for x in frontier:
            for i in range(rs.rank + 1):
                y = x * affine_simple(rs, i)
                if y not in words:
                    words[y] = words[x] + (i,)
                    nxt.append(y)
        frontier = nxt
    return words


def test_length_formula_matches_bfs():
    for rs in SMALL:
        for x, word in _bfs_words(rs, 6).items():
            assert affine_length(x) == len(word)
            assert shortest_word(x) == word


def _length_recount_descents(x, n):
    """Yield (i, s_i x) for each left descent i of x, in increasing i; n is l(x).

    The descent test the sign test replaced: recount the length of s_i x.
    """
    rs = x.finite.rs
    for i in range(rs.rank + 1):
        y = affine_simple(rs, i) * x
        if affine_length(y) == n - 1:
            yield i, y


def _length_recount_reduced_words(x):
    memo = {}

    def words(y, n):
        got = memo.get(y)
        if got is None:
            if n == 0:
                got = ((),)
            else:
                got = tuple((i,) + rest for i, z in _length_recount_descents(y, n)
                            for rest in words(z, n - 1))
            memo[y] = got
        return got

    return words(x, affine_length(x))


def test_descent_sign_test_matches_length_drop():
    for rs in SMALL:
        tables = rs.weyl_tables()
        for x in _bfs_words(rs, 6):
            n = affine_length(x)
            got = {i: (tables.elements[k], beta)
                   for i, k, beta in affine._left_descents(tables, x.finite.index, x.trans)}
            for i in range(rs.rank + 1):
                y = affine_simple(rs, i) * x
                assert (i in got) == (affine_length(y) == n - 1), (rs.key, x, i)
                if i in got:
                    assert got[i] == (y.finite, y.trans)


def test_all_reduced_words_match_length_recount():
    for rs in SMALL:
        for x in _bfs_words(rs, 6):
            assert all_reduced_words(x) == _length_recount_reduced_words(x)


def test_shortest_word_is_reduced():
    x = element_from_word(A2, (0, 1, 2, 0, 1))
    word = shortest_word(x)
    assert element_from_word(A2, word) == x
    assert len(word) == affine_length(x)


def test_shortest_word_raises_on_inconsistent_length(monkeypatch):
    x = element_from_word(A2, (0, 1, 2, 0, 1))
    true_length = affine.affine_length
    monkeypatch.setattr(affine, "affine_length", lambda y: true_length(y) + 1)
    with pytest.raises(AssertionError, match="no left descent"):
        shortest_word(x)
    # the loop scan checks each word it keeps the same way
    with pytest.raises(AssertionError, match="disagrees with its length"):
        translation_loop(A2, Coweight((1, 1)))
    monkeypatch.setattr(affine, "affine_length", lambda y: max(true_length(y) - 1, 0))
    with pytest.raises(AssertionError, match="away from the identity"):
        shortest_word(x)


def test_all_reduced_words():
    # finite part sanity: s1 s2 s1 = s2 s1 s2 in A2
    x = element_from_word(A2, (1, 2, 1))
    words = all_reduced_words(x)
    assert set(words) == {(1, 2, 1), (2, 1, 2)}
    for word in words:
        assert element_from_word(A2, word) == x
    assert all_reduced_words(affine_identity(A2)) == ((),)


def test_quantum_covers_examples():
    e = A1.identity
    s1 = A1.simple_reflection(1)
    assert [(c.letter, c.target) for c in quantum_covers(A1, e)] == [(1, s1)]
    assert [(c.letter, c.target) for c in quantum_covers(A1, s1)] == [(0, e)]

    w0 = A2.longest_element()
    covs = quantum_covers(A2, w0)
    assert [(c.letter, c.target) for c in covs] == [(0, A2.theta_reflection() * w0)]


def test_quantum_covers_classical_part_is_weak_order():
    for rs in (A2, C2):
        for w in rs.weyl_elements():
            for cov in quantum_covers(rs, w):
                if cov.letter != 0:
                    assert cov.target.length() == w.length() + 1
                    assert cov.target == rs.simple_reflection(cov.letter) * w


def test_adapted_sequence_examples():
    e = A1.identity
    s1 = A1.simple_reflection(1)
    assert adapted_sequence(A1, e, s1) == (1,)
    assert adapted_sequence(A1, e, e) == (0, 1)

    w0 = A2.longest_element()
    word = adapted_sequence(A2, A2.identity, w0)
    assert len(word) == 3
    assert all(i in (1, 2) for i in word)


def test_adapted_sequence_walks_correctly():
    for rs in (A2, C2):
        elems = rs.weyl_elements()
        for v in elems:
            for w in elems:
                word = adapted_sequence(rs, v, w)
                chain = walk_quantum(rs, word, v)
                assert chain[-1] == w
                if v == w:
                    assert len(word) >= 1


def test_adapted_sequence_exists_rank3():
    a3 = build_root_system("A", 3)
    elems = a3.weyl_elements()
    for v in elems[:6]:
        for w in elems:
            word = adapted_sequence(a3, v, w)
            assert walk_quantum(a3, word, v)[-1] == w


def test_walk_rejects_letters_out_of_range():
    for letter in (-1, 3):
        with pytest.raises(ValueError, match=f"affine letter {letter} out of range"):
            walk_quantum(A2, (letter,), A2.identity)


def test_loop_translation_weight_examples():
    e = A1.identity
    beta = loop_translation_weight(A1, (0, 1), e)
    assert beta == A1.theta_coroot

    twice = loop_translation_weight(A1, (0, 1, 0, 1), e)
    assert twice == Coweight((2,))

    with pytest.raises(ValueError):
        loop_translation_weight(A1, (1,), e)


def _closing_translation_word(rs, beta):
    """Reference: the whole reduced word of t_beta, kept when its walk from e closes."""
    word = translation_word(rs, beta)
    try:
        chain = walk_quantum(rs, word, rs.identity)
    except ValueError:
        return None
    return word if chain[-1] == rs.identity else None


@pytest.mark.parametrize("rs", SMALL + RANK4, ids=lambda rs: "".join(map(str, rs.key)))
def test_translation_loop_matches_the_closed_walk(rs):
    # the scan stops at its first non-cover, so it must keep exactly the words
    # whose full walk closes, on every coweight of the box _base_loops scans
    for coords in product(range(4), repeat=rs.rank):
        want = _closing_translation_word(rs, Coweight(coords))
        assert translation_loop(rs, Coweight(coords)) == want, coords


def test_minimal_loops_a1():
    e = A1.identity
    s1 = A1.simple_reflection(1)
    assert minimal_loops(A1, e) == [(0, 1)]
    assert minimal_loops(A1, s1) == [(1, 0)]


def test_minimal_loops_walk_back():
    for rs in (A2, C2) + RANK4:
        elements = rs.weyl_elements() if rs.rank < 4 else [rs.identity]
        for w in elements:
            loops = minimal_loops(rs, w)
            assert loops
            for loop in loops:
                assert walk_quantum(rs, loop, w)[-1] == w


def _forward_bfs_minimal_loops(rs, w):
    """Reference: one forward BFS per distance query, pruned depth-first search."""
    def dist_to(target, source):
        if source == target:
            return 0
        seen = {source}
        queue = deque([(source, 0)])
        while queue:
            u, d = queue.popleft()
            for cov in quantum_covers(rs, u):
                if cov.target == target:
                    return d + 1
                if cov.target not in seen:
                    seen.add(cov.target)
                    queue.append((cov.target, d + 1))
        raise AssertionError("unreachable: graph is strongly connected")

    best = min(1 + dist_to(w, cov.target) for cov in quantum_covers(rs, w))
    loops = []

    def extend(u, path):
        if len(path) == best:
            if u == w:
                loops.append(tuple(reversed(path)))
            return
        for cov in quantum_covers(rs, u):
            if dist_to(w, cov.target) <= best - len(path) - 1:
                extend(cov.target, path + (cov.letter,))

    extend(w, ())
    return sorted(set(loops))


def test_minimal_loops_match_forward_bfs_reference():
    for rs in SMALL:
        for w in rs.weyl_elements():
            assert minimal_loops(rs, w) == _forward_bfs_minimal_loops(rs, w)
