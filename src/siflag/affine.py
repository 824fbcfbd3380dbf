"""Untwisted affine Weyl group, level-zero monomial action, and the quantum Bruhat graph.

An affine element is stored canonically as a pair (w, beta) meaning w * t_beta,
so equality is never a word problem.  The normalization tying the affine node to
the finite data is t_{-theta^vee} = s_theta * s_0, equivalently
s_0 = s_theta * t_{-theta^vee}.  Lengths are inversion counts (Iwahori-Matsumoto).
Reduced words come from left descents: i is a left descent of x exactly when
x^{-1}(alpha_i) is a negative affine root, a sign test on the finite group's
index tables (``RootSystem.weyl_tables``), and the length formula checks each
word once.  The test suite cross-checks both the length and the greedy-descent
word against a breadth-first search of the group.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .rootdata import Coweight, RootSystem, Weight, WeylElement, WeylTables

Word = tuple[int, ...]


@dataclass(frozen=True)
class AffineElement:
    """The affine Weyl group element finite * t_trans."""

    finite: WeylElement
    trans: tuple[int, ...]

    def __mul__(self, other: "AffineElement") -> "AffineElement":
        # (w1 t_b1)(w2 t_b2) = (w1 w2) t_{w2^{-1} b1 + b2}, where
        # (w2^{-1} b1)_i = <w2^{-1} b1, w_i> = <b1, w2(w_i)>: no inverse needed
        b1 = self.trans
        trans = tuple(
            sum(b * c for b, c in zip(b1, col)) + b2
            for col, b2 in zip(other.finite.cols, other.trans)
        )
        return AffineElement(self.finite * other.finite, trans)

    def inverse(self) -> "AffineElement":
        back = self.finite.act_coweight(Coweight(self.trans))
        return AffineElement(self.finite.inverse(), tuple(-c for c in back.coords))

    def is_identity(self) -> bool:
        return self.finite.is_identity() and all(c == 0 for c in self.trans)


def affine_identity(rs: RootSystem) -> AffineElement:
    return AffineElement(rs.identity, (0,) * rs.rank)


def affine_simple(rs: RootSystem, i: int) -> AffineElement:
    """The affine simple reflection s_i, for i in {0, 1, ..., rank}."""
    zero = (0,) * rs.rank
    if i == 0:
        return AffineElement(rs.theta_reflection(), tuple(-c for c in rs.theta_coroot.coords))
    return AffineElement(rs.simple_reflection(i), zero)


def translation(rs: RootSystem, beta: Coweight) -> AffineElement:
    return AffineElement(rs.identity, beta.coords)


def element_from_word(rs: RootSystem, word: Word) -> AffineElement:
    gens = [affine_simple(rs, i) for i in range(rs.rank + 1)]
    out = affine_identity(rs)
    for i in word:
        out = out * gens[i]
    return out


def s0_action(rs: RootSystem, n: int, lam: Weight) -> tuple[int, Weight]:
    """s_0(q^n e^lam) = q^{n + <theta^vee, lam>} e^{s_theta lam}; delta itself is fixed."""
    return n + rs.pairing(rs.theta_coroot, lam), rs.theta_reflection().act(lam)


def affine_length(x: AffineElement) -> int:
    """Inversion count of x over the positive affine real roots."""
    rs = x.finite.rs
    beta = Coweight(x.trans)
    total = 0
    for gamma_wt in rs.positive_root_weights:
        p = rs.pairing(beta, gamma_wt)
        w_gamma_neg = rs.root_is_negative(x.finite.act(gamma_wt))
        # alpha = gamma, positive towers start at n = 0
        total += max(0, p) + (1 if p >= 0 and w_gamma_neg else 0)
        # alpha = -gamma, towers start at n = 1; w(-gamma) < 0 iff w(gamma) > 0
        total += max(0, -p - 1) + (1 if -p >= 1 and not w_gamma_neg else 0)
    return total


def _left_descents(tables: WeylTables, k: int, beta: tuple[int, ...]):
    """Yield (i, finite index, trans) of s_i x for each left descent i of x = w t_beta, in
    increasing i, where w has index k.

    i is a left descent exactly when x^{-1}(alpha_i) is a negative affine root, and
    gamma + m delta is negative when m < 0, or m = 0 and gamma < 0.  With
    a = w^{-1} alpha_i that root is a + <beta, a> delta for i >= 1; with
    a = w^{-1} theta it is -a + (1 - <beta, a>) delta for i = 0, and there
    s_0 w t_beta = s_theta w t_{beta - w^{-1} theta^vee}.
    """
    for i, (a, negative) in enumerate(zip(tables.inv_roots[k], tables.inv_negative[k])):
        m = sum(b * c for b, c in zip(beta, a))
        if i == 0:
            m, negative = 1 - m, not negative
        if m < 0 or (m == 0 and negative):
            if i == 0:
                yield 0, tables.left[k][0], tuple(
                    b - c for b, c in zip(beta, tables.inv_theta_coroot[k]))
            else:
                yield i, tables.left[k][i], beta


def shortest_word(x: AffineElement) -> Word:
    """The lexicographically smallest reduced word of x, by greedy left descent.

    Each step strips the smallest left descent; the walk must reach the identity
    after exactly l(x) steps, or the descent test and the length formula disagree.
    """
    n = affine_length(x)
    tables = x.finite.rs.weyl_tables()
    k, beta = x.finite.index, x.trans
    word = []
    while n > 0:
        step = next(_left_descents(tables, k, beta), None)
        if step is None:
            raise AssertionError(f"no left descent lowers length {n} by one")
        i, k, beta = step
        word.append(i)
        n -= 1
    if k != 0 or any(beta):
        raise AssertionError("left descent reached length 0 away from the identity")
    return tuple(word)


def translation_word(rs: RootSystem, beta: Coweight) -> Word:
    """A reduced word for the translation element t_beta."""
    return shortest_word(translation(rs, beta))


def all_reduced_words(x: AffineElement) -> tuple[Word, ...]:
    """Every reduced word of x in lexicographic order, by left-descent recursion."""
    tables = x.finite.rs.weyl_tables()
    memo: dict[tuple[int, tuple[int, ...]], tuple[Word, ...]] = {}

    def words(k: int, beta: tuple[int, ...], n: int) -> tuple[Word, ...]:
        got = memo.get((k, beta))
        if got is None:
            if n == 0:
                got = ((),)
            else:
                # ascending i over sorted suffixes: already in lexicographic order
                got = tuple((i,) + rest for i, k2, beta2 in _left_descents(tables, k, beta)
                            for rest in words(k2, beta2, n - 1))
            memo[(k, beta)] = got
        return got

    return words(x.finite.index, x.trans, affine_length(x))


# -- quantum Bruhat graph ----------------------------------------------------


@dataclass(frozen=True)
class QuantumCover:
    """An edge w -> bar(s_i) w of the quantum Bruhat graph."""

    source: WeylElement
    target: WeylElement
    letter: int


def _is_cover(tables: WeylTables, i: int, k: int) -> bool:
    """Whether letter i is a quantum cover at the element of index k.

    For i >= 1 that is s_i w > w, i.e. w^{-1} alpha_i > 0; for i = 0 it is
    w^{-1} theta < 0.
    """
    return tables.inv_negative[k][i] == (i == 0)


def quantum_covers(rs: RootSystem, w: WeylElement) -> list[QuantumCover]:
    """Outgoing covers: s_i w > w for i in I, or the s_theta step when w^{-1} theta < 0."""
    tables = rs.weyl_tables()
    k = w.index
    return [QuantumCover(w, tables.elements[tables.left[k][i]], i)
            for i in range(rs.rank + 1) if _is_cover(tables, i, k)]


def quantum_step(rs: RootSystem, i: int, w: WeylElement) -> WeylElement | None:
    """Target of the letter-i cover at w, or None when (i, w) is not a cover."""
    if not 0 <= i <= rs.rank:
        raise ValueError(f"affine letter {i} out of range")
    tables = rs.weyl_tables()
    k = w.index
    return tables.elements[tables.left[k][i]] if _is_cover(tables, i, k) else None


def adapted_sequence(rs: RootSystem, v: WeylElement, w: WeylElement) -> Word:
    """Letters (i_1, ..., i_l) with w = bar(s_{i_1}) ... bar(s_{i_l}) v along quantum covers.

    For v == w the shortest nonempty loop is returned.  The graph is strongly
    connected, so the BFS always terminates.
    """
    queue: deque[tuple[WeylElement, tuple[int, ...]]] = deque([(v, ())])
    seen = {v}
    while queue:
        u, path = queue.popleft()
        for cov in quantum_covers(rs, u):
            if cov.target == w:
                return tuple(reversed(path + (cov.letter,)))
            if cov.target not in seen:
                seen.add(cov.target)
                queue.append((cov.target, path + (cov.letter,)))
    raise AssertionError("quantum Bruhat graph should be strongly connected")


def walk_quantum(rs: RootSystem, word: Word, start: WeylElement) -> list[WeylElement]:
    """Elements visited applying the word right-to-left from start; errors off-graph."""
    chain = [start]
    u = start
    for i in reversed(word):
        nxt = quantum_step(rs, i, u)
        if nxt is None:
            raise ValueError(f"letter {i} is not a quantum cover at {u!r}")
        u = nxt
        chain.append(u)
    return chain


def minimal_loops(rs: RootSystem, w: WeylElement) -> list[Word]:
    """All shortest nonempty quantum-Bruhat loops based at w, as operator words."""
    tables = rs.weyl_tables()
    letters = range(rs.rank + 1)
    base = w.index
    # distance from every element to w: one BFS from w over reversed cover edges;
    # each letter acts as an involution, so the only source of an i-edge into u is s_i u
    dist = {base: 0}
    queue = deque([base])
    while queue:
        u = queue.popleft()
        for i in letters:
            source = tables.left[u][i]
            if source not in dist and _is_cover(tables, i, source):
                dist[source] = dist[u] + 1
                queue.append(source)

    best = min(1 + dist[tables.left[base][i]] for i in letters if _is_cover(tables, i, base))
    loops: list[Word] = []

    def extend(u: int, path: tuple[int, ...]) -> None:
        if len(path) == best:
            if u == base:
                loops.append(tuple(reversed(path)))
            return
        for i in letters:
            if _is_cover(tables, i, u) and dist[tables.left[u][i]] <= best - len(path) - 1:
                extend(tables.left[u][i], path + (i,))

    extend(base, ())
    return sorted(loops)


def loop_translation_weight(rs: RootSystem, loop: Word, w: WeylElement) -> Coweight:
    """Translation part beta of the affine lift of a loop at w (sends w t_0 to w t_beta)."""
    chain = walk_quantum(rs, loop, w)
    if chain[-1] != w:
        raise ValueError("word is not a loop at w")
    lift = element_from_word(rs, loop)
    if not lift.finite.is_identity():
        raise ValueError("loop lift has a nontrivial finite part")
    moved = lift * AffineElement(w, (0,) * rs.rank)
    if moved.finite != w:
        raise AssertionError("loop lift moves the finite part")
    return Coweight(moved.trans)
