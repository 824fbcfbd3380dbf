"""Finite root systems, lattices, pairings, and the finite Weyl group.

Coordinate conventions, used everywhere in this package:

* weights live in the fundamental-weight basis (lambda = sum lambda_i w_i),
* roots live in the simple-root basis,
* coweights live in the simple-coroot basis,
* cartan[i][j] = <alpha_i^vee, alpha_j>.

All arithmetic is exact: integer coordinates, Fraction only where a basis
change forces it.  Every value is immutable after construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul, sub
from typing import Iterable, Sequence

from .qt import _rref

Coords = tuple[int, ...]

SUPPORTED = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 4),
    ("G", 2),
    ("F", 4),
)


def _cartan_matrix(type_label: str, rank: int) -> tuple[Coords, ...]:
    # cartan[i][j] = <alpha_i^vee, alpha_j>; Bourbaki numbering throughout.
    n = rank
    mat = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def chain(i, j):
        mat[i][j] = -1
        mat[j][i] = -1

    if type_label in ("A", "B", "C"):
        for i in range(n - 1):
            chain(i, i + 1)
        if type_label == "B":
            mat[n - 1][n - 2] = -2  # alpha_n short
        elif type_label == "C":
            mat[n - 2][n - 1] = -2  # alpha_n long
    elif type_label == "D":
        for i in range(n - 2):
            chain(i, i + 1)
        chain(n - 3, n - 1)
    elif type_label == "G":
        mat[0][1] = -3  # alpha_1 short
        mat[1][0] = -1
    elif type_label == "F":
        chain(0, 1)
        chain(2, 3)
        mat[1][2] = -1  # alpha_1, alpha_2 long; alpha_3, alpha_4 short
        mat[2][1] = -2
    else:
        raise ValueError(f"unsupported type {type_label!r}")
    return tuple(tuple(row) for row in mat)


@dataclass(frozen=True)
class Weight:
    """Integer vector in the fundamental-weight basis."""

    coords: Coords

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords))

    def scale(self, k: int) -> "Weight":
        return Weight(tuple(k * a for a in self.coords))

    def is_dominant(self) -> bool:
        return all(a >= 0 for a in self.coords)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)


@dataclass(frozen=True)
class Coweight:
    """Integer vector in the simple-coroot basis."""

    coords: Coords

    def __add__(self, other: "Coweight") -> "Coweight":
        return Coweight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Coweight":
        return Coweight(tuple(-a for a in self.coords))


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element: its index in ``RootSystem.weyl_tables()``.

    Two elements are equal iff their indices are.  ``cols[j]`` is w(w_j) in
    fundamental-weight coordinates, kept for ``act``; only the tables build
    elements, so every element lies in W.
    """

    rs: "RootSystem" = field(compare=False, repr=False)
    index: int
    cols: tuple[Coords, ...] = field(compare=False, repr=False)

    def act(self, lam: Weight) -> Weight:
        return Weight(_apply(self.cols, lam.coords))

    def act_coweight(self, beta: Coweight) -> Coweight:
        # contragredient action: (w beta)_i = <w beta, w_i> = <beta, w^{-1}(w_i)>
        inv = self.inverse()
        out = tuple(
            sum(b * c for b, c in zip(beta.coords, inv.cols[i]))
            for i in range(self.rs.rank)
        )
        return Coweight(out)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return self.rs.element_from_word(self.word(), other)

    def inverse(self) -> "WeylElement":
        # (s_i1 ... s_ik)^{-1} = s_ik ... s_i1
        return self.rs.element_from_word(self.word()[::-1])

    def length(self) -> int:
        return len(self.word())

    def word(self) -> tuple[int, ...]:
        """A shortest word in simple reflections (1-based letters)."""
        return self.rs.weyl_tables().words[self.index]

    def is_identity(self) -> bool:
        return self.index == 0

    def __repr__(self) -> str:
        return "*".join(f"s{i}" for i in self.word()) or "e"


@dataclass(frozen=True)
class WeylTables:
    """The finite Weyl group as index tables; element k is ``elements[k]``, the identity 0.

    Letter i is s_i for i in 1..rank and s_theta for i = 0, the images of the
    affine simple reflections.  For the element w of index k:

    * ``left[k][i]`` is the index of s_i w (of s_theta w for i = 0);
    * ``inv_roots[k][i]`` is w^{-1} alpha_i (w^{-1} theta for i = 0) in
      fundamental-weight coordinates, and ``inv_negative[k][i]`` whether that
      root is negative;
    * ``inv_theta_coroot[k]`` is w^{-1} theta^vee in simple-coroot coordinates;
    * ``words[k]`` is a shortest word.

    They are the one source of words, lengths, inverses and products:
    ``WeylElement.word`` and ``length`` read ``words`` at the element's index,
    and ``inverse``, ``*``, ``simple_reflection`` and ``theta_reflection`` are
    folds of ``left`` (``RootSystem.element_from_word``).
    """

    elements: tuple[WeylElement, ...]
    words: tuple[tuple[int, ...], ...]
    left: tuple[tuple[int, ...], ...]
    inv_roots: tuple[tuple[Coords, ...], ...]
    inv_negative: tuple[tuple[bool, ...], ...]
    inv_theta_coroot: tuple[Coords, ...]


class RootSystem:
    """Root-system data for one of the supported finite types."""

    def __init__(self, type_label: str, rank: int):
        if (type_label, rank) not in SUPPORTED:
            raise ValueError(f"unsupported root system {type_label}{rank}")
        self.type_label = type_label
        self.rank = rank
        self.cartan = _cartan_matrix(type_label, rank)
        self.cartan_inv = _invert(self.cartan)
        self._symmetrizer = self._make_symmetrizer()
        self.positive_roots = self._close_roots()
        self.theta = max(self.positive_roots, key=sum)
        for beta in self.positive_roots:
            if any(t < b for t, b in zip(self.theta, beta)):
                raise AssertionError("highest root is not coordinatewise maximal")
        self.theta_coroot = self.coroot(self.theta)
        self.theta_weight = self.root_to_weight(self.theta)
        if self.pairing(self.theta_coroot, self.theta_weight) != 2:
            raise AssertionError("highest coroot does not pair to 2 with the highest root")
        self._simple_roots = tuple(
            self.root_to_weight(tuple(1 if k == i else 0 for k in range(rank)))
            for i in range(rank)
        )
        self.simple_root_index = {a.coords: j for j, a in enumerate(self._simple_roots, 1)}
        # fundamental-weight coordinate images of positive/negative roots
        self.positive_root_weights = tuple(self.root_to_weight(b) for b in self.positive_roots)
        self._neg_root_wts = frozenset(
            tuple(-c for c in wt.coords) for wt in self.positive_root_weights
        )
        self.identity = WeylElement(
            self, 0, tuple(tuple(1 if i == j else 0 for i in range(rank)) for j in range(rank))
        )
        # memo tables, filled on first use so that construction stays cheap
        self._tables: WeylTables | None = None
        self._bruhat: dict[tuple[WeylElement, WeylElement], bool] = {}

    # -- construction helpers -------------------------------------------------

    def _make_symmetrizer(self) -> tuple[Fraction, ...]:
        # d_i with d_i * C_ij symmetric, propagated along the Dynkin graph
        d: list[Fraction | None] = [None] * self.rank
        d[0] = Fraction(1)
        todo = [0]
        while todo:
            i = todo.pop()
            for j in range(self.rank):
                if j != i and self.cartan[i][j] != 0 and d[j] is None:
                    d[j] = d[i] * Fraction(self.cartan[i][j], self.cartan[j][i])
                    todo.append(j)
        if any(x is None for x in d):
            raise AssertionError("Dynkin diagram must be connected")
        return tuple(d)  # type: ignore[arg-type]

    def _close_roots(self) -> tuple[Coords, ...]:
        """All roots, by reflection closure of the simple roots; positives kept."""
        simple = [tuple(1 if k == i else 0 for k in range(self.rank)) for i in range(self.rank)]
        seen = set(simple)
        frontier = list(simple)
        while frontier:
            beta = frontier.pop()
            for i in range(self.rank):
                pair = sum(self.cartan[i][j] * beta[j] for j in range(self.rank))
                img = tuple(
                    beta[k] - (pair if k == i else 0) for k in range(self.rank)
                )
                if img not in seen:
                    seen.add(img)
                    frontier.append(img)
        pos = sorted(b for b in seen if all(c >= 0 for c in b))
        if len(seen) != 2 * len(pos):
            raise AssertionError("root closure is not symmetric under negation")
        return tuple(pos)

    def _simple_reflect(self, i: int, lam: Weight) -> Weight:
        # s_i(lam) = lam - <alpha_i^vee, lam> alpha_i
        c = lam.coords[i - 1]
        if c == 0:
            return lam
        return lam - self.simple_root(i).scale(c)

    # -- basic data ------------------------------------------------------------

    @property
    def key(self) -> tuple[str, int]:
        return (self.type_label, self.rank)

    def simple_reflection(self, i: int) -> WeylElement:
        return self.element_from_word((i,))

    def fundamental_weight(self, i: int) -> Weight:
        return Weight(tuple(1 if k == i - 1 else 0 for k in range(self.rank)))

    def simple_root(self, i: int) -> Weight:
        """alpha_i (1-based) in fundamental-weight coordinates."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple root index {i} out of range")
        return self._simple_roots[i - 1]

    def simple_coroot(self, i: int) -> Coweight:
        return Coweight(tuple(1 if k == i - 1 else 0 for k in range(self.rank)))

    def rho(self) -> Weight:
        return Weight((1,) * self.rank)

    def root_to_weight(self, root: Coords) -> Weight:
        """Fundamental-weight coordinates of a root given in simple-root coordinates."""
        return Weight(
            tuple(
                sum(self.cartan[i][j] * root[j] for j in range(self.rank))
                for i in range(self.rank)
            )
        )

    def weight_to_root(self, lam: Weight) -> tuple[Fraction, ...]:
        """Simple-root coordinates of a weight (rational in general)."""
        return tuple(
            sum(self.cartan_inv[j][i] * lam.coords[i] for i in range(self.rank))
            for j in range(self.rank)
        )

    def coroot(self, root: Coords) -> Coweight:
        """The coroot 2*beta/(beta,beta) of a root, in simple-coroot coordinates."""
        d = self._symmetrizer
        norm = Fraction(0)
        for i in range(self.rank):
            for j in range(self.rank):
                norm += root[i] * root[j] * d[i] * self.cartan[i][j]
        coords = []
        for i in range(self.rank):
            # coefficient of alpha_i^vee is root_i * (alpha_i, alpha_i) / (beta, beta)
            c = Fraction(root[i]) * 2 * d[i] / norm
            if c.denominator != 1:
                raise AssertionError(f"coroot of {root} is not integral")
            coords.append(int(c))
        return Coweight(tuple(coords))

    def pairing(self, beta: Coweight, lam: Weight) -> int:
        """Natural pairing of a coweight against a weight; dual bases, so a dot product."""
        if len(beta.coords) != len(lam.coords):
            raise ValueError("mismatched root systems")
        return sum(b * l for b, l in zip(beta.coords, lam.coords))

    def root_is_negative(self, lam: Weight) -> bool:
        """Whether a weight known to be a root is a negative root."""
        return lam.coords in self._neg_root_wts

    # -- group structure -------------------------------------------------------

    def weyl_tables(self) -> WeylTables:
        """Index tables of the whole Weyl group (see ``WeylTables``), built on first use.

        Built in locals and published by one assignment, so a concurrent caller
        sees either no tables or complete ones.
        """
        got = self._tables
        if got is None:
            got = self._tables = self._build_tables()
        return got

    def _build_tables(self) -> WeylTables:
        # breadth-first over the matrices cols from the identity, each level sorted;
        # a word is built right-to-left, so its first letter i leads back to the
        # parent s_i v.  Letter i maps each column c to c - <alpha_i^vee, c> alpha_i,
        # letter 0 to c - <theta^vee, c> theta.
        mirrors = [(self.theta_coroot.coords, self.theta_weight.coords)] + [
            (self.simple_coroot(i).coords, a.coords) for i, a in enumerate(self._simple_roots, 1)]

        def reflect(cols, coroot, root):
            out = []
            for c in cols:
                p = sum(map(mul, coroot, c))
                out.append(tuple([x - p * a for x, a in zip(c, root)]) if p else c)
            return tuple(out)

        start = self.identity.cols
        words = {start: ()}
        images = {}
        order = [start]
        frontier = [start]
        while frontier:
            nxt = []
            for w in frontier:
                images[w] = row = [reflect(w, *m) for m in mirrors]
                for i in range(1, self.rank + 1):
                    if row[i] not in words:
                        words[row[i]] = (i,) + words[w]
                        nxt.append(row[i])
            nxt.sort()
            order.extend(nxt)
            frontier = nxt
        index = {w: k for k, w in enumerate(order)}
        left = tuple(tuple(index[v] for v in images[w]) for w in order)
        words = tuple(words[w] for w in order)
        # (s_i u)^{-1} alpha_j = u^{-1} alpha_j - <alpha_i^vee, alpha_j> u^{-1} alpha_i, and
        # likewise for theta, so each row follows from its parent's without an inverse
        inv_roots = [(self.theta_weight.coords,) + tuple(a.coords for a in self._simple_roots)]
        for k in range(1, len(order)):
            i = words[k][0]
            row = inv_roots[left[k][i]]
            pairs = (self.theta_weight.coords[i - 1],) + self.cartan[i - 1]
            inv_roots.append(tuple(tuple(b - c * a for b, a in zip(root, row[i]))
                                   for root, c in zip(row, pairs)))
        coroots = {}
        for root in self.positive_roots:
            wt, co = self.root_to_weight(root).coords, self.coroot(root).coords
            coroots[wt] = co
            coroots[tuple(-c for c in wt)] = tuple(-c for c in co)
        return WeylTables(
            elements=(self.identity,) + tuple(
                WeylElement(self, k, cols) for k, cols in enumerate(order[1:], 1)),
            words=words,
            left=left,
            inv_roots=tuple(inv_roots),
            inv_negative=tuple(tuple(a in self._neg_root_wts for a in row) for row in inv_roots),
            inv_theta_coroot=tuple(coroots[row[0]] for row in inv_roots),
        )

    def weyl_elements(self) -> tuple[WeylElement, ...]:
        """The whole Weyl group, BFS order from the identity (deterministic)."""
        return self.weyl_tables().elements

    def longest_element(self) -> WeylElement:
        """w0, the one element of the last BFS level."""
        w0 = self.weyl_elements()[-1]
        if w0.length() != len(self.positive_roots):
            raise AssertionError("longest element does not invert every positive root")
        return w0

    def theta_reflection(self) -> WeylElement:
        """s_theta, the reflection in the highest root."""
        tables = self.weyl_tables()
        return tables.elements[tables.left[0][0]]

    def element_from_word(self, word: Iterable[int], start: WeylElement | None = None) -> WeylElement:
        """s_i1 ... s_ik start (start defaults to e) for letters in 1..rank, read off
        ``left`` from the right."""
        tables = self.weyl_tables()
        k = 0 if start is None else start.index
        for i in reversed(tuple(word)):
            if not 1 <= i <= self.rank:
                raise ValueError(f"simple reflection index {i} out of range")
            k = tables.left[k][i]
        return tables.elements[k]

    def bruhat_leq(self, u: WeylElement, w: WeylElement) -> bool:
        """Bruhat order, by the standard descent recursion."""
        if u == w:
            return True
        if u.length() >= w.length():
            return False
        key = (u, w)
        got = self._bruhat.get(key)
        if got is None:
            tables = self.weyl_tables()
            i = tables.words[w.index][0]
            sw = tables.elements[tables.left[w.index][i]]
            su = tables.elements[tables.left[u.index][i]]
            if su.length() < u.length():
                got = self.bruhat_leq(su, sw)
            else:
                got = self.bruhat_leq(u, sw)
            self._bruhat[key] = got
        return got

    def dominant_representative(self, nu: Weight) -> tuple[Weight, WeylElement]:
        """Return (nu_plus, v) with nu = v(nu_plus), v of minimal length."""
        cur = nu
        letters: list[int] = []
        while True:
            neg = [i for i in range(1, self.rank + 1) if cur.coords[i - 1] < 0]
            if not neg:
                break
            i = neg[0]
            cur = self._simple_reflect(i, cur)
            letters.append(i)
        v = self.element_from_word(letters)
        if v.act(cur) != nu:
            raise AssertionError("dominant representative does not map back to the weight")
        return cur, v

    def to_json(self) -> dict:
        return {
            "type": f"{self.type_label}{self.rank}",
            "Cartan": [list(row) for row in self.cartan],
            "pos_roots": [list(b) for b in self.positive_roots],
            "theta": list(self.theta),
        }


def _apply(cols: Sequence[Coords], vec: Coords) -> Coords:
    """Coordinates of w(v) for v in the weight basis, where cols[j] = w(w_j)."""
    out = [0] * len(vec)
    for vj, col in zip(vec, cols):
        if vj:
            for k, c in enumerate(col):
                out[k] += vj * c
    return tuple(out)


def _invert(mat: Sequence[Sequence[int]]) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of a small nonsingular integer matrix, such as a Cartan matrix."""
    n = len(mat)
    rows = [{**{j: Fraction(x) for j, x in enumerate(row)}, n + i: Fraction(1)}
            for i, row in enumerate(mat)]
    pivots, _ = _rref(rows, n)
    return tuple(tuple(row.get(n + j, Fraction(0)) for j in range(n)) for _, row in pivots)


# the one RootSystem each supported (type, rank) resolves to in this process
_SHARED: dict[tuple[str, int], RootSystem] = {}


def build_root_system(type_label: str, rank: int) -> RootSystem:
    """The process's one root system for a supported (type, rank), e.g. ('A', 2).

    Built on first use; ``RootSystem(type_label, rank)`` builds a private one."""
    rs = _SHARED.get((type_label, rank))
    if rs is None:
        rs = _SHARED.setdefault((type_label, rank), RootSystem(type_label, rank))
    return rs


def parse_digits(text: str) -> int | None:
    """The value of a nonempty run of ASCII digits, None for any other text.

    int() alone also reads a sign, spaces, "1_0" and other scripts' digits such
    as "\u0662", and str.isdigit() passes "\u00b2", which int() then refuses.
    """
    return int(text) if text.isascii() and text.isdigit() else None


def parse_name(name: str) -> tuple[str, int]:
    """The (type, rank) a compact name such as 'A2' or 'g2' spells; support is not checked."""
    name = name.strip()
    rank = parse_digits(name[1:])
    if rank is None:
        raise ValueError(f"cannot parse root-system name {name!r}")
    return name[0].upper(), rank


def from_name(name: str) -> RootSystem:
    """The process's root system for a compact name such as 'A2' or 'G2'."""
    return build_root_system(*parse_name(name))


def minimal_coset_reps(rs: RootSystem, lam: Weight) -> list[WeylElement]:
    """Minimal-length representatives of W / W_lam for a dominant weight."""
    if not lam.is_dominant():
        raise ValueError("weight must be dominant")
    reps = [w for w in rs.weyl_elements() if is_minimal_coset_rep(rs, w, lam)]
    reps.sort(key=lambda w: (w.length(), w.word()))
    return reps


def is_minimal_coset_rep(rs: RootSystem, w: WeylElement, lam: Weight) -> bool:
    """Whether w is minimal in w W_lam: w(alpha_j) > 0 for every simple alpha_j fixing lam."""
    return not any(lam.coords[j - 1] == 0 and rs.root_is_negative(w.act(rs.simple_root(j)))
                   for j in range(1, rs.rank + 1))


def minimal_coset_representative(rs: RootSystem, w: WeylElement, lam: Weight) -> WeylElement:
    """The minimal-length element of w W_lam (so with the same image w(lam))."""
    target = w.act(lam)
    nu_plus, v = rs.dominant_representative(target)
    if nu_plus != lam:
        raise AssertionError("weight must be dominant and in the W-orbit")
    return v


def hull_weights(rs: RootSystem, lam: Weight) -> list[Weight]:
    """All nu in lam + Q with dominant representative <= lam (weights of V(lam)), sorted.

    The dominant mu <= lam are reached from lam by subtracting positive roots
    while staying dominant, since positive roots generate the dominance order
    on dominant weights (Stembridge, Adv. Math. 136, 1998); every W-orbit is
    then walked down from its dominant member by the s_i that lower it.
    """
    if not lam.is_dominant():
        raise ValueError("weight must be dominant")
    roots = [b.coords for b in rs.positive_root_weights]
    dominant = [lam.coords]
    seen = {lam.coords}
    for mu in dominant:
        for beta in roots:
            nu = tuple(map(sub, mu, beta))
            if min(nu) >= 0 and nu not in seen:
                seen.add(nu)
                dominant.append(nu)
    simple = [a.coords for a in rs._simple_roots]
    orbit = list(dominant)
    for nu in orbit:
        for i, c in enumerate(nu):
            if c > 0:
                img = tuple(x - c * a for x, a in zip(nu, simple[i]))
                if img not in seen:
                    seen.add(img)
                    orbit.append(img)
    return [Weight(nu) for nu in sorted(orbit)]
