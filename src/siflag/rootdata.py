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
from itertools import product as iproduct
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
    """A Weyl group element, canonicalized by its action on the weight basis.

    ``cols[j]`` is w(w_j) in fundamental-weight coordinates; two elements are
    equal iff these images agree.  Words are derived data, never identity.
    """

    rs: "RootSystem" = field(compare=False, repr=False)
    cols: tuple[Coords, ...] = ()

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
        return WeylElement(self.rs, tuple(_apply(self.cols, c) for c in other.cols))

    def inverse(self) -> "WeylElement":
        # (s_i1 ... s_ik)^{-1} = s_ik ... s_i1: left-multiply by s_i1 first
        tables, k = self.rs._lookup(self)
        inv = 0
        for i in tables.words[k]:
            inv = tables.left[inv][i]
        return tables.elements[inv]

    def length(self) -> int:
        return len(self.word())

    def word(self) -> tuple[int, ...]:
        """A shortest word in simple reflections (1-based letters)."""
        tables, k = self.rs._lookup(self)
        return tables.words[k]

    def is_identity(self) -> bool:
        return self == self.rs.identity

    def __repr__(self) -> str:
        try:
            w = self.word()
        except ValueError:  # a matrix outside W has no word
            return f"WeylElement({self.cols})"
        return "e" if not w else "*".join(f"s{i}" for i in w)


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

    They are the one source of words, lengths and inverses: ``WeylElement.word``,
    ``length`` and ``inverse`` look w up in ``index`` through ``RootSystem._lookup``,
    and an element missing from it is not in W.
    """

    elements: tuple[WeylElement, ...]
    index: dict[WeylElement, int]
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
            self, tuple(tuple(1 if i == j else 0 for i in range(rank)) for j in range(rank))
        )
        self._simple = tuple(self._make_simple(i) for i in range(1, rank + 1))
        # memo tables, filled on first use so that construction stays cheap
        self._tables: WeylTables | None = None
        self._s_theta: WeylElement | None = None
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

    def _make_simple(self, i: int) -> WeylElement:
        cols = []
        for j in range(self.rank):
            w = Weight(tuple(1 if k == j else 0 for k in range(self.rank)))
            img = self._simple_reflect(i, w)
            cols.append(img.coords)
        return WeylElement(self, tuple(cols))

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
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple reflection index {i} out of range")
        return self._simple[i - 1]

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

    def reflection(self, root: Coords) -> WeylElement:
        """The reflection s_beta for a positive root beta."""
        beta_vee = self.coroot(root)
        beta_wt = self.root_to_weight(root)
        cols = []
        for j in range(self.rank):
            w = self.fundamental_weight(j + 1)
            cols.append((w - beta_wt.scale(self.pairing(beta_vee, w))).coords)
        return WeylElement(self, tuple(cols))

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
        # breadth-first from the identity, each level sorted by cols; a word is
        # built right-to-left, so its first letter i leads back to the parent s_i v
        words = {self.identity: ()}
        products = {}
        order = [self.identity]
        frontier = [self.identity]
        while frontier:
            nxt = []
            for w in frontier:
                products[w] = tuple(s * w for s in self._simple)
                for i, v in enumerate(products[w], 1):
                    if v not in words:
                        words[v] = (i,) + words[w]
                        nxt.append(v)
            nxt.sort(key=lambda u: u.cols)
            order.extend(nxt)
            frontier = nxt
        index = {w: k for k, w in enumerate(order)}
        s_theta = self.theta_reflection()
        left = tuple((index[s_theta * w],) + tuple(index[v] for v in products[w]) for w in order)
        # (s_i u)^{-1} alpha_j = u^{-1} alpha_j - <alpha_i^vee, alpha_j> u^{-1} alpha_i, and
        # likewise for theta, so each row follows from its parent's without an inverse
        inv_roots = [(self.theta_weight.coords,) + tuple(a.coords for a in self._simple_roots)]
        for k in range(1, len(order)):
            i = words[order[k]][0]
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
            elements=tuple(order),
            index=index,
            words=tuple(words[w] for w in order),
            left=left,
            inv_roots=tuple(inv_roots),
            inv_negative=tuple(tuple(a in self._neg_root_wts for a in row) for row in inv_roots),
            inv_theta_coroot=tuple(coroots[row[0]] for row in inv_roots),
        )

    def weyl_elements(self) -> tuple[WeylElement, ...]:
        """The whole Weyl group, BFS order from the identity (deterministic)."""
        return self.weyl_tables().elements

    def _lookup(self, w: WeylElement) -> tuple[WeylTables, int]:
        """The tables and w's index in them; a ValueError if w is not in W."""
        tables = self.weyl_tables()
        k = tables.index.get(w)
        if k is None:
            raise ValueError(f"{w.cols} is not a Weyl group element")
        return tables, k

    def longest_element(self) -> WeylElement:
        """w0, the one element of the last BFS level."""
        w0 = self.weyl_elements()[-1]
        if w0.length() != len(self.positive_roots):
            raise AssertionError("longest element does not invert every positive root")
        return w0

    def theta_reflection(self) -> WeylElement:
        """s_theta, the reflection in the highest root (built once)."""
        if self._s_theta is None:
            self._s_theta = self.reflection(self.theta)
        return self._s_theta

    def element_from_word(self, word: Iterable[int]) -> WeylElement:
        out = self.identity
        for i in word:
            out = out * self.simple_reflection(i)
        return out

    def bruhat_leq(self, u: WeylElement, w: WeylElement) -> bool:
        """Bruhat order, by the standard descent recursion."""
        if u == w:
            return True
        if u.length() >= w.length():
            return False
        key = (u, w)
        got = self._bruhat.get(key)
        if got is None:
            tables, k = self._lookup(w)
            i = tables.words[k][0]
            sw = tables.elements[tables.left[k][i]]
            su = tables.elements[tables.left[tables.index[u]][i]]
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
        tables = self.weyl_tables()
        k = 0
        for i in reversed(letters):
            k = tables.left[k][i]
        v = tables.elements[k]
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


def parse_name(name: str) -> tuple[str, int]:
    """The (type, rank) a compact name such as 'A2' or 'g2' spells; support is not checked."""
    name = name.strip()
    if len(name) < 2 or not name[1:].isdigit():
        raise ValueError(f"cannot parse root-system name {name!r}")
    return name[0].upper(), int(name[1:])


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
    """All nu in lam + Q with dominant representative <= lam (weights of V(lam))."""
    if not lam.is_dominant():
        raise ValueError("weight must be dominant")
    w0 = rs.longest_element()
    span = lam - w0.act(lam)
    box = rs.weight_to_root(span)
    if any(c.denominator != 1 for c in box):
        raise AssertionError("lam - w0 lam is not an integral root combination")
    out = []
    for coeffs in iproduct(*(range(int(c) + 1) for c in box)):
        nu = lam
        for i, c in enumerate(coeffs):
            if c:
                nu = nu - rs.simple_root(i + 1).scale(c)
        plus, _ = rs.dominant_representative(nu)
        if _dominance_leq(rs, plus, lam):
            out.append(nu)
    return sorted(set(out), key=lambda w: w.coords)


def _dominance_leq(rs: RootSystem, mu: Weight, lam: Weight) -> bool:
    """mu <= lam in dominance order (difference a nonnegative integer root sum)."""
    diff = rs.weight_to_root(lam - mu)
    return all(c.denominator == 1 and c >= 0 for c in diff)
