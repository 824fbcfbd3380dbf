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
from typing import Iterable, Sequence

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

    def __sub__(self, other: "Coweight") -> "Coweight":
        return Coweight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Coweight":
        return Coweight(tuple(-a for a in self.coords))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)


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
        return self.rs._inverse(self)

    def length(self) -> int:
        return self.rs._length(self)

    def word(self) -> tuple[int, ...]:
        """A shortest word in simple reflections (1-based letters)."""
        return self.rs._word(self)

    def is_identity(self) -> bool:
        return self == self.rs.identity

    def __repr__(self) -> str:
        w = self.word()
        return "e" if not w else "*".join(f"s{i}" for i in w)


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
        # fundamental-weight coordinate images of positive/negative roots
        self._neg_root_wts = frozenset(
            tuple(-c for c in self.root_to_weight(b).coords) for b in self.positive_roots
        )
        self.identity = WeylElement(
            self, tuple(tuple(1 if i == j else 0 for i in range(rank)) for j in range(rank))
        )
        self._simple = tuple(self._make_simple(i) for i in range(1, rank + 1))
        # memo tables, filled on first use so that construction stays cheap
        self._group: tuple[list[WeylElement], dict[WeylElement, tuple[int, ...]]] | None = None
        self._lengths: dict[WeylElement, int] = {}
        self._inverses: dict[WeylElement, WeylElement] = {}
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

    def pair_coroot_root(self, beta: Coweight, root: Coords) -> int:
        return self.pairing(beta, self.root_to_weight(root))

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

    def _group_tables(self) -> tuple[list[WeylElement], dict[WeylElement, tuple[int, ...]]]:
        """(the whole group in BFS order, a shortest word for each element).

        Built in locals and published by one assignment, so a concurrent caller
        sees either no tables or complete ones.
        """
        got = self._group
        if got is None:
            words = {self.identity: ()}
            lengths = {self.identity: 0}
            order = [self.identity]
            frontier = [self.identity]
            depth = 0
            while frontier:
                depth += 1
                nxt = []
                for w in frontier:
                    for i in range(1, self.rank + 1):
                        v = self._simple[i - 1] * w
                        if v not in words:
                            # prepending the letter: v = s_i * w, word built right-to-left
                            words[v] = (i,) + words[w]
                            lengths[v] = depth
                            nxt.append(v)
                nxt.sort(key=lambda u: u.cols)
                order.extend(nxt)
                frontier = nxt
            self._lengths.update(lengths)
            got = self._group = (order, words)
        return got

    def weyl_elements(self) -> list[WeylElement]:
        """The whole Weyl group, BFS order from the identity (deterministic)."""
        return self._group_tables()[0]

    def _word(self, w: WeylElement) -> tuple[int, ...]:
        return self._group_tables()[1][w]

    def _length(self, w: WeylElement) -> int:
        got = self._lengths.get(w)
        if got is None:
            got = sum(
                1
                for b in self.positive_roots
                if self.root_is_negative(w.act(self.root_to_weight(b)))
            )
            self._lengths[w] = got
        return got

    def _inverse(self, w: WeylElement) -> WeylElement:
        got = self._inverses.get(w)
        if got is None:
            # w.cols, read as the array A[j][k] = coefficient of w_k in w(w_j), is the
            # transpose of the action matrix; inverting it returns rows that are exactly
            # the coordinate vectors of w^{-1}(w_j).  Weyl matrices are unimodular.
            inv = _invert(w.cols)
            if any(x.denominator != 1 for row in inv for x in row):
                raise ValueError(f"{w.cols} is not a Weyl group element: inverse is not integral")
            got = WeylElement(self, tuple(tuple(int(x) for x in row) for row in inv))
            self._inverses[w] = got
            self._inverses[got] = w
        return got

    def longest_element(self) -> WeylElement:
        w0 = max(self.weyl_elements(), key=lambda w: w.length())
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
            i = w.word()[0]
            si = self.simple_reflection(i)
            sw = si * w
            su = si * u
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
        v = self.identity
        for i in reversed(letters):
            v = self.simple_reflection(i) * v
        if v.act(cur) != nu:
            raise AssertionError("dominant representative does not map back to the weight")
        return cur, v

    def orbit(self, lam: Weight) -> list[Weight]:
        seen = {lam}
        frontier = [lam]
        while frontier:
            mu = frontier.pop()
            for i in range(1, self.rank + 1):
                img = self._simple_reflect(i, mu)
                if img not in seen:
                    seen.add(img)
                    frontier.append(img)
        return sorted(seen, key=lambda w: w.coords)

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
    """Exact inverse of a small integer matrix."""
    n = len(mat)
    aug = [[Fraction(mat[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def build_root_system(type_label: str, rank: int) -> RootSystem:
    """Build the root system for a supported (type, rank), e.g. ('A', 2)."""
    return RootSystem(type_label, rank)


def from_name(name: str) -> RootSystem:
    """Build a root system from a compact name such as 'A2' or 'G2'."""
    name = name.strip()
    if len(name) < 2 or not name[1:].isdigit():
        raise ValueError(f"cannot parse root-system name {name!r}")
    return build_root_system(name[0].upper(), int(name[1:]))


def minimal_coset_reps(rs: RootSystem, lam: Weight) -> list[WeylElement]:
    """Minimal-length representatives of W / W_lam for a dominant weight."""
    if not lam.is_dominant():
        raise ValueError("weight must be dominant")
    stab = [i for i in range(1, rs.rank + 1) if lam.coords[i - 1] == 0]
    reps = []
    for w in rs.weyl_elements():
        ok = True
        for j in stab:
            if rs.root_is_negative(w.act(rs.simple_root(j))):
                ok = False
                break
        if ok:
            reps.append(w)
    reps.sort(key=lambda w: (w.length(), w.word()))
    return reps


def minimal_coset_representative(rs: RootSystem, w: WeylElement, lam: Weight) -> WeylElement:
    """The minimal-length element of w W_lam (so with the same image w(lam))."""
    target = w.act(lam)
    nu_plus, v = rs.dominant_representative(target)
    if nu_plus != lam:
        raise AssertionError("weight must be dominant and in the W-orbit")
    return v
