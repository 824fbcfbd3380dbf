"""The character ring: exact sums of q^n e^lam, Demazure operators, q-series truncations.

A CharPoly is a finite sum sum c * q^n e^lam with exact rational coefficients,
stored sparsely as {(weight coords, n): Fraction} with no zero entries.  The
Demazure operator for every affine node acts monomialwise through the closed
finite-sum rule (never by series division); q is e^delta and is inert under all
reflections, so q-powers pass through every operator.

A CharSeries is a CharPoly truncated at q-order N together with a validity
watermark V <= N: coefficients in degrees <= V are certified exact, degrees
above V may have been polluted by truncation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .rootdata import Coords, RootSystem, Weight

Key = tuple[Coords, int]
_ZERO = Fraction(0)


class CharPoly:
    """Finite exact element of the q-graded group algebra of the weight lattice."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Key, Fraction] | None = None):
        clean: dict[Key, Fraction] = {}
        if terms:
            for key, c in terms.items():
                if c:
                    clean[key] = Fraction(c)
        self.terms = clean

    @staticmethod
    def zero() -> "CharPoly":
        return CharPoly()

    @staticmethod
    def monomial(lam: Weight | Coords, n: int = 0, coeff: Fraction | int = 1) -> "CharPoly":
        wt = lam.coords if isinstance(lam, Weight) else tuple(lam)
        return CharPoly({(wt, n): Fraction(coeff)})

    @staticmethod
    def one(rank: int) -> "CharPoly":
        return CharPoly({((0,) * rank, 0): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, lam: Weight | Coords, n: int) -> Fraction:
        wt = lam.coords if isinstance(lam, Weight) else tuple(lam)
        return self.terms.get((wt, n), _ZERO)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CharPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "CharPoly") -> "CharPoly":
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, _ZERO) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        res = CharPoly()
        res.terms = out
        return res

    def __sub__(self, other: "CharPoly") -> "CharPoly":
        return self + (-other)

    def __neg__(self) -> "CharPoly":
        res = CharPoly()
        res.terms = {key: -c for key, c in self.terms.items()}
        return res

    def __mul__(self, other: "CharPoly") -> "CharPoly":
        out: dict[Key, Fraction] = {}
        for (w1, n1), c1 in self.terms.items():
            for (w2, n2), c2 in other.terms.items():
                key = (tuple(a + b for a, b in zip(w1, w2)), n1 + n2)
                s = out.get(key, _ZERO) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        res = CharPoly()
        res.terms = out
        return res

    def scale(self, c: Fraction | int) -> "CharPoly":
        c = Fraction(c)
        res = CharPoly()
        if c:
            res.terms = {key: c * v for key, v in self.terms.items()}
        return res

    def shift_q(self, m: int) -> "CharPoly":
        res = CharPoly()
        res.terms = {(wt, n + m): c for (wt, n), c in self.terms.items()}
        return res

    def bar(self) -> "CharPoly":
        """The involution e^lam -> e^{-lam}, fixing q."""
        res = CharPoly()
        res.terms = {(tuple(-a for a in wt), n): c for (wt, n), c in self.terms.items()}
        return res

    def q_min(self) -> int:
        return min(n for (_, n) in self.terms)

    def q_max(self) -> int:
        return max(n for (_, n) in self.terms)

    def weights(self) -> set[Coords]:
        return {wt for (wt, _) in self.terms}

    def total_at_one(self) -> Fraction:
        """Evaluation q = 1, e^lam = 1 (the graded dimension at q = 1)."""
        return sum(self.terms.values(), _ZERO)

    def sorted_terms(self) -> list[tuple[Key, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    def truncate(self, n_max: int) -> "CharPoly":
        res = CharPoly()
        res.terms = {key: c for key, c in self.terms.items() if key[1] <= n_max}
        return res

    def first_discrepancy(self, other: "CharPoly"):
        """First differing (key, coeff, coeff) in (q-degree, weight) order, or None."""
        if self.terms == other.terms:
            return None
        for key in sorted(self.terms.keys() | other.terms.keys(), key=lambda k: (k[1], k[0])):
            a, b = self.terms.get(key, _ZERO), other.terms.get(key, _ZERO)
            if a != b:
                return key, a, b

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (wt, n), c in self.sorted_terms():
            bits.append(f"{c}*q^{n}*e{list(wt)}")
        return " + ".join(bits)


def demazure_monomial(rs: RootSystem, i: int, wt: Coords, n: int) -> list[tuple[Key, int]]:
    """Image keys of D_i(q^n e^wt) with sign, by the closed finite-sum rule."""
    if i == 0:
        k = -sum(t * a for t, a in zip(rs.theta_coroot.coords, wt))
        step = rs.theta_weight.coords
        qstep = -1
    else:
        k = wt[i - 1]
        step = tuple(-c for c in rs.simple_root(i).coords)
        qstep = 0
    out: list[tuple[Key, int]] = []
    if k >= 0:
        for j in range(k + 1):
            out.append(((tuple(w + j * s for w, s in zip(wt, step)), n + j * qstep), 1))
    elif k <= -2:
        for j in range(1, -k):
            out.append(((tuple(w - j * s for w, s in zip(wt, step)), n - j * qstep), -1))
    return out


def demazure_op(rs: RootSystem, i: int, f):
    """Demazure operator D_i for i in {0, ..., rank}, on a CharPoly or CharSeries."""
    if isinstance(f, CharSeries):
        return f._apply_demazure(rs, i)
    if not 0 <= i <= rs.rank:
        raise ValueError(f"affine index {i} out of range")
    out: dict[Key, Fraction] = {}
    for (wt, n), c in f.terms.items():
        for key, sign in demazure_monomial(rs, i, wt, n):
            s = out.get(key, _ZERO) + (c if sign > 0 else -c)
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    res = CharPoly()
    res.terms = out
    return res


def demazure_word(rs: RootSystem, word: Iterable[int], f):
    """Composite D_{i_1} o ... o D_{i_l}; the last letter acts first."""
    for i in reversed(tuple(word)):
        f = demazure_op(rs, i, f)
    return f


def t_op(rs: RootSystem, i: int, f):
    """T_i = D_i - 1."""
    return demazure_op(rs, i, f) - f


@dataclass
class CharSeries:
    """A CharPoly truncated at q-order N, exact on all degrees <= V."""

    poly: CharPoly
    trunc: int
    watermark: int

    @staticmethod
    def from_poly(p: CharPoly, trunc: int, watermark: int | None = None) -> "CharSeries":
        v = trunc if watermark is None else watermark
        return CharSeries(p.truncate(trunc), trunc, v)

    def __add__(self, other: "CharSeries") -> "CharSeries":
        n = min(self.trunc, other.trunc)
        return CharSeries((self.poly + other.poly).truncate(n), n,
                          min(self.watermark, other.watermark))

    def __sub__(self, other: "CharSeries") -> "CharSeries":
        return self + CharSeries(-other.poly, other.trunc, other.watermark)

    def scale(self, c) -> "CharSeries":
        return CharSeries(self.poly.scale(c), self.trunc, self.watermark)

    def mul_poly(self, p: CharPoly) -> "CharSeries":
        """Multiply by an exact polynomial; validity shifts with its lowest q-degree."""
        if p.is_zero():
            return CharSeries(CharPoly.zero(), self.trunc, self.trunc)
        v = self.watermark + p.q_min()
        return CharSeries((self.poly * p).truncate(self.trunc), self.trunc, v)

    def __mul__(self, other: "CharSeries") -> "CharSeries":
        n = min(self.trunc, other.trunc)
        if self.poly.is_zero() or other.poly.is_zero():
            return CharSeries(CharPoly.zero(), n, min(self.watermark, other.watermark))
        v = min(self.watermark + other.poly.q_min(), other.watermark + self.poly.q_min())
        return CharSeries((self.poly * other.poly).truncate(n), n, v)

    def shift_q(self, m: int) -> "CharSeries":
        return CharSeries(self.poly.shift_q(m), self.trunc + m, self.watermark + m)

    def _apply_demazure(self, rs: RootSystem, i: int) -> "CharSeries":
        v = self.watermark
        if i == 0 and self.poly.terms:
            # terms above the watermark can shift down by up to <theta^vee, nu>
            drop = max(
                sum(t * a for t, a in zip(rs.theta_coroot.coords, wt))
                for (wt, _) in self.poly.terms
            )
            v -= max(0, drop)
        inner = demazure_op(rs, i, self.poly)
        return CharSeries(inner.truncate(self.trunc), self.trunc, v)

    def equal_upto_watermark(self, other: "CharSeries") -> bool:
        v = min(self.watermark, other.watermark)
        return self.poly.truncate(v) == other.poly.truncate(v)

    def first_discrepancy(self, other: "CharSeries"):
        """First differing (key, coeff, coeff) on certified degrees, or None."""
        v = min(self.watermark, other.watermark)
        return self.poly.truncate(v).first_discrepancy(other.poly.truncate(v))


def freeness_factor(rs: RootSystem, lam: Weight, trunc: int) -> CharSeries:
    """Hilbert series prod_i prod_{k=1}^{lam_i} (1-q^k)^{-1}, truncated at q-order trunc."""
    if not lam.is_dominant():
        raise ValueError("weight must be dominant")
    rank = rs.rank
    series = CharPoly.one(rank)
    zero_wt = (0,) * rank
    for i in range(rank):
        for k in range(1, lam.coords[i] + 1):
            geom = CharPoly({(zero_wt, m): Fraction(1) for m in range(0, trunc + 1, k)})
            series = (series * geom).truncate(trunc)
    return CharSeries(series, trunc, trunc)


def exact_divide(f: CharPoly, d: CharPoly) -> CharPoly:
    """Exact quotient f / d in the character ring; raises if d does not divide f.

    The divisor's minimal term under (q-degree, weight lex) is a unit monomial,
    so greedy elimination discovers the quotient terms in increasing order.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero character")
    if f.is_zero():
        return CharPoly.zero()
    d_keys = sorted(d.terms, key=lambda k: (k[1], k[0]))
    d_min = d_keys[0]
    d_min_coeff = d.terms[d_min]
    q_bound = f.q_max() - d.q_max()
    rem = dict(f.terms)
    quo: dict[Key, Fraction] = {}
    max_steps = 4 * (len(f.terms) + 4) * (len(d.terms) + 4) + 4 * (f.q_max() - f.q_min() + 2)
    for _ in range(max_steps):
        if not rem:
            res = CharPoly()
            res.terms = quo
            return res
        m = min(rem, key=lambda k: (k[1], k[0]))
        t = (tuple(a - b for a, b in zip(m[0], d_min[0])), m[1] - d_min[1])
        if t[1] > q_bound:
            raise ValueError("nonzero remainder: divisor does not divide")
        c = rem[m] / d_min_coeff
        quo[t] = quo.get(t, _ZERO) + c
        for key, dc in d.terms.items():
            kk = (tuple(a + b for a, b in zip(t[0], key[0])), t[1] + key[1])
            s = rem.get(kk, _ZERO) - c * dc
            if s:
                rem[kk] = s
            else:
                rem.pop(kk, None)
    raise ValueError("nonzero remainder: divisor does not divide")
