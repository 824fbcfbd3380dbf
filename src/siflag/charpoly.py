"""The character ring: exact sums of q^n e^lam, Demazure operators, exact division.

A CharPoly is a finite sum sum c * q^n e^lam with exact rational coefficients,
stored sparsely as {(weight coords, n): coefficient} with no zero entries.  A
coefficient is an int when it is integral and a Fraction otherwise, never a
float: every character the engine produces is a Z[q]-combination of e^lam, so
its arithmetic stays on ints.  The Demazure operator for every affine node
acts monomialwise through the closed finite-sum rule (never by series
division); q is e^delta and is inert under all reflections, so q-powers pass
through every operator.

A q-series in q alone, such as the freeness factor F_lam, is held as the
CharPoly of its terms through a stated q-degree, each of them exact.
"""
from __future__ import annotations

from fractions import Fraction
from operator import add, le, mul, neg, sub
from typing import Iterable, Mapping

from .rootdata import Coords, RootSystem, Weight

Key = tuple[Coords, int]
Coeff = int | Fraction
_ZERO = 0


def _exact(c: Coeff) -> Coeff:
    """The coefficient c as an int when it is integral, else as a Fraction.

    Anything else, a float included, is refused: a float is not exact.
    """
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"character coefficient must be an int or a Fraction, not {type(c).__name__}")


def _settle(terms: dict) -> dict:
    """Turn the integral Fractions that Fraction arithmetic left in terms into ints."""
    for key, c in terms.items():
        if c.__class__ is not int and c.denominator == 1:
            terms[key] = c.numerator
    return terms


def _divide(a: Coeff, b: Coeff) -> Coeff:
    """a / b exactly: an int when b divides a, else a Fraction."""
    if a.__class__ is int and b.__class__ is int:
        quo, rem = divmod(a, b)
        return Fraction(a, b) if rem else quo
    return _exact(Fraction(a) / b)


class CharPoly:
    """Finite exact element of the q-graded group algebra of the weight lattice."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Key, Coeff] | None = None):
        clean: dict[Key, Coeff] = {}
        if terms:
            for key, c in terms.items():
                c = _exact(c)
                if c:
                    clean[key] = c
        self.terms = clean

    @staticmethod
    def zero() -> "CharPoly":
        return CharPoly()

    @staticmethod
    def monomial(lam: Weight | Coords, n: int = 0, coeff: Coeff = 1) -> "CharPoly":
        wt = lam.coords if isinstance(lam, Weight) else tuple(lam)
        return CharPoly({(wt, n): coeff})

    @staticmethod
    def one(rank: int) -> "CharPoly":
        return CharPoly({((0,) * rank, 0): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, lam: Weight | Coords, n: int) -> Coeff:
        wt = lam.coords if isinstance(lam, Weight) else tuple(lam)
        return self.terms.get((wt, n), _ZERO)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CharPoly) and self.terms == other.terms

    def __add__(self, other: "CharPoly") -> "CharPoly":
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, _ZERO) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        res = CharPoly()
        res.terms = _settle(out)
        return res

    def __sub__(self, other: "CharPoly") -> "CharPoly":
        return self + (-other)

    def __neg__(self) -> "CharPoly":
        res = CharPoly()
        res.terms = {key: -c for key, c in self.terms.items()}
        return res

    def __mul__(self, other: "CharPoly") -> "CharPoly":
        out: dict[Key, Coeff] = {}
        for (w1, n1), c1 in self.terms.items():
            for (w2, n2), c2 in other.terms.items():
                key = (tuple(map(add, w1, w2)), n1 + n2)
                s = out.get(key, _ZERO) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        res = CharPoly()
        res.terms = _settle(out)
        return res

    def scale(self, c: Coeff) -> "CharPoly":
        c = _exact(c)
        res = CharPoly()
        if c:
            res.terms = _settle({key: c * v for key, v in self.terms.items()})
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

    def total_at_one(self) -> Coeff:
        """Evaluation q = 1, e^lam = 1 (the graded dimension at q = 1)."""
        return sum(self.terms.values(), _ZERO)

    def sorted_terms(self) -> list[tuple[Key, Coeff]]:
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


# the one memo of Demazure runs: (type, rank, letter) -> {weight: its run (see _run)}
_RUNS: dict[tuple[str, int, int], dict[Coords, tuple | None]] = {}


def letter_runs(rs: RootSystem, i: int) -> dict[Coords, tuple | None]:
    """D_i's memo in _RUNS for rs's type: {weight: its run}, a missing one filled by _run.

    A plain dict, so the lookup in the callers' loops stays the interpreter's
    fast path for exact dicts.
    """
    letter = (rs.type_label, rs.rank, i)
    runs = _RUNS.get(letter)
    if runs is None:
        runs = _RUNS.setdefault(letter, {})
    return runs


def _run(rs: RootSystem, i: int, wt: Coords) -> tuple | None:
    """The image of e^wt under D_i: (negated, ((weight, q shift), ...)), or None when zero.

    Let k = <alpha_i^vee, wt>, step = -alpha_i and qstep = 0 for i >= 1, or
    k = <-theta^vee, wt>, step = theta and qstep = -1 for i = 0.  By the closed
    finite-sum rule D_i(q^n e^wt) is the sum of q^{n + j qstep} e^{wt + j step}
    over 0 <= j <= k when k >= 0, minus the sum of q^{n - j qstep} e^{wt - j step}
    over 1 <= j <= -k - 1 when k <= -2, and zero at k = -1.
    """
    if i == 0:
        k = -sum(map(mul, rs.theta_coroot.coords, wt))
        step, qstep = rs.theta_weight.coords, -1
    else:
        k = wt[i - 1]
        step, qstep = tuple(map(neg, rs.simple_root(i).coords)), 0
    if k == -1:
        return None
    if k >= 0:
        cur, m, count = wt, 0, k + 1
    else:
        step, qstep = tuple(map(neg, step)), -qstep
        cur, m, count = tuple(map(add, wt, step)), qstep, -k - 1
    steps = []
    for _ in range(count):
        steps.append((cur, m))
        cur, m = tuple(map(add, cur, step)), m + qstep
    return k < 0, tuple(steps)


def demazure_op(rs: RootSystem, i: int, f: CharPoly) -> CharPoly:
    """Demazure operator D_i for i in {0, ..., rank}, by the closed finite-sum rule.

    Each weight's run of image terms (``_run``) is computed once per process,
    type and letter and kept in ``_RUNS`` (``letter_runs``); a term of f then
    costs one lookup and the coefficient adds of its run.
    """
    if not 0 <= i <= rs.rank:
        raise ValueError(f"affine index {i} out of range")
    runs = letter_runs(rs, i)
    out: dict[Key, Coeff] = {}
    get = out.get
    for (wt, n), c in f.terms.items():
        try:
            run = runs[wt]
        except KeyError:
            run = runs[wt] = _run(rs, i, wt)
        if run is None:
            continue
        negated, steps = run
        v = -c if negated else c
        for cur, m in steps:
            key = (cur, n + m)
            s = get(key, _ZERO) + v
            if s:
                out[key] = s
            else:
                del out[key]
    res = CharPoly()
    res.terms = _settle(out)
    return res


def demazure_word(rs: RootSystem, word: Iterable[int], f: CharPoly) -> CharPoly:
    """Composite D_{i_1} o ... o D_{i_l}; the last letter acts first."""
    for i in reversed(tuple(word)):
        f = demazure_op(rs, i, f)
    return f


def t_op(rs: RootSystem, i: int, f: CharPoly) -> CharPoly:
    """T_i = D_i - 1."""
    return demazure_op(rs, i, f) - f


def freeness_factor(rs: RootSystem, lam: Weight, trunc: int) -> CharPoly:
    """Hilbert series prod_i prod_{k=1}^{lam_i} (1-q^k)^{-1} through q^trunc, exact there."""
    if not lam.is_dominant():
        raise ValueError("weight must be dominant")
    rank = rs.rank
    series = CharPoly.one(rank)
    zero_wt = (0,) * rank
    for i in range(rank):
        for k in range(1, lam.coords[i] + 1):
            geom = CharPoly({(zero_wt, m): 1 for m in range(0, trunc + 1, k)})
            series = (series * geom).truncate(trunc)
    return series


def freeness_ratio(rs: RootSystem, lam: Weight, mu: Weight) -> CharPoly:
    """The polynomial F_lam / F_mu = prod_i prod_{lam_i < k <= mu_i} (1 - q^k), for lam <= mu."""
    if any(a > b for a, b in zip(lam.coords, mu.coords)):
        raise ValueError(f"{lam.coords} exceeds {mu.coords} in some coordinate")
    one = CharPoly.one(rs.rank)
    out = one
    for a, b in zip(lam.coords, mu.coords):
        for k in range(a + 1, b + 1):
            out = out * (one - CharPoly.monomial((0,) * rs.rank, k))
    return out


def exact_divide(f: CharPoly, d: CharPoly) -> CharPoly:
    """Exact quotient f / d in the character ring; raises if d does not divide f.

    The divisor's minimal term under (q-degree, weight lex) is a unit monomial,
    so greedy elimination discovers the quotient terms in increasing order,
    each one new.  Each quotient coefficient is an exact division by that
    term's coefficient: an int when it divides, else a Fraction.  By
    Ostrowski's theorem the Newton polytope of f is the Minkowski sum of those
    of the quotient and of d, so in each coordinate (q-degree and every weight
    coordinate) a quotient term lies between min(f) - min(d) and
    max(f) - max(d); a term outside that finite box proves d does not divide f,
    and so the elimination ends.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero character")
    if f.is_zero():
        return CharPoly.zero()
    (f_wts, f_qs), (d_wts, d_qs) = zip(*f.terms), zip(*d.terms)
    q_lo, q_hi = min(f_qs) - min(d_qs), max(f_qs) - max(d_qs)
    f_cols, d_cols = list(zip(*f_wts)), list(zip(*d_wts))
    w_lo = list(map(sub, map(min, f_cols), map(min, d_cols)))
    w_hi = list(map(sub, map(max, f_cols), map(max, d_cols)))
    d_min = min(d.terms, key=lambda k: (k[1], k[0]))
    d_min_coeff = d.terms[d_min]
    rem = dict(f.terms)
    quo: dict[Key, Coeff] = {}
    while rem:
        m = min(rem, key=lambda k: (k[1], k[0]))
        wt, n = tuple(map(sub, m[0], d_min[0])), m[1] - d_min[1]
        if not (q_lo <= n <= q_hi and all(map(le, w_lo, wt)) and all(map(le, wt, w_hi))):
            raise ValueError("nonzero remainder: divisor does not divide")
        c = _divide(rem[m], d_min_coeff)
        quo[wt, n] = c
        for (d_wt, d_n), dc in d.terms.items():
            key = (tuple(map(add, wt, d_wt)), n + d_n)
            s = rem.get(key, _ZERO) - c * dc
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    res = CharPoly()
    res.terms = _settle(quo)
    return res
