"""E_gamma(q, t) exactly, as an eigenvector of Cherednik's operator Y.

The nonsymmetric Macdonald polynomials are the joint eigenvectors of
Cherednik's commuting operators Y^beta (Cherednik, IMRN 1995; Macdonald,
*Affine Hecke algebras and orthogonal polynomials*, 2003).  This module uses
one of them, Y = T_{i_1} ... T_{i_l}, for (i_1 ... i_l) the reduced word
``affine.translation_word`` gives for the translation by 2 rho^vee, the sum
of the positive coroots.  The Demazure-Lusztig operators are

    T_i = t s_i + (t - 1)(1 - s_i) / (1 - e^{alpha_i}) = t s_i + (t - 1)(1 - D_i),

with D_i the Demazure operator of ``charpoly``, read off its memoised runs
(``charpoly.letter_runs``), and s_0 the level-zero action of
``affine.s0_action`` (alpha_0 = delta - theta, e^delta = q).  Y is triangular
on gamma's order ideal (``macdonald.triangular_order_ideal``) with a monomial
q^a t^b on the diagonal, and E_gamma, monic at gamma, solves Y E = y_gamma E.
So it comes by back-substitution, with no density, truncation order or Pade
step; the tests check it against the Gram-Schmidt oracle
(``macdonald.gram_schmidt_E``).  The solve checks by explicit raises, which
``python -O`` keeps, that every Y e^nu lies on nu and on the members listed
before it, that every diagonal entry is a monomial, and that no other member
shares gamma's eigenvalue, so that the eigenvector is unique.

Each coefficient is kept as a fraction whose denominator is a multiset of
irreducible factors known in advance: q, t, and the pieces of the gaps
y_gamma - y_nu.  Such a gap is +-q^a t^b (x^g - y^g) for coprime monomials x,
y, and x^g - y^g is the product over d | g of the homogenised cyclotomic
polynomials Phi_d(x, y), each irreducible in Z[q, t] (x / y is q^u t^v with
gcd(u, v) = 1, a unit change of variables away from Phi_d(z)).  So a common
denominator is an lcm taken by counting, and a fraction is reduced by exact
trial division of its numerator by each factor (``Poly.__floordiv__``); the
solve never runs the bivariate gcd ``qt.p_gcd``.  Numerators are summed and
multiplied by Kronecker substitution, as integers (see _sum_of_products).
"""
from __future__ import annotations

import functools
from math import gcd

from .affine import translation_word
from .charpoly import _run, letter_runs
from .macdonald import EPoly, _exact_width, _unpack, oracle_scope, triangular_order_ideal
from .qt import Poly, QTRat, _ONE
from .rootdata import Coweight, RootSystem, Weight


def cherednik_E(rs: RootSystem, gamma: Weight) -> EPoly:
    """E_gamma: the eigenvector of Y on gamma's order ideal, monic at gamma.

    Its coefficients name every member of the strict ideal, zeros included,
    as ``gram_schmidt_E``'s do.
    """
    oracle_scope(rs)
    members = triangular_order_ideal(rs, gamma)
    rows, diagonal = _y_matrix(rs, members)
    top = len(members) - 1
    y_gamma = diagonal[top]
    coeffs: list = [None] * top + [_Factored.one()]
    for j in range(top - 1, -1, -1):
        if diagonal[j] == y_gamma:
            raise AssertionError(f"Y has gamma's eigenvalue at {members[j].coords} too")
        parts = [(entry, coeffs[k]) for k, entry in rows[j].items() if k > j and coeffs[k].num]
        coeffs[j] = _Factored.combine(parts, _gap_factors(y_gamma, diagonal[j]))
    return EPoly(gamma, {nu: c.value() for nu, c in zip(members, coeffs)})


# -- the operator Y ---------------------------------------------------------------


def two_rho_coroot(rs: RootSystem) -> Coweight:
    """2 rho^vee, the sum of the positive coroots, in simple-coroot coordinates."""
    total = Coweight((0,) * rs.rank)
    for beta in rs.positive_roots:
        total = total + rs.coroot(beta)
    return total


def _y_matrix(rs: RootSystem, members: list[Weight]) -> tuple[list[dict], list[tuple]]:
    """Y on the members, by rows: ([{column: entry}], [diagonal (a, b) of q^a t^b]).

    Column j is Y e^{members[j]}; it must lie on members[j] and the members
    listed before it, with a monomial q^a t^b of coefficient 1 at members[j].
    Entries are Polys in q over Z[t], every one multiplied by the same power
    of q so that none has a negative q-degree (an eigenvector of q^s Y is one
    of Y).
    """
    word = translation_word(rs, two_rho_coroot(rs))
    index = {nu.coords: j for j, nu in enumerate(members)}
    columns = []
    for j, nu in enumerate(members):
        column: dict = {}
        for (coords, n), tp in _apply_y(rs, word, nu.coords).items():
            i = index.get(coords)
            if i is None or i > j:
                raise AssertionError(
                    f"Y e^{nu.coords} has a term at {coords}, which is not listed before it")
            column.setdefault(i, {})[n] = tp
        diag = column.get(j, {})
        if len(diag) != 1 or any(len(tp) != 1 or 1 not in tp.values() for tp in diag.values()):
            raise AssertionError(f"the diagonal entry of Y at {nu.coords} is not a monomial q^a t^b")
        columns.append(column)
    shift = max(0, -min(n for column in columns for entry in column.values() for n in entry))
    rows: list[dict] = [{} for _ in members]
    diagonal = []
    for j, column in enumerate(columns):
        for i, entry in column.items():
            rows[i][j] = Poly({n + shift: tp for n, tp in entry.items()})
        (n, tp), = column[j].items()
        diagonal.append((n + shift, next(iter(tp))))
    return rows, diagonal


def _apply_y(rs: RootSystem, word, coords) -> dict:
    """Y e^coords as {(weight coords, q-degree): t-polynomial}; the word's last letter acts first.

    Run twice, as macdonald's stages are (see macdonald._on_packed): first
    with every t-polynomial at t = 1 and every sign made plus, which bounds
    each coefficient it stands for, then packed at t = 2^B, B from those
    bounds, and decoded.
    """
    runs = [letter_runs(rs, i) for i in range(rs.rank + 1)]

    def run(bits):
        terms = {(coords, 0): 1}
        for i in reversed(word):
            terms = _apply_t(rs, i, runs[i], terms, bits)
        return terms

    bits = _exact_width(max(run(None).values()))
    return {key: _unpack(packed, bits) for key, packed in run(bits).items()}


def _apply_t(rs: RootSystem, i: int, runs: dict, terms: dict, bits: int | None) -> dict:
    """T_i on {(weight coords, q-degree): t-polynomial packed at t = 2^bits}.

    T_i e^wt = t s_i e^wt + (t - 1)(e^wt - D_i e^wt), for D_i e^wt the run
    charpoly keeps for it, and s_i e^wt = q^m e^{s_i wt}, m = <theta^vee, wt>
    at i = 0 (affine.s0_action) and 0 otherwise.  At k = <alpha_i^vee, wt>
    >= 0 the run goes from e^wt to s_i e^wt, so T_i e^wt is t e^wt at k = 0
    and otherwise s_i e^wt minus (t - 1) times the run's inner terms.  At
    k = -1 the run is empty and at k <= -2 negated, so T_i e^wt is
    t s_i e^wt plus (t - 1) times e^wt and the run's terms.  With bits None,
    every t-polynomial stands at t = 1 with its signs made plus, so each
    image value bounds the coefficients of the value it stands for.
    """
    if i == 0:
        pair, step = rs.theta_coroot.coords, rs.theta_weight.coords
    else:
        pair, step = None, rs.simple_root(i).coords
    out: dict = {}
    get = out.get

    def add(key, v):
        s = get(key, 0) + v
        if s:
            out[key] = s
        else:
            del out[key]

    for (wt, n), c in terms.items():
        if bits is None:
            tc, tm = c, 2 * c
        else:
            tc = c << bits
            tm = tc - c
        try:
            run = runs[wt]
        except KeyError:
            run = runs[wt] = _run(rs, i, wt)
        if run is not None and not run[0]:
            steps = run[1]
            if len(steps) == 1:
                add((wt, n), tc)
                continue
            cur, m = steps[-1]
            add((cur, n + m), c)
            if bits is not None:
                tm = -tm
            for cur, m in steps[1:-1]:
                add((cur, n + m), tm)
            continue
        if pair is None:
            k = wt[i - 1]
            add((tuple(x - k * a for x, a in zip(wt, step)), n), tc)
        else:
            m = sum(x * a for x, a in zip(wt, pair))
            add((tuple(x - m * a for x, a in zip(wt, step)), n + m), tc)
        add((wt, n), tm)
        if run is not None:
            for cur, m in run[1]:
                add((cur, n + m), tm)
    return out


# -- fractions over a multiset of known irreducible factors -------------------------


class _Factored:
    """num / (q^qa t^tb prod_key Phi_key^m), num a Poly in q over Z[t], phis {key: m}.

    A key (d, u, v) stands for the homogenised cyclotomic polynomial
    Phi_d(x, y) with x / y = q^u t^v, (u, v) lexicographically positive and
    gcd(u, v) = 1: an irreducible element of Z[q, t] with a positive leading
    coefficient (see _phi).
    """

    __slots__ = ("num", "qa", "tb", "phis")

    def __init__(self, num: Poly, qa: int, tb: int, phis: dict):
        self.num, self.qa, self.tb, self.phis = num, qa, tb, phis

    @staticmethod
    def one() -> _Factored:
        return _Factored(_ONE, 0, 0, {})

    @staticmethod
    def combine(parts, gap) -> _Factored:
        """(sum of entry * fraction over parts) / gap, reduced; gap as _gap_factors gives it."""
        if not parts:
            return _Factored(Poly(), 0, 0, {})
        qa = max(c.qa for _, c in parts)
        tb = max(c.tb for _, c in parts)
        phis: dict = {}
        for _, c in parts:
            for key, m in c.phis.items():
                if m > phis.get(key, 0):
                    phis[key] = m
        num = _sum_of_products(
            (qa - c.qa, tb - c.tb,
             [(entry, 1), (c.num, 1)] + [(_phi(key), m - c.phis.get(key, 0)) for key, m in phis.items()])
            for entry, c in parts)
        sign, ga, gb, keys = gap
        if sign < 0:
            num = -num
        for key in keys:
            phis[key] = phis.get(key, 0) + 1
        return _Factored(num, qa + ga, tb + gb, phis).reduced()

    def reduced(self) -> _Factored:
        """The same value with no factor of the denominator left dividing the numerator.

        The factors are irreducible and the numerator's q- and t-valuations
        are read off directly, so this is the reduced form.
        """
        num = self.num
        if not num:
            return _Factored(num, 0, 0, {})
        qa = min(self.qa, min(num))
        tb = min(self.tb, min(min(tp) for tp in num.values()))
        num = _monomial_times(num, -qa, -tb)
        phis = {}
        for key, m in self.phis.items():
            f = _phi(key)
            while m:
                try:
                    num = num // f
                except ValueError:
                    break
                m -= 1
            if m:
                phis[key] = m
        return _Factored(num, self.qa - qa, self.tb - tb, phis)

    def value(self) -> QTRat:
        """The fraction as a QTRat, in its canonical form (the denominator's lead positive)."""
        den = _sum_of_products([(self.qa, self.tb, [(_phi(key), m) for key, m in self.phis.items()])])
        return QTRat._coprime(self.num, den)


def _monomial_times(p: Poly, qa: int, tb: int) -> Poly:
    """p q^qa t^tb, for shifts that keep every degree nonnegative."""
    if not qa and not tb:
        return p
    return Poly({n + qa: Poly({d + tb: c for d, c in tp.items()}) for n, tp in p.items()})


def _sum_of_products(rows) -> Poly:
    """sum over rows (a, b, factors) of q^a t^b prod f^e over factors (f, e), by Kronecker substitution.

    Each f is a Poly in q over Z[t], nonzero.  Every f is evaluated at
    t = 2^B and q = 2^(B W), a ring homomorphism to the integers, so the sum
    costs integer products only.  W exceeds the t-degree of every row's
    product and the sum of the rows' L1 norms (each at most the product of
    its factors' L1 norms, the L1 norm being submultiplicative) bounds every
    coefficient, so with B one bit wider than that bound the integer is the
    value of one polynomial only, and macdonald._unpack reads it back.
    """
    rows = [(a, b, [(f, e) for f, e in factors if e]) for a, b, factors in rows]
    bound = tdeg = 0
    for _, b, factors in rows:
        l1 = 1
        for f, e in factors:
            l1 *= _l1(f) ** e
        bound += l1
        tdeg = max(tdeg, b + sum(e * max(max(tp) for tp in f.values()) for f, e in factors))
    bits = _exact_width(bound)
    slots = tdeg + 1
    total = 0
    for a, b, factors in rows:
        x = 1 << (bits * (slots * a + b))
        for f, e in factors:
            x *= sum(c << (bits * (slots * n + d)) for n, tp in f.items() for d, c in tp.items()) ** e
        total += x
    terms: dict = {}
    for k, c in _unpack(total, bits).items():
        n, d = divmod(k, slots)
        terms.setdefault(n, {})[d] = c
    return Poly({n: Poly(tp) for n, tp in terms.items()})


def _l1(p: Poly) -> int:
    """The sum of the absolute values of the coefficients of p in Z[q, t]."""
    return sum(abs(c) for tp in p.values() for c in tp.values())


def _gap_factors(y_gamma: tuple, y_nu: tuple) -> tuple:
    """q^a t^b - q^c t^d, two distinct monomials, as (sign, e, f, keys) = sign q^e t^f prod_keys Phi_key.

    Factor out q^min(a, c) t^min(b, d); what is left is x^g - y^g, or its
    negative, for coprime monomials x, y with x / y = q^u t^v, (u, v)
    lexicographically positive and g = gcd of the exponent differences, and
    x^g - y^g is the product of Phi_k(x, y) over the divisors k of g.
    """
    (a, b), (c, d) = y_gamma, y_nu
    u, v = a - c, b - d
    sign = 1
    if u < 0 or (u == 0 and v < 0):
        u, v, sign = -u, -v, -1
    g = gcd(u, v)
    keys = tuple((k, u // g, v // g) for k in range(1, g + 1) if g % k == 0)
    return sign, min(a, c), min(b, d), keys


@functools.cache
def _cyclotomic(n: int) -> Poly:
    """Phi_n(z) as a Poly in z over Z, by exact division of z^n - 1."""
    out = Poly({0: -1, n: 1})
    for d in range(1, n):
        if n % d == 0:
            out = out // _cyclotomic(d)
    return out


@functools.cache
def _phi(key: tuple) -> Poly:
    """Phi_d(x, y) = sum_k c_k x^k y^(phi(d) - k) as a Poly in q over Z[t], for key (d, u, v)."""
    d, u, v = key
    coeffs = _cyclotomic(d)
    top = max(coeffs)
    x, y = (max(u, 0), max(v, 0)), (max(-u, 0), max(-v, 0))
    terms: dict = {}
    for k, c in coeffs.items():
        terms.setdefault(k * x[0] + (top - k) * y[0], {})[k * x[1] + (top - k) * y[1]] = c
    return Poly({n: Poly(tp) for n, tp in terms.items()})
