"""E_gamma(q, t) exactly, by intertwiner steps from e^omega.

The nonsymmetric Macdonald polynomials are the joint eigenvectors of
Cherednik's commuting operators Y^beta.  The intertwiners of the double
affine Hecke algebra step from one E to the next with no linear solve and
need no simple spectrum (Cherednik, IMRN 1995; Knop, J. reine angew. Math.
1997; Macdonald, *Affine Hecke algebras and orthogonal polynomials*, 2003).
They are built from the Demazure-Lusztig operators, i = 1..rank,

    T_i = t s_i + (t - 1)(1 - s_i) / (1 - e^{alpha_i}) = t s_i + (t - 1)(1 - D_i),

D_i read off charpoly's memoised runs (``letter_runs``).  Let 2 rho_gamma be
the sum over alpha > 0 of eps_alpha alpha, eps_alpha = +1 if
<gamma, alpha^vee> > 0 and -1 otherwise.

* Finite step.  At gamma with k = <gamma, alpha_i^vee> > 0,
  E_{s_i gamma} = T_i E_gamma - (t - 1) / (1 - r) E_gamma, where
  r = q^k t^{<rho_gamma, alpha_i^vee>}.
* Affine step.  theta_s is the highest short root (theta in ADE); its coroot
  is the highest coroot.  At gamma with m = <gamma, theta_s^vee> <= 0,
  e^{theta_s} T_{s_theta_s} E_gamma - (t - 1) t^d r / (1 - r) E_gamma = b E_{gamma'},
  where gamma' = s_theta_s gamma + theta_s, r = q^{1 - m} t^{-<rho_gamma, theta_s^vee>}
  and d = (l(s_theta_s) - 1) / 2.  T_{s_theta_s} runs along a reduced word,
  last letter first, and b is a monomial read off at gamma'.
* Path.  Walk down from gamma and repeat: at the first negative coordinate
  i, undo a finite step (gamma <- s_i gamma); with none, and
  <gamma, theta_s^vee> >= 2, undo an affine step
  (gamma <- s_theta_s (gamma - theta_s)).  The walk stops at 0 or a
  minuscule weight omega, E_omega = e^omega, and the steps run in reverse.

Each step divides by the monomial at its new weight (1 at a finite step) and
checks by explicit raises, which ``python -O`` keeps, that it is a monomial
+-q^a t^b and that every term lies in gamma's order ideal.  The tests check
the result against the Gram-Schmidt oracle (``macdonald.gram_schmidt_E``).

A coefficient's denominator is a multiset of irreducible factors known in
advance: q, t, and the pieces of each step's 1 - r, which times a power of t
is +-q^a t^b (x^g - y^g) for coprime monomials x, y with x / y = q^u t^v,
gcd(u, v) = 1: the product over d | g of the homogenised cyclotomic
polynomials Phi_d(x, y), each irreducible in Z[q, t] (a unit change of
variables away from Phi_d(z)).  So a common denominator is an lcm taken by
counting, and a fraction is reduced by exact trial division by each factor,
skipped where _on_binomial shows that x - y does not divide; nothing runs
the bivariate gcd ``qt.p_gcd``.  Numerators are summed and multiplied by
Kronecker substitution, as integers (see _sum_of_products).
"""
from __future__ import annotations

import functools
from math import gcd

from .charpoly import _run, letter_runs
from .macdonald import EPoly, _exact_width, _unpack, oracle_scope, triangular_order_ideal
from .qt import Poly, QTRat, _ONE, _T_ONE
from .rootdata import RootSystem, Weight


def cherednik_E(rs: RootSystem, gamma: Weight) -> EPoly:
    """E_gamma by intertwiner steps from e^omega, monic at gamma.

    Its coefficients name every member of the strict ideal, zeros included,
    as ``gram_schmidt_E``'s do.
    """
    oracle_scope(rs)
    members = triangular_order_ideal(rs, gamma)
    ideal = {nu.coords for nu in members}
    path = _Path(rs)
    omega, steps = path.walk(gamma.coords)
    coeffs = {omega: _Factored(_ONE, 0, 0, {})}
    for i, at in steps:
        coeffs = path.step(i, at, coeffs, ideal)
    zero = _Factored(Poly(), 0, 0, {})
    return EPoly(gamma, {nu: coeffs.get(nu.coords, zero).value() for nu in members})


# -- the intertwiner path ---------------------------------------------------------


_T = Poly({1: 1})
_T_MINUS_ONE = Poly({0: -1, 1: 1})
_ONE_MINUS_T = Poly({0: 1, 1: -1})


class _Path:
    """The steps of the module docstring in one root system."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.roots = [(rs.root_to_weight(beta).coords, rs.coroot(beta).coords)
                      for beta in rs.positive_roots]
        # (root, coroot) of each letter: theta_s at 0, the root whose coroot is highest
        self.letters = [max(self.roots, key=lambda root: sum(root[1]))] + [
            (rs.simple_root(i).coords, rs.simple_coroot(i).coords) for i in range(1, rs.rank + 1)]
        # rho is regular, so s_theta_s is the one v with v(rho) = s_theta_s rho
        (theta_s, theta_s_vee), rho = self.letters[0], (1,) * rs.rank
        s_rho = _shift(rho, theta_s, -_dot(rho, theta_s_vee))
        self.word = rs.dominant_representative(Weight(s_rho))[1].word()

    def move(self, i: int, wt: tuple) -> tuple:
        """s_i wt, or s_theta_s wt + theta_s = s_theta_s (wt - theta_s) at i = 0: each undoes itself."""
        root, coroot = self.letters[i]
        return _shift(wt, root, (0 if i else 1) - _dot(wt, coroot))

    def walk(self, gamma: tuple) -> tuple[tuple, list]:
        """(omega, [(letter, weight it acts at)]), the steps up to gamma in order; letter 0 is affine."""
        steps = []
        while True:
            i = next((i for i, c in enumerate(gamma, 1) if c < 0), 0)
            if not i and _dot(gamma, self.letters[0][1]) < 2:
                return gamma, steps[::-1]
            gamma = self.move(i, gamma)
            steps.append((i, gamma))

    def step(self, i: int, gamma: tuple, coeffs: dict, ideal: set) -> dict:
        """The coefficients of the E one step above E_gamma's: by letter i, affine at 0."""
        root, coroot = self.letters[i]
        m = _dot(gamma, coroot)
        rho = sum(_dot(wt, coroot) * (1 if _dot(gamma, vee) > 0 else -1)
                  for wt, vee in self.roots) // 2
        new = self.move(i, gamma)
        if i:
            r, x = (m, rho), (0, 0)
        else:
            r, x = (1 - m, -rho), (1 - m, (len(self.word) - 1) // 2 - rho)
        # with t^s (1 - r) = sign q^ga t^gb prod Phi, s making every exponent
        # nonnegative, minus c / (q^ga t^gb prod Phi) = -(t - 1) q^x0 t^x1 / (1 - r) c
        s = max(0, -r[1], -x[1])
        sign, ga, gb, keys = _gap_factors((0, s), (r[0], r[1] + s))
        minus = Poly({x[0]: Poly({x[1] + s: sign, x[1] + s + 1: -sign})})
        parts: dict = {}
        for nu, c in coeffs.items():
            for mu, tp in self.image(i, nu).items():
                parts.setdefault(mu, []).append((Poly({0: tp}), c))
            phis = {**c.phis, **{key: c.phis.get(key, 0) + 1 for key in keys}}
            parts.setdefault(nu, []).append((minus, _Factored(c.num, c.qa + ga, c.tb + gb, phis)))
        lead = _Factored.combine(parts.pop(new, []), (1, 0, 0))
        b = lead.monomial()
        if b is None:
            raise AssertionError(f"the step to {new} leads with {lead.value()!r}, not a monomial q^a t^b")
        out = {mu: _Factored.combine(ps, b) for mu, ps in parts.items()}
        out = {new: _Factored(_ONE, 0, 0, {}), **{mu: c for mu, c in out.items() if c.num}}
        stray = sorted(set(out) - ideal)
        if stray:
            raise AssertionError(f"the step to {new} has a term at {stray[0]}, outside gamma's order ideal")
        return out

    def image(self, i: int, wt: tuple) -> dict:
        """T_i e^wt, or e^{theta_s} T_{s_theta_s} e^wt at i = 0, as {weight: t-polynomial}."""
        if i:
            return self.t_image(i, wt)
        terms = {wt: _T_ONE}
        for j in reversed(self.word):
            out: dict = {}
            for nu, tp in terms.items():
                for mu, c in self.t_image(j, nu).items():
                    out[mu] = out.get(mu, Poly()) + tp * c
            terms = out
        return {_shift(mu, self.letters[0][0], 1): tp for mu, tp in terms.items() if tp}

    def t_image(self, i: int, wt: tuple) -> dict:
        """T_i e^wt = t s_i e^wt + (t - 1)(e^wt - D_i e^wt) as {weight: t-polynomial}, i >= 1.

        With k = <alpha_i^vee, wt>: t e^wt at k = 0; at k > 0, where D_i's run
        (charpoly._run) goes from e^wt to s_i e^wt, s_i e^wt minus (t - 1) times
        the inner terms; at k < 0, where it is empty or negated, t s_i e^wt plus
        (t - 1) times e^wt and the run.
        """
        runs = letter_runs(self.rs, i)
        run = runs[wt] if wt in runs else runs.setdefault(wt, _run(self.rs, i, wt))
        k = wt[i - 1]
        if k == 0:
            return {wt: _T}
        s_wt = self.move(i, wt)
        if k > 0:
            return {**{cur: _ONE_MINUS_T for cur, _ in run[1][1:-1]}, s_wt: _T_ONE}
        return {**{cur: _T_MINUS_ONE for cur, _ in (run[1] if run else ())},
                wt: _T_MINUS_ONE, s_wt: _T}


def _dot(a: tuple, b: tuple) -> int:
    return sum(x * y for x, y in zip(a, b))


def _shift(wt: tuple, root: tuple, times: int) -> tuple:
    return tuple(x + times * a for x, a in zip(wt, root))


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
    def combine(parts, monomial) -> _Factored:
        """(sum of entry * fraction over parts) / (sign q^a t^b), reduced, for monomial (sign, a, b)."""
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
        sign, a, b = monomial
        return _Factored(-num if sign < 0 else num, qa + a, tb + b, phis).reduced()

    def monomial(self) -> tuple | None:
        """A reduced value sign q^a t^b, sign = +-1, as (sign, a, b), else None."""
        terms = [(n, d, c) for n, tp in self.num.items() for d, c in tp.items()]
        if self.phis or len(terms) != 1 or abs(terms[0][2]) != 1:
            return None
        (n, d, c), = terms
        return c, n - self.qa, d - self.tb

    def reduced(self) -> _Factored:
        """The same value with no factor of the denominator left dividing the numerator.

        The factors are irreducible and the numerator's q- and t-valuations
        are read off directly, so this is the reduced form.  A factor x - y
        (d = 1) is tried only where _on_binomial finds that it divides.
        """
        num = self.num
        if not num:
            return _Factored(num, 0, 0, {})
        qa = min(self.qa, min(num))
        tb = min(self.tb, min(min(tp) for tp in num.values()))
        if qa or tb:
            num = Poly({n - qa: Poly({d - tb: c for d, c in tp.items()}) for n, tp in num.items()})
        phis = {}
        for key, m in self.phis.items():
            f = _phi(key)
            while m:
                if key[0] == 1 and _on_binomial(num, key[1], key[2]):
                    break
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


def _on_binomial(num: Poly, u: int, v: int) -> dict:
    """num at q = z^v, t = z^-u, as {exponent of z: coefficient} with no zero coefficient.

    There q^u t^v = 1, so this is num on the curve x = y of the key (1, u, v),
    and with gcd(u, v) = 1 it is empty exactly when x - y divides num.
    """
    out: dict = {}
    for n, tp in num.items():
        for d, c in tp.items():
            e = n * v - d * u
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


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
            l1 *= sum(abs(c) for tp in f.values() for c in tp.values()) ** e
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


def _gap_factors(first: tuple, second: tuple) -> tuple:
    """q^a t^b - q^c t^d, two distinct monomials, as (sign, e, f, keys) = sign q^e t^f prod_keys Phi_key.

    Factor out q^min(a, c) t^min(b, d); what is left is x^g - y^g, or its
    negative, for coprime monomials x, y with x / y = q^u t^v, (u, v)
    lexicographically positive and g = gcd of the exponent differences, and
    x^g - y^g is the product of Phi_k(x, y) over the divisors k of g.
    """
    (a, b), (c, d) = first, second
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
