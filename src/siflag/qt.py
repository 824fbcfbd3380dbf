"""Exact rational functions in the two formal parameters q and t.

One polynomial type, ``Poly``, a sparse dict {degree: coefficient}, serves
both rings: with int coefficients it is an element of Z[t], with Poly-in-t
coefficients an element of (Z[t])[q] = Z[q,t].  Sums, products, the
pseudo-remainder, exact division, content and the primitive-PRS gcd (Brown,
J. ACM 1971) are each written once and recurse through the coefficient ring
down to the integers.  A QTRat is a reduced fraction of two elements of
(Z[t])[q] with integer content divided out and a positive leading denominator
coefficient, so equal values always have equal representations.

The package has one exact field elimination kernel, ``_rref``: a reduced row
echelon form of sparse rows {col: value} that takes pivot columns in increasing
order, so its output is the canonical RREF.  ``rootdata._invert`` hands it
``Fraction`` rows (the Cartan matrix beside the identity), and the eigen base
solve (``weylchar.eigen_solve_base``) hands it rows of ``ModP``, the integers
modulo the prime P = 2^61 - 1, evaluated at one point q each.
``gauss_nullspace`` and ``gauss_solve`` wrap it for dense rows over any exact
field.  The oracle's density finds root functionals with ``gauss_nullspace``
over ``Fraction``.  ``gauss_solve`` has no caller in the package: it stays as
the dense solve that the benchmark's tracer wraps and the tests solve through,
over ``Fraction`` and over ``QTRat`` as a Q(t) reference.  The only other
elimination is the oracle's fraction-free Pade step over Z[t]
(``macdonald._null_vector``), on integers packed at a trial width whose
result an exact product check certifies.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd


class Poly(dict):
    """A polynomial {degree: coefficient} that never stores a zero coefficient.

    Coefficients are ints (the polynomial is in Z[t]) or Polys in t (it is in
    (Z[t])[q]).  A Poly is not changed once built, so values share freely.
    """

    __slots__ = ()

    def __add__(self, other: Poly) -> Poly:
        return _addmul(Poly(self), other)

    def __neg__(self) -> Poly:
        return Poly({k: -c for k, c in self.items()})

    def __sub__(self, other: Poly) -> Poly:
        return _addmul(Poly(self), other, -1)

    def __mul__(self, other: Poly) -> Poly:
        out = Poly()
        for i, a in self.items():
            _addmul(out, other, a, i)
        return out

    def __floordiv__(self, b: Poly) -> Poly:
        """The exact quotient self / b; raises ValueError when b does not divide self."""
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        db = max(b)
        lb = b[db]
        rem, quo = Poly(self), Poly()
        while rem:
            dr = max(rem)
            lr = rem[dr]
            if dr < db or isinstance(lr, int) and lr % lb:
                raise ValueError("inexact division")
            c = quo[dr - db] = lr // lb
            _addmul(rem, b, -c, dr - db)
        return quo

    def __hash__(self):
        return hash(frozenset(self.items()))

    def scale(self, c) -> Poly:
        """self times a nonzero coefficient c, or times a nonzero int at either level."""
        return Poly({k: c * v for k, v in self.items()})

    __rmul__ = scale


def _addmul(out: Poly, b: Poly, c=1, shift: int = 0) -> Poly:
    """out + c x^shift b for a nonzero coefficient c, computed in place in out."""
    get = out.get
    for k, v in b.items():
        k += shift
        v = c * v
        s = get(k)
        if s is None:
            out[k] = v
        else:
            s = s + v
            if s:
                out[k] = s
            else:
                del out[k]
    return out


_T_ONE = Poly({0: 1})  # 1 in Z[t]
_ONE = Poly({0: _T_ONE})  # 1 in (Z[t])[q]


def _mono(dq: int, dt: int, c: int) -> Poly:
    """c q^dq t^dt in (Z[t])[q]."""
    return Poly({dq: Poly({dt: c})}) if c else Poly()


def _negative(a) -> bool:
    """Whether the leading coefficient of a nonzero a, read down to Z, is negative."""
    while isinstance(a, Poly):
        a = a[max(a)]
    return a < 0


def _prem(a: Poly, b: Poly) -> Poly:
    """Pseudo-remainder of a by b: lc(b)^k a reduced below deg b with no division."""
    db = max(b)
    lb = b[db]
    while a and max(a) >= db:
        da = max(a)
        lr = a[da]
        a = _addmul(a.scale(lb), b, -lr, da - db)
    return a


def _content(a: Poly):
    """The gcd of the coefficients of a nonzero a, with a positive leading coefficient."""
    if isinstance(next(iter(a.values())), int):
        return int_gcd(*a.values())
    c = Poly()
    for v in a.values():
        c = _gcd(c, v)
        if c == _T_ONE:
            break
    return c


def _primitive(a: Poly):
    """(c, p) with a = c p for a nonzero a: c its content up to sign, p with a positive lead."""
    c = _content(a)
    if _negative(a):
        c = -c
    elif c == 1 or c == _T_ONE:
        return c, a
    return c, Poly({k: v // c for k, v in a.items()})


def _gcd(a, b):
    """gcd in Z, Z[t] or (Z[t])[q], with a positive leading coefficient."""
    if isinstance(a, int):
        return int_gcd(a, b)
    if not a or not b:
        a = a or b
        return -a if a and _negative(a) else a
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        # gcd(c x^k, b) = x^min(k, val b) gcd(c, content b)
        (k, c), = a.items()
        return Poly({min(k, min(b)): _gcd(c, _content(b))})
    ca, x = _primitive(a)
    cb, y = _primitive(b)
    if max(x) < max(y):
        x, y = y, x
    while y:
        rem = _prem(x, y)
        x, y = y, (_primitive(rem)[1] if rem else rem)
    return x.scale(_gcd(ca, cb))


def p_gcd(a: Poly, b: Poly) -> Poly:
    """gcd in Z[q,t] = (Z[t])[q], with a positive lexicographically leading coefficient.

    The entry point through which QTRat(num, den) reduces a fraction.  A pair
    whose gcd is known to lie in Z[t] skips it (QTRat._by_t_content).
    """
    return _gcd(a, b)


def _terms(a: Poly) -> dict:
    """{(q_degree, t_degree): int} view of an element of (Z[t])[q]."""
    return {(dq, dt): c for dq, tp in a.items() for dt, c in tp.items()}


def _display_key(k: tuple) -> tuple:
    return (k[0] + k[1], k[0], k[1])


def p_str(a: Poly) -> str:
    """Compact display form, lowest total degree first, e.g. '1-q*t'."""
    if not a:
        return "0"
    terms = _terms(a)
    bits = []
    for (dq, dt) in sorted(terms, key=_display_key):
        c = terms[(dq, dt)]
        mono = []
        if dq:
            mono.append("q" if dq == 1 else f"q^{dq}")
        if dt:
            mono.append("t" if dt == 1 else f"t^{dt}")
        body = "*".join(mono)
        if not body:
            term = str(abs(c))
        elif abs(c) == 1:
            term = body
        else:
            term = f"{abs(c)}*{body}"
        bits.append(("-" if c < 0 else ("" if not bits else "+")) + term)
    return "".join(bits)


def _t_coeff(a: Poly, dt: int) -> Poly:
    """The coefficient of t^dt in a, a polynomial in q alone."""
    return Poly({dq: Poly({0: tp[dt]}) for dq, tp in a.items() if dt in tp})


class QTRat:
    """Reduced fraction of integer polynomials in q and t, each a Poly in q over Z[t]."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            self.num, self.den = num, _ONE
            return
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num or den == _ONE:
            self.num, self.den = num, _ONE
            return
        self._set_reduced(num, den, p_gcd(num, den))

    def _set_reduced(self, num: Poly, den: Poly, g: Poly) -> None:
        """Store num / g over den / g, for g the gcd of num and den, with den's lead positive."""
        if g != _ONE:
            num, den = num // g, den // g
        if _negative(den):
            num, den = -num, -den
        self.num, self.den = num, den

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def _by_t_content(num: Poly, den: Poly) -> "QTRat":
        """QTRat(num, den) for a pair whose gcd in Z[q,t] is known to lie in Z[t].

        Such a gcd divides every t-polynomial coefficient of num and den, and
        the gcd of those coefficients divides num and den, so the two agree up
        to sign: the gcd of the contents of num and den, found by the
        univariate _gcd alone, skipping the bivariate p_gcd.  Only for
        macdonald's Pade step, which proves the precondition for the
        fractions it reduces; without it the fraction is left unreduced.
        """
        if not den or not num or den == _ONE:
            return QTRat(num, den)
        out = QTRat.__new__(QTRat)
        out._set_reduced(num, den, Poly({0: _gcd(_content(den), _content(num))}))
        return out

    @staticmethod
    def _coprime(num: Poly, den: Poly) -> "QTRat":
        """QTRat(num, den) for a pair known to share no factor in Z[q,t] and den primitive.

        Only the sign is normalised.  Only for cherednik's intertwiner steps,
        whose denominators are products of known irreducible factors, none of
        which divides the numerator it keeps (see cherednik._Factored.reduced).
        """
        if not num:
            return QTRat.zero()
        out = QTRat.__new__(QTRat)
        out._set_reduced(num, den, _ONE)
        return out

    @staticmethod
    def zero() -> "QTRat":
        return QTRat(Poly())

    @staticmethod
    def one() -> "QTRat":
        return QTRat(_ONE)

    @staticmethod
    def from_int(n: int) -> "QTRat":
        return QTRat(_mono(0, 0, n))

    @staticmethod
    def from_fraction(x: Fraction) -> "QTRat":
        return QTRat(_mono(0, 0, x.numerator), _mono(0, 0, x.denominator))

    @staticmethod
    def q(power: int = 1) -> "QTRat":
        return QTRat(_mono(power, 0, 1))

    @staticmethod
    def t(power: int = 1) -> "QTRat":
        return QTRat(_mono(0, power, 1))

    # -- ring/field structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QTRat) and self.num == other.num and self.den == other.den

    def __add__(self, other: "QTRat") -> "QTRat":
        if not other.num:
            return self
        if not self.num:
            return other
        if self.den == other.den:
            return QTRat(self.num + other.num, self.den)
        return QTRat(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "QTRat":
        out = QTRat.__new__(QTRat)
        out.num, out.den = -self.num, self.den
        return out

    def __sub__(self, other: "QTRat") -> "QTRat":
        return self + (-other)

    def __mul__(self, other: "QTRat") -> "QTRat":
        return QTRat(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "QTRat") -> "QTRat":
        if not other.num:
            raise ZeroDivisionError
        return QTRat(self.num * other.den, self.den * other.num)

    def __repr__(self) -> str:
        shown = self.to_json()
        if shown["den"] == "1":
            return shown["num"]
        return f"({shown['num']})/({shown['den']})"

    def to_json(self) -> dict:
        num, den = self.num, self.den
        if den:
            # display preference: positive lowest-order denominator term
            terms = _terms(den)
            if terms[min(terms, key=_display_key)] < 0:
                num, den = -num, -den
        return {"num": p_str(num), "den": p_str(den)}

    # -- specializations -----------------------------------------------------------

    def subs_t_zero(self) -> "QTRat":
        den0 = _t_coeff(self.den, 0)
        if not den0:
            raise ValueError("pole at t = 0")
        return QTRat(_t_coeff(self.num, 0), den0)

    def limit_t_inf(self) -> "QTRat":
        """Exact limit t -> infinity via the substitution t = 1/s at s = 0."""
        if not self.num:
            return QTRat.zero()
        dn, dd = max(map(max, self.num.values())), max(map(max, self.den.values()))
        if dn > dd:
            raise ValueError("diverges as t -> infinity")
        if dn < dd:
            return QTRat.zero()
        return QTRat(_t_coeff(self.num, dn), _t_coeff(self.den, dd))

    def subs_q_inv(self) -> "QTRat":
        """Formal substitution q -> 1/q."""
        if not self.num:
            return QTRat.zero()
        d = max(max(self.num), max(self.den))
        return QTRat(Poly({d - dq: tp for dq, tp in self.num.items()}),
                     Poly({d - dq: tp for dq, tp in self.den.items()}))

    def is_t_free(self) -> bool:
        return all(max(tp) == 0 for p in (self.num, self.den) for tp in p.values())

    def as_q_laurent(self) -> dict[int, Fraction]:
        """Exact Laurent polynomial in q, {exponent: coefficient}; raises if not one.

        The fraction is reduced, so it is one exactly when its denominator is a
        single monomial c q^k.
        """
        if not self.is_t_free():
            raise ValueError("coefficient still depends on t")
        if len(self.den) != 1:
            raise ValueError("coefficient is not a Laurent polynomial in q")
        (k, c), = self.den.items()
        return {dq - k: Fraction(tp[0], c[0]) for dq, tp in self.num.items()}


# -- generic exact linear algebra (over Fraction, ModP or QTRat) ------------------

P = (1 << 61) - 1  # a Mersenne prime


class ModP:
    """An element of the prime field Z/PZ, with the operations _rref uses."""

    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v % P

    def __bool__(self) -> bool:
        return self.v != 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ModP) and self.v == other.v

    def __neg__(self) -> "ModP":
        return ModP(-self.v)

    def __sub__(self, other: "ModP") -> "ModP":
        return ModP(self.v - other.v)

    def __mul__(self, other: "ModP") -> "ModP":
        return ModP(self.v * other.v)

    def __truediv__(self, other: "ModP") -> "ModP":
        return ModP(self.v * pow(other.v, -1, P))


def _rref(rows, ncols):
    """Reduced row echelon form of sparse rows {col: value} over an exact field.

    Columns at or beyond ncols (an augmented right-hand side) are carried along
    but never pivoted on.  Pivot columns are taken in increasing order, so the
    result is the unique RREF whichever rows are chosen as pivots; the pivot row
    for a column is the candidate with the fewest nonzeros (lowest index on
    ties), which keeps fill-in low.  A column -> rows index means each
    elimination touches only the rows that hold the pivot column and never
    multiplies a zero.  The rows given are copied without their zero entries
    and are not changed.

    Returns (pivots, rest): pivots lists (col, row) in increasing col, each row
    scaled to 1 at its own column and free of every other pivot column; rest
    holds the rows left without a pivot, which are zero on columns below ncols.
    """
    sparse = [{c: x for c, x in row.items() if x} for row in rows]
    holders: list[set[int]] = [set() for _ in range(ncols)]
    for i, row in enumerate(sparse):
        for c in row:
            if c < ncols:
                holders[c].add(i)
    is_pivot = [False] * len(sparse)
    pivots = []
    for c in range(ncols):
        cands = [i for i in holders[c] if not is_pivot[i]]
        if not cands:
            continue
        p = min(cands, key=lambda i: (len(sparse[i]), i))
        inv = sparse[p][c]
        prow = {k: x / inv for k, x in sparse[p].items()}
        sparse[p] = prow
        is_pivot[p] = True
        for i in holders[c]:
            if i == p:
                continue
            row = sparse[i]
            f = row.pop(c)
            for k, y in prow.items():
                if k == c:
                    continue
                x = row.get(k)
                if x is None:
                    row[k] = -(f * y)
                    if k < ncols:
                        holders[k].add(i)
                else:
                    s = x - f * y
                    if s:
                        row[k] = s
                    else:
                        del row[k]
                        if k < ncols:
                            holders[k].discard(i)
        holders[c] = {p}
        pivots.append((c, prow))
    rest = [row for i, row in enumerate(sparse) if not is_pivot[i]]
    return pivots, rest


def gauss_solve(rows, rhs, zero):
    """Solve M x = rhs over an exact field from dense rows; returns x, or None if singular.

    None covers both an inconsistent and an underdetermined system.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    pivots, rest = _rref([dict(enumerate([*r, v])) for r, v in zip(rows, rhs)], ncols)
    if any(rest) or len(pivots) < ncols:
        return None
    return [row.get(ncols, zero) for _, row in pivots]


def gauss_nullspace(rows, ncols, zero, one):
    """Basis of the right nullspace of dense M over an exact field, one vector per free column."""
    pivots, _ = _rref([dict(enumerate(r)) for r in rows], ncols)
    pivot_cols = {c for c, _ in pivots}
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for pc, row in pivots:
            if fc in row:
                vec[pc] = -row[fc]
        basis.append(vec)
    return basis
