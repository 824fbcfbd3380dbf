"""Exact rational functions in the two formal parameters q and t.

Polynomials are sparse dicts {(q_degree, t_degree): int}; a QTRat is a reduced
fraction of two such polynomials with a sign-normalized denominator, so equal
values always have equal representations.  Reduction runs a primitive-PRS gcd
in (Z[t])[q], which is plenty at the small degrees this engine produces.

The package has one exact elimination kernel, ``_rref``: a row-sparse reduced
row echelon form that takes pivot columns in increasing order, so its output is
the canonical RREF.  ``gauss_solve`` and ``gauss_nullspace`` are built on it and
serve both ``Fraction`` systems (the eigen base solve) and ``QTRat`` ones (the
oracle's Gram solve and Pade nullspace).
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd

BPoly = dict  # {(dq, dt): int}

P_ONE: BPoly = {(0, 0): 1}


def p_int(n: int) -> BPoly:
    return {(0, 0): n} if n else {}

def p_q(power: int = 1) -> BPoly:
    return {(power, 0): 1}

def p_t(power: int = 1) -> BPoly:
    return {(0, power): 1}


def p_add(a: BPoly, b: BPoly) -> BPoly:
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def p_neg(a: BPoly) -> BPoly:
    return {k: -c for k, c in a.items()}


def p_sub(a: BPoly, b: BPoly) -> BPoly:
    return p_add(a, p_neg(b))


def p_mul(a: BPoly, b: BPoly) -> BPoly:
    out: BPoly = {}
    for (qa, ta), ca in a.items():
        for (qb, tb), cb in b.items():
            k = (qa + qb, ta + tb)
            s = out.get(k, 0) + ca * cb
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def p_deg_q(a: BPoly) -> int:
    return max(k[0] for k in a) if a else -1


def p_deg_t(a: BPoly) -> int:
    return max(k[1] for k in a) if a else -1


def p_val_q(a: BPoly) -> int:
    return min(k[0] for k in a) if a else 0


def _int_content(a: BPoly) -> int:
    g = 0
    for c in a.values():
        g = int_gcd(g, abs(c))
    return g or 1


# -- univariate Z[t] helpers (t-polys are dicts {dt: int}) ---------------------

def _t_scale(a, c):
    return {k: c * v for k, v in a.items()} if c else {}


def _t_deg(a):
    return max(a) if a else -1


def _t_content(a):
    g = 0
    for c in a.values():
        g = int_gcd(g, abs(c))
    return g or 1


def _t_primitive(a):
    g = _t_content(a)
    lead = a.get(_t_deg(a), 0) if a else 0
    if lead < 0:
        g = -g
    return {k: c // g for k, c in a.items()} if a else {}


def _t_prem(a, b):
    """Pseudo-remainder of a by b over Z[t] (integer arithmetic only)."""
    db = _t_deg(b)
    lb = b[db]
    rem = dict(a)
    while rem:
        dr = _t_deg(rem)
        if dr < db:
            break
        lr = rem[dr]
        new = {k: c * lb for k, c in rem.items()}
        for kb, cb in b.items():
            k = dr - db + kb
            s = new.get(k, 0) - lr * cb
            if s:
                new[k] = s
            else:
                new.pop(k, None)
        rem = new
    return rem


def _t_div_exact(a, b):
    """Exact division in Z[t]; raises when b does not divide a."""
    if not b:
        raise ZeroDivisionError
    if not a:
        return {}
    rem = dict(a)
    quo: dict[int, int] = {}
    db = _t_deg(b)
    lb = b[db]
    while rem:
        dr = _t_deg(rem)
        if dr < db:
            raise ValueError("inexact t-polynomial division")
        lr = rem[dr]
        if lr % lb:
            raise ValueError("inexact t-polynomial division")
        c = lr // lb
        quo[dr - db] = c
        for kb, cb in b.items():
            k = dr - db + kb
            s = rem.get(k, 0) - c * cb
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return quo


def _t_gcd(a, b):
    """gcd in Z[t] (content times primitive gcd), positive leading coefficient."""
    if not a and not b:
        return {}
    ca = _t_content(a) if a else 0
    cb = _t_content(b) if b else 0
    cont = int_gcd(ca, cb)
    x, y = _t_primitive(a), _t_primitive(b)
    if _t_deg(x) < _t_deg(y):
        x, y = y, x
    while y:
        rem = _t_prem(x, y)
        x, y = y, (_t_primitive(rem) if rem else {})
    return _t_scale(x, cont)


# -- bivariate gcd via (Z[t])[q] ------------------------------------------------

def _q_coeffs(a: BPoly):
    """Split a bivariate poly into {q_degree: t-poly}."""
    out: dict[int, dict[int, int]] = {}
    for (dq, dt), c in a.items():
        out.setdefault(dq, {})[dt] = c
    return out


def _from_q_coeffs(qc) -> BPoly:
    out: BPoly = {}
    for dq, tp in qc.items():
        for dt, c in tp.items():
            if c:
                out[(dq, dt)] = c
    return out


def _qpoly_content(a: BPoly):
    """gcd in Z[t] of all q-coefficients."""
    qc = _q_coeffs(a)
    g: dict[int, int] = {}
    for tp in qc.values():
        g = _t_gcd(g, tp)
        if _t_deg(g) == 0 and abs(g.get(0, 0)) == 1:
            break
    return g


def _qpoly_primitive(a: BPoly) -> BPoly:
    if not a:
        return {}
    cont = _qpoly_content(a)
    qc = _q_coeffs(a)
    out = {dq: _t_div_exact(tp, cont) for dq, tp in qc.items()}
    return _from_q_coeffs(out)


def _qpoly_pseudo_rem(a: BPoly, b: BPoly) -> BPoly:
    """Pseudo-remainder of a by b in (Z[t])[q]."""
    da, db = p_deg_q(a), p_deg_q(b)
    if db < 0:
        raise ZeroDivisionError
    lb = _q_coeffs(b)[db]
    rem = dict(a)
    while rem and p_deg_q(rem) >= db:
        dr = p_deg_q(rem)
        lr = _q_coeffs(rem)[dr]
        # lb * rem - q^{dr-db} * lr * b kills the leading q-term exactly
        rem = p_sub(
            p_mul(rem, _from_q_coeffs({0: lb})),
            p_mul(b, _from_q_coeffs({dr - db: lr})),
        )
    return rem


def _monomial_gcd(a: BPoly, b: BPoly) -> BPoly:
    qa = min(k[0] for k in a)
    ta = min(k[1] for k in a)
    qb = min(k[0] for k in b)
    tb = min(k[1] for k in b)
    return {(min(qa, qb), min(ta, tb)): int_gcd(_int_content(a), _int_content(b))}


def p_gcd(a: BPoly, b: BPoly) -> BPoly:
    """gcd in Z[q,t], primitive up to an integer content, sign-normalized."""
    if not a:
        return _sign_normalize(b)
    if not b:
        return _sign_normalize(a)
    if len(a) == 1 or len(b) == 1:
        return _monomial_gcd(a, b)
    if all(k[0] == 0 for k in a) and all(k[0] == 0 for k in b):
        # both free of q: univariate gcd in t
        g = _t_gcd({dt: c for (_, dt), c in a.items()}, {dt: c for (_, dt), c in b.items()})
        return {(0, dt): c for dt, c in g.items()}
    cont = _t_gcd(_qpoly_content(a), _qpoly_content(b))
    x, y = _qpoly_primitive(a), _qpoly_primitive(b)
    if p_deg_q(x) < p_deg_q(y):
        x, y = y, x
    while y:
        rem = _qpoly_pseudo_rem(x, y)
        x, y = y, (_qpoly_primitive(rem) if rem else {})
    g = p_mul(_qpoly_primitive(x), _from_q_coeffs({0: cont}))
    return _sign_normalize(g)


def _lead_key(a: BPoly):
    return max(a)


def _sign_normalize(a: BPoly) -> BPoly:
    if a and a[_lead_key(a)] < 0:
        return p_neg(a)
    return a


def p_div_exact(a: BPoly, b: BPoly) -> BPoly:
    """Exact division in Z[q,t] viewed in (Z[t])[q]; raises if inexact."""
    if not b:
        raise ZeroDivisionError
    if not a:
        return {}
    rem = dict(a)
    quo: BPoly = {}
    db = p_deg_q(b)
    lb = _q_coeffs(b)[db]
    while rem:
        dr = p_deg_q(rem)
        if dr < db:
            raise ValueError("inexact bivariate division")
        lr = _q_coeffs(rem)[dr]
        qt = _t_div_exact(lr, lb)
        for dt, c in qt.items():
            quo[(dr - db, dt)] = quo.get((dr - db, dt), 0) + c
        rem = p_sub(rem, p_mul(b, _from_q_coeffs({dr - db: qt})))
    return {k: c for k, c in quo.items() if c}


def p_str(a: BPoly) -> str:
    """Compact display form, lowest total degree first, e.g. '1-q*t'."""
    if not a:
        return "0"
    keys = sorted(a, key=lambda k: (k[0] + k[1], k[0], k[1]))
    bits = []
    for (dq, dt) in keys:
        c = a[(dq, dt)]
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


class QTRat:
    """Reduced fraction of integer polynomials in q and t."""

    __slots__ = ("num", "den")

    def __init__(self, num: BPoly, den: BPoly | None = None):
        if den is None:
            self.num, self.den = dict(num), dict(P_ONE)
            return
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num, self.den = {}, dict(P_ONE)
            return
        if den == P_ONE:
            self.num, self.den = dict(num), dict(P_ONE)
            return
        g = p_gcd(num, den)
        if g != P_ONE:
            num = p_div_exact(num, g)
            den = p_div_exact(den, g)
        cn, cd = _int_content(num), _int_content(den)
        ci = int_gcd(cn, cd)
        if ci > 1:
            num = {k: c // ci for k, c in num.items()}
            den = {k: c // ci for k, c in den.items()}
        if den[_lead_key(den)] < 0:
            num, den = p_neg(num), p_neg(den)
        self.num, self.den = num, den

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zero() -> "QTRat":
        return QTRat({})

    @staticmethod
    def one() -> "QTRat":
        return QTRat(dict(P_ONE))

    @staticmethod
    def from_int(n: int) -> "QTRat":
        return QTRat(p_int(n))

    @staticmethod
    def from_fraction(x: Fraction) -> "QTRat":
        return QTRat(p_int(x.numerator), p_int(x.denominator))

    @staticmethod
    def q(power: int = 1) -> "QTRat":
        return QTRat(p_q(power))

    @staticmethod
    def t(power: int = 1) -> "QTRat":
        return QTRat(p_t(power))

    # -- ring/field structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other: object) -> bool:
        coerced = QTRat._coerce(other)
        if coerced is None:
            return NotImplemented
        return self.num == coerced.num and self.den == coerced.den

    def __hash__(self):
        return hash((frozenset(self.num.items()), frozenset(self.den.items())))

    @staticmethod
    def _coerce(other):
        if isinstance(other, QTRat):
            return other
        if isinstance(other, int):
            return QTRat.from_int(other)
        if isinstance(other, Fraction):
            return QTRat.from_fraction(other)
        return None

    def __add__(self, other: "QTRat") -> "QTRat":
        other = QTRat._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        if self.den == other.den:
            return QTRat(p_add(self.num, other.num), dict(self.den))
        return QTRat(
            p_add(p_mul(self.num, other.den), p_mul(other.num, self.den)),
            p_mul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self) -> "QTRat":
        out = QTRat.__new__(QTRat)
        out.num, out.den = p_neg(self.num), dict(self.den)
        return out

    def __sub__(self, other) -> "QTRat":
        other = QTRat._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QTRat":
        return (-self) + other

    def __mul__(self, other) -> "QTRat":
        other = QTRat._coerce(other)
        if other is None:
            return NotImplemented
        return QTRat(p_mul(self.num, other.num), p_mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QTRat":
        other = QTRat._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError
        return QTRat(p_mul(self.num, other.den), p_mul(self.den, other.num))

    def __repr__(self) -> str:
        if self.den == P_ONE:
            return p_str(self.num)
        return f"({p_str(self.num)})/({p_str(self.den)})"

    def to_json(self) -> dict:
        num, den = self.num, self.den
        if den:
            # display preference: positive lowest-order denominator term
            low = min(den, key=lambda k: (k[0] + k[1], k[0], k[1]))
            if den[low] < 0:
                num, den = p_neg(num), p_neg(den)
        return {"num": p_str(num), "den": p_str(den)}

    # -- specializations -----------------------------------------------------------

    def subs_t_zero(self) -> "QTRat":
        num0 = {k: c for k, c in self.num.items() if k[1] == 0}
        den0 = {k: c for k, c in self.den.items() if k[1] == 0}
        if not den0:
            raise ValueError("pole at t = 0")
        return QTRat(num0, den0)

    def limit_t_inf(self) -> "QTRat":
        """Exact limit t -> infinity via the substitution t = 1/s at s = 0."""
        if not self.num:
            return QTRat.zero()
        dn, dd = p_deg_t(self.num), p_deg_t(self.den)
        if dn > dd:
            raise ValueError("diverges as t -> infinity")
        if dn < dd:
            return QTRat.zero()
        top_n = {(dq, 0): c for (dq, dt), c in self.num.items() if dt == dn}
        top_d = {(dq, 0): c for (dq, dt), c in self.den.items() if dt == dd}
        return QTRat(top_n, top_d)

    def subs_q_inv(self) -> "QTRat":
        """Formal substitution q -> 1/q."""
        if not self.num:
            return QTRat.zero()
        d = max(p_deg_q(self.num), p_deg_q(self.den))
        num = {(d - dq, dt): c for (dq, dt), c in self.num.items()}
        den = {(d - dq, dt): c for (dq, dt), c in self.den.items()}
        return QTRat(num, den)

    def is_t_free(self) -> bool:
        return all(dt == 0 for (_, dt) in self.num) and all(dt == 0 for (_, dt) in self.den)

    def as_q_laurent(self) -> dict[int, Fraction]:
        """Exact Laurent polynomial in q, {exponent: coefficient}; raises if not one.

        The fraction is reduced, so it is one exactly when its denominator is a
        single monomial c q^k.
        """
        if not self.is_t_free():
            raise ValueError("coefficient still depends on t")
        if len(self.den) != 1:
            raise ValueError("coefficient is not a Laurent polynomial in q")
        ((k, _), c), = self.den.items()
        return {dq - k: Fraction(a, c) for (dq, _), a in self.num.items()}

    def series_q(self, order: int) -> list["QTRat"]:
        """Power-series expansion in q to the given order; coefficients are t-only."""
        if not self.num:
            return [QTRat.zero()] * (order + 1)
        vd = p_val_q(self.den)
        vn = p_val_q(self.num)
        if vn < vd:
            raise ValueError("negative q-valuation: not a power series")
        num_q = _q_coeffs({(dq - vd, dt): c for (dq, dt), c in self.num.items()})
        den_q = _q_coeffs({(dq - vd, dt): c for (dq, dt), c in self.den.items()})
        d0 = QTRat(_from_q_coeffs({0: den_q[0]}))
        out: list[QTRat] = []
        for n in range(order + 1):
            acc = QTRat(_from_q_coeffs({0: num_q.get(n, {})}))
            for k in range(1, n + 1):
                dk = den_q.get(k)
                if dk:
                    acc = acc - QTRat(_from_q_coeffs({0: dk})) * out[n - k]
            out.append(acc / d0)
        return out


# -- generic exact linear algebra (works over Fraction or QTRat) -----------------


def _rref(rows, ncols):
    """Row-sparse reduced row echelon form of a dense matrix over an exact field.

    Columns at or beyond ncols (an augmented right-hand side) are carried along
    but never pivoted on.  Pivot columns are taken in increasing order, so the
    result is the unique RREF whichever rows are chosen as pivots; the pivot row
    for a column is the candidate with the fewest nonzeros (lowest index on
    ties), which keeps fill-in low.  Rows are {col: value} dicts with a
    column -> rows index, so each elimination touches only the rows that hold
    the pivot column and never multiplies a zero.

    Returns (pivots, rest): pivots lists (col, row) in increasing col, each row
    scaled to 1 at its own column and free of every other pivot column; rest
    holds the rows left without a pivot, which are zero on columns below ncols.
    """
    sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
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
    """Solve M x = rhs over an exact field; returns x, or None if singular.

    None covers both an inconsistent and an underdetermined system.
    """
    if not rows:
        return []
    m = len(rows[0])
    pivots, rest = _rref([[*r, v] for r, v in zip(rows, rhs)], m)
    if any(rest) or len(pivots) < m:
        return None
    return [row.get(m, zero) for _, row in pivots]


def gauss_nullspace(rows, ncols, zero, one):
    """Basis of the right nullspace of M over an exact field, one vector per free column."""
    pivots, _ = _rref(rows, ncols)
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
