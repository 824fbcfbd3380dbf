"""Exact q,t rational-function arithmetic."""
from __future__ import annotations

import random
from fractions import Fraction
from math import gcd as int_gcd

import pytest

from siflag import qt
from siflag.qt import (
    P,
    ModP,
    Poly,
    QTRat,
    _rref,
    gauss_nullspace,
    gauss_solve,
    p_str,
)

Q = QTRat.q()
T = QTRat.t()
ONE = QTRat.one()


def _poly(flat: dict) -> Poly:
    """The element of (Z[t])[q] with the flat terms {(q_degree, t_degree): int}."""
    out: dict = {}
    for (dq, dt), c in flat.items():
        if c:
            out.setdefault(dq, Poly())[dt] = c
    return Poly(out)


def _flat(a: Poly) -> dict:
    return {(dq, dt): c for dq, tp in a.items() for dt, c in tp.items()}


def test_basic_arithmetic_and_reduction():
    # (1 - t^2) / (1 - t) reduces to 1 + t
    f = (ONE - T * T) / (ONE - T)
    assert f == ONE + T
    assert ((ONE - Q * T) * f) / f == ONE - Q * T
    assert (f - f).is_zero()
    assert QTRat.from_int(6) / QTRat.from_int(4) == QTRat.from_fraction(Fraction(3, 2))


def test_random_field_axioms():
    rng = random.Random(13)

    def rand():
        num = {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3) for _ in range(3)}
        num = {k: c for k, c in num.items() if c}
        den = {(rng.randint(0, 1), rng.randint(0, 1)): rng.randint(1, 3)}
        return QTRat(_poly(num), _poly(den))

    for _ in range(40):
        a, b, c = rand(), rand(), rand()
        assert (a + b) * c == a * c + b * c
        if not b.is_zero():
            assert (a / b) * b == a


def test_gcd_cancellation_is_canonical():
    one_minus_qt = _poly({(0, 0): 1}) - _poly({(1, 1): 1})
    sq = one_minus_qt * one_minus_qt
    # gcd is sign-normalized to a positive lex-leading coefficient: qt - 1
    assert _flat(qt.p_gcd(sq, one_minus_qt)) == {(1, 1): 1, (0, 0): -1}
    r = QTRat(_poly({(0, 1): 2}) * one_minus_qt, _poly({(0, 0): 4}) * sq)
    assert r == QTRat(_poly({(0, 1): 1}), _poly({(0, 0): 2}) * one_minus_qt)


def test_denominator_sign_normalized():
    r = QTRat(_poly({(0, 0): 1}), _poly({(1, 1): -1, (0, 0): 1}))
    s = QTRat(_poly({(0, 0): -1}), _poly({(1, 1): 1, (0, 0): -1}))
    assert r == s
    # leading (lex-largest) denominator coefficient is positive
    den = _flat(r.den)
    assert max(den)[0] >= 0 and den[max(den)] > 0


def test_subs_t_zero():
    f = (ONE - T) / (ONE - Q * T)
    assert f.subs_t_zero() == ONE
    g = T / (T + T * Q)  # reduces to 1/(1+q), t-free
    assert g.subs_t_zero() == ONE / (ONE + Q)
    with pytest.raises(ValueError):
        (ONE / T).subs_t_zero()


def test_limit_t_inf():
    f = (ONE - T) / (ONE - Q * T)
    assert f.limit_t_inf() == ONE / Q
    assert (ONE / (ONE + T)).limit_t_inf().is_zero()
    with pytest.raises(ValueError):
        (T / (ONE + Q)).limit_t_inf()


def test_subs_q_inv():
    f = (ONE - T) / (ONE - Q * T)
    g = f.limit_t_inf().subs_q_inv()
    assert g == Q
    assert Q.subs_q_inv() == ONE / Q
    assert (ONE + Q).subs_q_inv() == (ONE + Q) / Q


def test_as_q_laurent():
    f = (ONE - Q * Q) / (ONE - Q)
    assert f.as_q_laurent() == {0: Fraction(1), 1: Fraction(1)}
    assert (ONE / Q).as_q_laurent() == {-1: Fraction(1)}
    with pytest.raises(ValueError):
        (ONE / (ONE - Q)).as_q_laurent()
    with pytest.raises(ValueError):
        ((ONE - T) / (ONE - Q * T)).as_q_laurent()


def test_p_str_formats():
    assert p_str(_poly({(0, 0): 1, (0, 1): -1})) == "1-t"
    assert p_str(_poly({(0, 0): 1, (1, 1): -1})) == "1-q*t"
    assert p_str(Poly()) == "0"
    assert p_str(_poly({(2, 0): 3})) == "3*q^2"
    f = (ONE - T) / (ONE - Q * T)
    assert f.to_json() == {"num": "1-t", "den": "1-q*t"}
    # repr shows the same normal form: a positive lowest-order denominator term
    assert repr(f) == "(1-t)/(1-q*t)"
    assert repr(-T) == "-t" and repr(ONE / (Q - ONE)) == "(-1)/(1-q)"


def test_gauss_solve_and_nullspace_over_qtrat():
    rows = [[ONE, T], [T, ONE]]
    rhs = [ONE + T, ONE + T]
    x = gauss_solve(rows, rhs, QTRat.zero())
    assert x == [ONE, ONE]
    assert gauss_solve([], [], QTRat.zero()) == []

    # singular matrix: nullspace of [[1, t], [t, t^2]]
    basis = gauss_nullspace([[ONE, T], [T, T * T]], 2, QTRat.zero(), ONE)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + T * v[1] == QTRat.zero()


def test_gauss_solve_over_fraction():
    rows = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    x = gauss_solve(rows, [Fraction(5), Fraction(10)], Fraction(0))
    assert x == [Fraction(1), Fraction(3)]


# -- the polynomial core against the flat-dict reference it replaced -----------
#
# Z[q,t] used to have its own flat representation {(q_degree, t_degree): int}
# and its own univariate helpers in t; that code is kept here verbatim as the
# reference for p_gcd, exact division and the reduced form of a QTRat.

BPoly = dict  # {(dq, dt): int}

P_ONE: BPoly = {(0, 0): 1}


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


def _int_content(a: BPoly) -> int:
    g = 0
    for c in a.values():
        g = int_gcd(g, abs(c))
    return g or 1


# -- Kronecker substitution ------------------------------------------------------


def test_unpack_inverts_pack_at_every_sufficient_width():
    rng = random.Random("kronecker")
    for _ in range(200):
        tp = Poly({d: c for d in range(rng.randrange(6)) if (c := rng.randint(-40, 40))})
        least = qt._exact_width(max(map(abs, tp.values()), default=0))
        for bits in (max(2, least), least + 17):
            assert qt._unpack(qt._pack(tp, bits), bits) == tp, (tp, bits)


def test_unpack_rejects_widths_below_two_bits(monkeypatch):
    # at one bit the signed digit of a positive value is -1 and packed never
    # reaches 0; a Poly that refuses to grow turns such a loop into a failure
    class Bounded(Poly):
        def __setitem__(self, key, value):
            assert len(self) < 64, "_unpack did not stop"
            super().__setitem__(key, value)

    monkeypatch.setattr(qt, "Poly", Bounded)
    for bits in (1, 0):
        with pytest.raises(ValueError, match="bit"):
            qt._unpack(1, bits)
    assert qt._unpack(5, 2) == Poly({0: 1, 1: 1})


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



def _ref_reduce(num: BPoly, den: BPoly):
    """The reduced (num, den) the flat-dict QTRat constructor stored."""
    if not num:
        return {}, dict(P_ONE)
    if den == P_ONE:
        return dict(num), dict(P_ONE)
    g = p_gcd(num, den)
    if g != P_ONE:
        num = p_div_exact(num, g)
        den = p_div_exact(den, g)
    ci = int_gcd(_int_content(num), _int_content(den))
    if ci > 1:
        num = {k: c // ci for k, c in num.items()}
        den = {k: c // ci for k, c in den.items()}
    if den[_lead_key(den)] < 0:
        num, den = p_neg(num), p_neg(den)
    return num, den


def _rand_flat(rng, q_free: bool, n_terms: int) -> BPoly:
    out: BPoly = {}
    while not out:
        for _ in range(n_terms):
            k = (0 if q_free else rng.randint(0, 2), rng.randint(0, 3))
            out = p_add(out, {k: rng.randint(-4, 4) or 1})
    return out


def _rand_pair(rng, kind: str):
    """(a, b) sharing a random factor, each times a signed integer content.

    q_free: both in Z[t]; monomial: a is c q^i t^j; bivariate: neither is a
    monomial.
    """
    q_free = kind == "q_free"
    low = 2 if kind == "bivariate" else 1
    shared = _rand_flat(rng, q_free, 1 if kind == "monomial" else rng.randint(low, 3))
    a = p_mul(shared, _rand_flat(rng, q_free, 1 if kind == "monomial" else rng.randint(low, 3)))
    b = p_mul(shared, _rand_flat(rng, q_free, rng.randint(low, 4)))
    a = p_mul(a, {(0, 0): rng.choice((1, 2, 6, -1, -3))})
    b = p_mul(b, {(0, 0): rng.choice((1, 4, 6, -1, -2))})
    return a, b


@pytest.mark.parametrize("kind", ["q_free", "monomial", "bivariate"])
def test_core_matches_flat_reference(kind):
    rng = random.Random(sum(map(ord, kind)))
    seen = set()
    for _ in range(60):
        a, b = _rand_pair(rng, kind)
        pa, pb = _poly(a), _poly(b)
        assert _flat(pa + pb) == p_add(a, b)
        assert _flat(pa - pb) == p_sub(a, b)
        assert _flat(pa * pb) == p_mul(a, b)
        g = p_gcd(a, b)
        assert _flat(qt.p_gcd(pa, pb)) == g
        assert _flat(qt.p_gcd(Poly(), pb)) == p_gcd({}, b)
        pg = _poly(g)
        assert _flat(pa // pg) == p_div_exact(a, g)
        assert _flat(pb // pg) == p_div_exact(b, g)
        r = QTRat(pa, pb)
        assert (_flat(r.num), _flat(r.den)) == _ref_reduce(a, b)
        seen.update(name for name, hit in (
            ("nonconstant gcd", max(g) != (0, 0)),
            ("negative leading coefficient", a[max(a)] < 0 or b[max(b)] < 0),
            ("integer content above 1", _int_content(g) > 1)) if hit)
    assert len(seen) == 3, seen


def test_inexact_division_raises_at_both_levels():
    one_plus_t = Poly({0: 1, 1: 1})
    # in Z[t]: a leading coefficient that does not divide, and a nonzero remainder
    with pytest.raises(ValueError):
        one_plus_t // Poly({0: 2})
    with pytest.raises(ValueError):
        Poly({0: 1, 2: 1}) // one_plus_t
    # in (Z[t])[q]: the same two failures one level up
    with pytest.raises(ValueError):
        _poly({(0, 0): 1, (1, 0): 1}) // _poly({(0, 0): 1, (0, 1): 1})
    with pytest.raises(ValueError):
        _poly({(0, 0): 1, (2, 0): 1}) // _poly({(0, 0): 1, (1, 0): 1})
    with pytest.raises(ZeroDivisionError):
        one_plus_t // Poly()
    # and the reference agrees that each of them is inexact
    for a, b in (({(0, 0): 1, (1, 0): 1}, {(0, 0): 1, (0, 1): 1}),
                 ({(0, 0): 1, (2, 0): 1}, {(0, 0): 1, (1, 0): 1})):
        with pytest.raises(ValueError):
            p_div_exact(a, b)


# -- the sparse RREF kernel against a dense Gauss-Jordan reference ---------------


def _dense_rref(rows, ncols):
    """Textbook dense Gauss-Jordan: (reduced rows, pivot columns)."""
    aug = [list(r) for r in rows]
    piv_cols: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = aug[r][c]
        aug[r] = [x / inv for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
    return aug, piv_cols


def _dense_solve(rows, rhs, zero):
    if not rows:
        return []
    m = len(rows[0])
    aug, piv_cols = _dense_rref([list(r) + [v] for r, v in zip(rows, rhs)], m)
    if any(aug[i][m] for i in range(len(piv_cols), len(aug))) or len(piv_cols) < m:
        return None
    x = [zero] * m
    for i, c in enumerate(piv_cols):
        x[c] = aug[i][m]
    return x


def _dense_nullspace(rows, ncols, zero, one):
    aug, piv_cols = _dense_rref(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in piv_cols):
        vec = [zero] * ncols
        vec[fc] = one
        for i, pc in enumerate(piv_cols):
            vec[pc] = -aug[i][fc]
        basis.append(vec)
    return basis


def _random_system(rng, n, m, rank, fill=0.4):
    """n x m integer Fraction matrix of rank <= rank, sparse-ish, as a product."""
    left = [[Fraction(rng.randint(-3, 3)) if rng.random() < fill else Fraction(0)
             for _ in range(rank)] for _ in range(n)]
    right = [[Fraction(rng.randint(-3, 3)) if rng.random() < fill else Fraction(0)
              for _ in range(m)] for _ in range(rank)]
    return [[sum((left[i][k] * right[k][j] for k in range(rank)), Fraction(0))
             for j in range(m)] for i in range(n)]


def _matvec(rows, x):
    return [sum((a * b for a, b in zip(r, x)), Fraction(0)) for r in rows]


SHAPES = ["square", "singular", "inconsistent", "underdetermined", "tall", "zero_rows"]


def _shaped_system(rng, shape):
    """A seeded Fraction system (rows, rhs) of the named shape."""
    zero = Fraction(0)
    if shape == "square":
        n = m = rng.randint(1, 7)
        rows = _random_system(rng, n, m, m, fill=0.7)
    elif shape == "singular":
        n = m = rng.randint(2, 7)
        rows = _random_system(rng, n, m, m - 1)
    elif shape == "inconsistent":
        n, m = rng.randint(3, 8), rng.randint(1, 4)
        rows = _random_system(rng, n, m, m)
    elif shape == "underdetermined":
        n, m = rng.randint(1, 5), rng.randint(6, 9)
        rows = _random_system(rng, n, m, n, fill=0.7)
    elif shape == "tall":
        n, m = rng.randint(6, 10), rng.randint(1, 5)
        rows = _random_system(rng, n, m, m, fill=0.7)
    else:
        n = m = rng.randint(2, 7)
        rows = _random_system(rng, n, m, m, fill=0.7)
        for i in rng.sample(range(n), rng.randint(1, n - 1)):
            rows[i] = [zero] * m
    if shape == "inconsistent":
        rhs = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
    else:
        rhs = _matvec(rows, [Fraction(rng.randint(-5, 5)) for _ in range(m)])
    return rows, rhs


@pytest.mark.parametrize("shape", SHAPES)
def test_gauss_kernel_matches_dense_reference(shape):
    rng = random.Random(sum(map(ord, shape)))
    zero, one = Fraction(0), Fraction(1)
    checked = 0
    for _ in range(25):
        rows, rhs = _shaped_system(rng, shape)
        m = len(rows[0])
        want = _dense_solve(rows, rhs, zero)
        assert gauss_solve(rows, rhs, zero) == want
        if want is not None:
            assert _matvec(rows, want) == rhs
        basis = _dense_nullspace(rows, m, zero, one)
        assert gauss_nullspace(rows, m, zero, one) == basis
        if shape in ("square", "tall"):
            checked += want is not None
        elif shape == "singular":
            checked += bool(basis)
        else:
            checked += want is None
    assert checked >= 5, "the seeded systems never reach the shape under test"


def _mod_p(x: Fraction) -> ModP:
    """The rational x reduced into Z/PZ (P divides none of the test denominators)."""
    return ModP(x.numerator * pow(x.denominator, -1, P))


def _rows_mod_p(rows):
    return [{c: _mod_p(x) for c, x in row.items()} for row in rows]


def sparse_solve(rows, ncols, zero):
    """Solve from sparse rows {col: value} with the right-hand side at col ncols, through _rref.

    Returns x, or None if the system is inconsistent or underdetermined.
    """
    pivots, rest = _rref(rows, ncols)
    if any(rest) or len(pivots) < ncols:
        return None
    return [row.get(ncols, zero) for _, _, row in pivots]


# the Fraction cases keep their bare shape ids; the ModP cases add "-modp"
FIELD_SHAPES = ([pytest.param(s, Fraction, id=s) for s in SHAPES]
                + [pytest.param(s, ModP, id=f"{s}-modp") for s in SHAPES])


@pytest.mark.parametrize("shape, field", FIELD_SHAPES)
def test_sparse_solve_matches_dense_reference(shape, field):
    """sparse_solve on {col: value} rows, some with explicit zeros, against the dense route.

    Over ModP the rows are the same systems reduced mod P: the RREF and the
    solution must be the Fraction ones reduced mod P.
    """
    rng = random.Random("sparse:" + shape)
    zero = Fraction(0)
    checked = 0
    for _ in range(25):
        rows, rhs = _shaped_system(rng, shape)
        m = len(rows[0])
        sparse = []
        for row, v in zip(rows, rhs):
            entry = {c: x for c, x in enumerate([*row, v]) if x}
            for c in rng.sample(range(m + 1), rng.randint(0, 2)):
                entry.setdefault(c, zero)
            sparse.append(entry)
        want = _dense_solve(rows, rhs, zero)
        if field is ModP:
            pivots, rest = _rref(sparse, m)
            reduced = _rows_mod_p(sparse)
            given = [dict(entry) for entry in reduced]
            got_pivots, got_rest = _rref(reduced, m)
            assert got_pivots == [(c, src, _rows_mod_p([row])[0]) for c, src, row in pivots]
            assert got_rest == _rows_mod_p(rest)
            got = sparse_solve(reduced, m, ModP(0))
            assert got == (None if want is None else [_mod_p(x) for x in want])
            assert reduced == given, "the kernel changed the rows it was given"
        else:
            given = [dict(entry) for entry in sparse]
            got = sparse_solve(sparse, m, zero)
            assert got == want == gauss_solve(rows, rhs, zero)
            assert sparse == given, "the kernel changed the rows it was given"
        if shape in ("singular", "underdetermined", "zero_rows"):
            assert got is None
        checked += (got is None) != (shape in ("square", "tall"))
    assert checked >= 5, "the seeded systems never reach the shape under test"


@pytest.mark.parametrize("field", [Fraction, ModP])
def test_pivot_sources_span_the_inputs_independently(field):
    """The input rows _rref names as pivot sources, against the dense reference.

    On the columns below ncols they have rank len(pivots) and the same RREF,
    so the same row space, as all the inputs together; the augmented column at
    ncols, here independent of the others, is carried along and takes no pivot.
    """
    rng = random.Random("sources:" + field.__name__)
    lift = _mod_p if field is ModP else Fraction
    zero = lift(Fraction(0))
    dropped = 0
    for _ in range(40):
        n, m = rng.randint(1, 9), rng.randint(1, 6)
        rows = _random_system(rng, n, m, rng.randint(1, m))
        sparse = [{c: lift(x) for c, x in enumerate([*row, Fraction(rng.randint(-3, 3))]) if x}
                  for row in rows]
        pivots, _ = _rref(sparse, m)
        srcs = [src for _, src, _ in pivots]
        assert len(set(srcs)) == len(srcs)
        dense = [[row.get(c, zero) for c in range(m)] for row in sparse]
        named, named_cols = _dense_rref([dense[i] for i in srcs], m)
        every, every_cols = _dense_rref(dense, m)
        assert len(named_cols) == len(pivots) == len(every_cols)
        assert named == every[:len(pivots)]
        dropped += n - len(pivots)
    assert dropped >= 20, "the seeded rows never leave a row without a pivot"


def test_mod_p_field_operations():
    a, b = ModP(3), ModP(-5)
    assert b == ModP(P - 5) and b.v == P - 5
    assert a - b == ModP(8) and -a == ModP(P - 3) and a * b == ModP(-15)
    assert (a / b) * b == a
    assert not ModP(P) and ModP(1)
    with pytest.raises(ValueError):
        a / ModP(0)  # 0 has no inverse


def test_sparse_solve_skips_an_explicit_zero_pivot():
    # column 0's shortest holder is the explicit zero of row 0: it must not become the pivot
    zero, one = Fraction(0), Fraction(1)
    rows = [{0: zero, 1: one, 3: Fraction(2)},
            {0: Fraction(2), 1: one, 2: Fraction(3), 3: Fraction(7)},
            {1: one, 2: Fraction(2), 3: Fraction(4)}]
    x = sparse_solve(rows, 3, zero)
    assert x == gauss_solve([[zero, one, zero], [Fraction(2), one, Fraction(3)],
                             [zero, one, Fraction(2)]], [Fraction(2), Fraction(7), Fraction(4)], zero)
    assert x == [one, Fraction(2), one]
    assert sparse_solve(rows[:2], 3, zero) is None
    assert sparse_solve([{0: one, 1: zero}], 1, zero) == [zero]


def test_gauss_kernel_matches_dense_reference_over_qtrat():
    zero = QTRat.zero()
    rows = [[ONE, T, zero, Q],
            [T, ONE + Q, Q * T, zero],
            [ONE + T, ONE + Q + T, Q * T, Q],
            [zero, Q, ONE - T, T * T]]
    rhs = [ONE, Q, ONE + Q, T]
    # rank 3: row 2 is row 0 + row 1, and the rhs is consistent with that
    assert gauss_solve(rows, rhs, zero) is None
    square = [rows[0], rows[1], rows[3]]
    sol = gauss_solve([r[:3] for r in square], [ONE, Q, T], zero)
    assert sol == _dense_solve([r[:3] for r in square], [ONE, Q, T], zero)
    assert sol is not None
    basis = gauss_nullspace(rows, 4, zero, ONE)
    assert basis == _dense_nullspace(rows, 4, zero, ONE)
    assert len(basis) == 1
    assert all(sum((a * b for a, b in zip(r, basis[0])), zero) == zero for r in rows)
