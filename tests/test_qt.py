"""Exact q,t rational-function arithmetic."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from siflag.qt import (
    QTRat,
    gauss_nullspace,
    gauss_solve,
    p_gcd,
    p_mul,
    p_str,
    p_sub,
)

Q = QTRat.q()
T = QTRat.t()
ONE = QTRat.one()


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
        return QTRat(num, den)

    for _ in range(40):
        a, b, c = rand(), rand(), rand()
        assert (a + b) * c == a * c + b * c
        if not b.is_zero():
            assert (a / b) * b == a


def test_gcd_cancellation_is_canonical():
    one_minus_qt = p_sub({(0, 0): 1}, {(1, 1): 1})
    sq = p_mul(one_minus_qt, one_minus_qt)
    # gcd is sign-normalized to a positive lex-leading coefficient: qt - 1
    assert p_gcd(sq, one_minus_qt) == {(1, 1): 1, (0, 0): -1}
    r = QTRat(p_mul({(0, 1): 2}, one_minus_qt), p_mul({(0, 0): 4}, sq))
    assert r == QTRat({(0, 1): 1}, p_mul({(0, 0): 2}, one_minus_qt))


def test_denominator_sign_normalized():
    r = QTRat({(0, 0): 1}, {(1, 1): -1, (0, 0): 1})
    s = QTRat({(0, 0): -1}, {(1, 1): 1, (0, 0): -1})
    assert r == s
    # leading (lex-largest) denominator coefficient is positive
    assert max(r.den)[0] >= 0 and r.den[max(r.den)] > 0


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


def test_series_q():
    f = ONE / (ONE - Q * T)
    coeffs = f.series_q(4)
    assert coeffs[0] == ONE
    assert coeffs[3] == T * T * T
    g = (ONE - T) / (ONE - Q * T)
    s = g.series_q(3)
    assert s[0] == ONE - T
    assert s[2] == T * T - T * T * T


def test_p_str_formats():
    assert p_str({(0, 0): 1, (0, 1): -1}) == "1-t"
    assert p_str({(0, 0): 1, (1, 1): -1}) == "1-q*t"
    assert p_str({}) == "0"
    assert p_str({(2, 0): 3}) == "3*q^2"
    f = (ONE - T) / (ONE - Q * T)
    assert f.to_json() == {"num": "1-t", "den": "1-q*t"}


def test_gauss_solve_and_nullspace_over_qtrat():
    rows = [[ONE, T], [T, ONE]]
    rhs = [ONE + T, ONE + T]
    x = gauss_solve(rows, rhs, QTRat.zero())
    assert x == [ONE, ONE]

    # singular matrix: nullspace of [[1, t], [t, t^2]]
    basis = gauss_nullspace([[ONE, T], [T, T * T]], 2, QTRat.zero(), ONE)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + T * v[1] == QTRat.zero()


def test_gauss_solve_over_fraction():
    rows = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    x = gauss_solve(rows, [Fraction(5), Fraction(10)], Fraction(0))
    assert x == [Fraction(1), Fraction(3)]


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


@pytest.mark.parametrize("shape", [
    "square", "singular", "inconsistent", "underdetermined", "tall", "zero_rows"])
def test_gauss_kernel_matches_dense_reference(shape):
    rng = random.Random(sum(map(ord, shape)))
    zero, one = Fraction(0), Fraction(1)
    checked = 0
    for _ in range(25):
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
