"""Gram-Schmidt oracle: order ideals, pairings, anchors, specializations."""
from __future__ import annotations

import os
import subprocess
import sys

import pytest

import siflag

from siflag.charpoly import CharPoly
from siflag.macdonald import (
    EPoly,
    bar_conjugate,
    density_ct_pair,
    gram_schmidt_E,
    hull_weights,
    specialize,
    triangular_order_ideal,
)
from siflag.qt import QTRat
from siflag.rootdata import Weight, build_root_system

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)

ONE = QTRat.one()
Q = QTRat.q()
T = QTRat.t()


def test_order_ideal_examples():
    w = A1.fundamental_weight(1)
    assert [x.coords for x in triangular_order_ideal(A1, -w)] == [(1,), (-1,)]
    assert [x.coords for x in triangular_order_ideal(A1, w)] == [(1,)]
    assert [x.coords for x in triangular_order_ideal(A1, Weight((0,)))] == [(0,)]


def test_order_ideal_antidominant_is_full_orbit():
    gamma = Weight((0, -1))  # = w0(w1) in A2, antidominant end of the w1-orbit
    ideal = triangular_order_ideal(A2, gamma)
    assert [x.coords for x in ideal] == [(1, 0), (-1, 1), (0, -1)]


def test_hull_weights():
    assert {w.coords for w in hull_weights(A1, Weight((2,)))} == {(2,), (0,), (-2,)}
    rho = A2.rho()
    hull = hull_weights(A2, rho)
    assert len(hull) == 7  # six-point orbit plus the origin
    assert Weight((0, 0)) in hull


def test_density_ct_pair_trivials():
    one = {Weight((0,) * A1.rank): ONE}
    assert density_ct_pair(A1, one, one, 0) == ONE

    w = A1.fundamental_weight(1)
    f1 = {w: ONE}
    f2 = {-w: ONE}
    lhs = density_ct_pair(A1, {w: ONE, -w: ONE}, f1, 4)
    assert lhs == density_ct_pair(A1, f1, f1, 4) + density_ct_pair(A1, f2, f1, 4)


def test_a1_calibration_anchor_exact():
    w = A1.fundamental_weight(1)
    E = gram_schmidt_E(A1, -w)
    assert E.coeff(-w) == ONE
    assert E.coeff(w) == (ONE - T) / (ONE - Q * T)

    assert gram_schmidt_E(A1, w).coeffs == {w: ONE}
    zero = Weight((0,))
    assert gram_schmidt_E(A1, zero).coeffs == {zero: ONE}


def test_gram_schmidt_independent_of_linear_extension():
    gamma = Weight((0, -1))
    fwd = triangular_order_ideal(A2, gamma)
    rev = triangular_order_ideal(A2, gamma, reverse_ties=True)
    assert set(fwd) == set(rev)
    assert fwd[-1] == rev[-1] == gamma

    a = gram_schmidt_E(A2, gamma)
    b = gram_schmidt_E(A2, gamma, reverse_ties=True)
    assert a.coeffs == b.coeffs


def test_orthogonality_postcheck():
    w = A1.fundamental_weight(1)
    E = gram_schmidt_E(A1, -w)
    coeffs = {nu: c for nu, c in E.coeffs.items()}
    for nu in triangular_order_ideal(A1, -w)[:-1]:
        val = density_ct_pair(A1, coeffs, {nu: ONE}, 12)
        assert val.is_zero()


def test_bar_conjugate():
    p = CharPoly.monomial((1,), 0) + CharPoly.monomial((-1,), 1)
    assert bar_conjugate(p) == CharPoly.monomial((-1,), 0) + CharPoly.monomial((1,), 1)
    assert bar_conjugate(bar_conjugate(p)) == p

    w = A1.fundamental_weight(1)
    E = gram_schmidt_E(A1, -w)
    Ed = bar_conjugate(E)
    assert Ed.coeff(w) == ONE
    assert Ed.coeff(-w) == (ONE - T) / (ONE - Q * T)
    assert bar_conjugate(Ed).coeffs == E.coeffs


def test_specialize_examples():
    w = A1.fundamental_weight(1)
    Ed = bar_conjugate(gram_schmidt_E(A1, -w))
    inf_spec = specialize(Ed, "t-inf,q-inv")
    assert inf_spec == CharPoly.monomial((1,), 0) + CharPoly.monomial((-1,), 1)
    zero_spec = specialize(Ed, "t-0")
    assert zero_spec == CharPoly.monomial((1,), 0) + CharPoly.monomial((-1,), 0)

    e0 = gram_schmidt_E(A1, Weight((0,)))
    for modes in ("t-0", "t-inf", "t-inf,q-inv"):
        assert specialize(e0, modes) == CharPoly.one(1)

    with pytest.raises(ValueError):
        specialize(Ed, "bogus-mode")


def test_specialize_divergence_detected():
    w = A1.fundamental_weight(1)
    diverging = EPoly(w, {w: T})
    with pytest.raises(ValueError):
        specialize(diverging, "t-inf")


def test_oracle_scope_guard():
    a3 = build_root_system("A", 3)
    with pytest.raises(ValueError):
        gram_schmidt_E(a3, a3.fundamental_weight(1))


def test_a2_minuscule_values():
    # E_{-w1} support: the dual orbit, with equal non-leading coefficients
    gamma = Weight((-1, 0))
    E = gram_schmidt_E(A2, gamma)
    support = {w.coords for w in E.support()}
    assert support == {(-1, 0), (1, -1), (0, 1)}
    c = (ONE - T) / (ONE - Q * T)
    assert E.coeff(Weight((0, 1))) == c
    assert E.coeff(Weight((1, -1))) == c


def test_a2_specialization_is_module_character():
    gamma = Weight((-1, 0))
    ch = specialize(bar_conjugate(gram_schmidt_E(A2, gamma)), "t-inf,q-inv")
    expect = (
        CharPoly.monomial((1, 0), 0)
        + CharPoly.monomial((-1, 1), 1)
        + CharPoly.monomial((0, -1), 1)
    )
    assert ch == expect


def test_root_lattice_check_survives_python_O():
    # the invariant checks of macdonald must not be asserts that -O strips
    src = os.path.dirname(os.path.dirname(siflag.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = (
        "from siflag.macdonald import _weight_to_root_int\n"
        "from siflag.rootdata import Weight, build_root_system\n"
        "_weight_to_root_int(build_root_system('A', 1), Weight((1,)))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "AssertionError: weight (1,) is not in the root lattice" in proc.stderr
