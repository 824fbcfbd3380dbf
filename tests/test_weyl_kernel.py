"""The integer Weyl-group kernel against the Fraction reference it replaced.

Inverses are memoised on the root system and the affine product needs no
inverse at all; both must agree with Gauss-Jordan inversion over Fraction.
"""
from __future__ import annotations

import random

import pytest

from siflag.affine import AffineElement
from siflag.rootdata import Coweight, WeylElement, _invert, build_root_system

KERNEL_TYPES = (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("G", 2))


def _reference_inverse(w: WeylElement) -> WeylElement:
    inv = _invert(w.cols)
    return WeylElement(w.rs, tuple(tuple(int(x) for x in row) for row in inv))


def _reference_mul(x: AffineElement, y: AffineElement) -> AffineElement:
    # (w1 t_b1)(w2 t_b2) = (w1 w2) t_{w2^{-1} b1 + b2}
    moved = _reference_inverse(y.finite).act_coweight(Coweight(x.trans))
    trans = tuple(a + b for a, b in zip(moved.coords, y.trans))
    return AffineElement(x.finite * y.finite, trans)


@pytest.mark.parametrize("key", KERNEL_TYPES)
def test_memoised_inverse_matches_fraction_reference(key):
    rs = build_root_system(*key)
    for w in rs.weyl_elements():
        inv = w.inverse()
        assert inv == _reference_inverse(w)
        assert inv.inverse() == w
        assert (w * inv).is_identity()
    assert rs.theta_reflection() is rs.theta_reflection()


@pytest.mark.parametrize("key", KERNEL_TYPES)
def test_affine_product_matches_fraction_reference(key):
    rs = build_root_system(*key)
    elems = rs.weyl_elements()
    rng = random.Random(20160516)
    for _ in range(60):
        x, y = (AffineElement(rng.choice(elems), tuple(rng.randint(-3, 3) for _ in range(rs.rank)))
                for _ in range(2))
        assert x * y == _reference_mul(x, y)


def test_non_integral_inverse_raises():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError, match="not integral"):
        WeylElement(rs, ((2, 0), (0, 1))).inverse()
