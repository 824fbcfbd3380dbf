"""The integer Weyl-group kernel against references that use no elimination.

Inverses are memoised on the root system and the affine product needs no
inverse at all; both must agree with the group inverse read off a reduced
word, and the Cartan inverse must multiply the Cartan matrix to the identity.
"""
from __future__ import annotations

import random

import pytest

from siflag.affine import AffineElement
from siflag.rootdata import SUPPORTED, Coweight, WeylElement, build_root_system

KERNEL_TYPES = (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("G", 2))


def _reference_inverse(w: WeylElement) -> WeylElement:
    # (s_i1 ... s_ik)^-1 = s_ik ... s_i1
    return w.rs.element_from_word(reversed(w.word()))


def _reference_mul(x: AffineElement, y: AffineElement) -> AffineElement:
    # (w1 t_b1)(w2 t_b2) = (w1 w2) t_{w2^{-1} b1 + b2}
    moved = _reference_inverse(y.finite).act_coweight(Coweight(x.trans))
    trans = tuple(a + b for a, b in zip(moved.coords, y.trans))
    return AffineElement(x.finite * y.finite, trans)


@pytest.mark.parametrize("key", SUPPORTED)
def test_memoised_inverse_matches_fraction_reference(key):
    rs = build_root_system(*key)
    for w in rs.weyl_elements():
        inv = w.inverse()
        assert inv == _reference_inverse(w)
        assert inv.inverse() == w
        assert (w * inv).is_identity()
    assert rs.theta_reflection() is rs.theta_reflection()


@pytest.mark.parametrize("key", SUPPORTED)
def test_cartan_inverse(key):
    rs = build_root_system(*key)
    n = rs.rank
    assert all(
        sum(rs.cartan[i][k] * rs.cartan_inv[k][j] for k in range(n)) == (i == j)
        for i in range(n) for j in range(n)
    )


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


def test_singular_inverse_raises():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError, match="is not a Weyl group element: it is singular"):
        WeylElement(rs, ((0, 0), (0, 1))).inverse()
