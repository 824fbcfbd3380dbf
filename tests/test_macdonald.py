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
    _DensityExpansion,
    _integer_kernel,
    _weight_to_root_int,
    bar_conjugate,
    density_ct_pair,
    density_table,
    gram_schmidt_E,
    hull_weights,
    specialize,
    triangular_order_ideal,
)
from siflag.qt import QTRat
from siflag.rootdata import Weight, build_root_system

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
C2 = build_root_system("C", 2)
G2 = build_root_system("G", 2)

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


# -- reference: the tower expansion density_table replaced ---------------------


def _t_add(a, b):
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _t_mul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            s = out.get(k, 0) + ca * cb
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def _tower_terms(j: int, budget: int, kmax: int):
    """Expansion terms (k, qdeg, tpoly) of (1-u)/(1-tu) for u of q-degree j."""
    out = []
    k = 1
    while k <= kmax and j * k <= budget:
        out.append((k, j * k, {k: 1, k - 1: -1}))
        k += 1
    return out


def _tower_density_table(rs, targets: frozenset, order: int) -> dict:
    """Coefficients of Delta at the target weights: {(root_coords, qdeg): tpoly}.

    Targets are root-lattice points in simple-root coordinates.  The product is
    expanded lazily with a reachability prune, so only states that can still
    close onto a target within the remaining q-budget are materialized.
    """
    if not targets:
        return {}
    rank = rs.rank
    roots = sorted(rs.positive_roots, key=sum, reverse=True)
    tmax = [max(t[i] for t in targets) for i in range(rank)]
    amax = [max(b[i] for b in rs.positive_roots) for i in range(rank)]
    kpos_bound = max(
        (tmax[i] + order * amax[i]) for i in range(rank)
    ) + 1

    # per-suffix feasibility data
    suffix_data = []
    for pos in range(len(roots) + 1):
        rem = roots[pos:]
        neg_cap = [max((b[i] for b in rem), default=0) for i in range(rank)]
        pos_ok = [any(b[i] > 0 for b in rem) for i in range(rank)]
        kernel = _integer_kernel(rem, rank)
        suffix_data.append((neg_cap, pos_ok, kernel))

    def feasible(coords, qleft, pos):
        neg_cap, pos_ok, kernel = suffix_data[pos]
        for tau in targets:
            ok = True
            for i in range(rank):
                d = coords[i] - tau[i]
                if d > qleft * neg_cap[i]:
                    ok = False
                    break
                if d < 0 and not pos_ok[i]:
                    ok = False
                    break
            if not ok:
                continue
            for func in kernel:
                if sum(f * (tau[i] - coords[i]) for i, f in enumerate(func)) != 0:
                    ok = False
                    break
            if ok:
                return True
        return False

    states: dict = {((0,) * rank, 0): {0: 1}}
    for pos, alpha in enumerate(roots):
        # build the full (k, qdeg) -> tpoly series of this root's factor column
        column: dict = {(0, 0): {0: 1}}
        towers = []
        for j in range(0, order + 1):
            towers.append((j, +1, kpos_bound if j == 0 else order // max(j, 1)))
        for j in range(1, order + 1):
            towers.append((j, -1, order // j))
        for j, sign, kmax in towers:
            terms = _tower_terms(j, order, kmax)
            if not terms:
                continue
            new = dict(column)
            for (k0, n0), tp0 in column.items():
                for k, dq, tp in terms:
                    n1 = n0 + dq
                    if n1 > order:
                        continue
                    k1 = k0 + sign * k
                    if k1 > kpos_bound or k1 < -order:
                        continue
                    key = (k1, n1)
                    add = _t_mul(tp0, tp)
                    cur = new.get(key)
                    new[key] = _t_add(cur, add) if cur else add
            column = {k: v for k, v in new.items() if v}

        nxt: dict = {}
        for (coords, n0), tp0 in states.items():
            for (k, dq), tp in column.items():
                n1 = n0 + dq
                if n1 > order:
                    continue
                c1 = tuple(coords[i] + k * alpha[i] for i in range(rank))
                if not feasible(c1, order - n1, pos + 1):
                    continue
                key = (c1, n1)
                add = _t_mul(tp0, tp)
                cur = nxt.get(key)
                nxt[key] = _t_add(cur, add) if cur else add
        states = {k: v for k, v in nxt.items() if v}

    return {key: tp for key, tp in states.items() if key[0] in targets}


def _hull_targets(rs, lam):
    """The pairing targets of PairingTable: nu - mu over the saturated hull of lam."""
    hull = hull_weights(rs, Weight(lam))
    return frozenset(_weight_to_root_int(rs, nu - mu) for mu in hull for nu in hull)


RANK2 = {"A1": A1, "A2": A2, "B2": B2, "C2": C2, "G2": G2}


def _id(value):
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


@pytest.mark.parametrize("name, lam, order", [
    ("A1", (2,), 0), ("A1", (2,), 1), ("A1", (2,), 5), ("A1", (2,), 12), ("A1", (4,), 12),
    ("A2", (1, 0), 6), ("A2", (1, 1), 4),
    ("B2", (1, 0), 5), ("B2", (0, 1), 5),
    ("C2", (1, 0), 5), ("C2", (0, 1), 6),
    ("G2", (1, 0), 4), ("G2", (0, 1), 3),
], ids=_id)
def test_density_table_matches_tower_expansion(name, lam, order):
    rs = RANK2[name]
    targets = _hull_targets(rs, lam)
    assert density_table(rs, targets, order) == _tower_density_table(rs, targets, order)


@pytest.mark.parametrize("name, lam, order", [("A2", (1, 1), 13), ("C2", (0, 1), 17), ("G2", (1, 0), 12)],
                         ids=_id)
def test_density_coefficients_within_majorant(name, lam, order):
    rs = RANK2[name]
    # the packing width comes from the L1 majorants; every decoded coefficient
    # must sit below it, and each entry's coefficient sum below its majorant
    targets = _hull_targets(rs, lam)
    bound = _DensityExpansion(rs, targets, order).run(1, 1)
    half = 1 << max(bound.values()).bit_length()
    table = density_table(rs, targets, order)
    assert table
    for key, tp in table.items():
        assert sum(abs(c) for c in tp.values()) <= bound[key]
        assert all(abs(c) < half for c in tp.values())


def test_density_majorant_violation_raises(monkeypatch):
    # an entry outside its majorant is a bug, reported by an explicit raise; the
    # constant term has coefficient sum 1 = its majorant, so halving trips it
    run = _DensityExpansion.run

    def shrunk(self, t, sign):
        got = run(self, t, sign)
        return {key: v // 2 for key, v in got.items()} if sign > 0 else got

    monkeypatch.setattr(_DensityExpansion, "run", shrunk)
    with pytest.raises(AssertionError, match="exceeds its L1 majorant"):
        density_table(A1, _hull_targets(A1, (2,)), 4)


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
