"""Gram-Schmidt oracle: order ideals, pairings, anchors, specializations."""
from __future__ import annotations

import gc
import itertools
import random
import subprocess
import sys
from collections import Counter

import pytest

from conftest import fresh_env
from siflag.charpoly import CharPoly
from siflag import cli, macdonald, qt
from siflag.macdonald import (
    _EXTRA_ORDERS,
    EPoly,
    _DensityExpansion,
    _integer_kernel,
    _pairing_table,
    _weight_to_root_int,
    bar_conjugate,
    default_truncation,
    density_table,
    gram_schmidt_E,
    hull_weights,
    specialize,
    triangular_order_ideal,
)
from siflag.qt import Poly, QTRat, gauss_nullspace, gauss_solve
from siflag.rootdata import Weight, build_root_system

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
C2 = build_root_system("C", 2)
G2 = build_root_system("G", 2)

ONE = QTRat.one()
Q = QTRat.q()
T = QTRat.t()


@pytest.fixture
def fresh_caches(monkeypatch):
    """Fresh E and pairing-table caches, so a test sees the same cold oracle alone or in any order."""
    monkeypatch.setattr(macdonald, "_E_CACHE", {})
    monkeypatch.setattr(macdonald, "_PAIR_CACHE", {})


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


# -- reference: pairings and q-expansions in Q(t), coefficient by coefficient -----


def _tp_to_qtrat(tp: Poly) -> QTRat:
    return QTRat(Poly({0: tp}) if tp else Poly())


def series_q(f: QTRat, order: int) -> list[QTRat]:
    """Power-series expansion of f in q to the given order; coefficients are t-only."""
    if not f.num:
        return [QTRat.zero()] * (order + 1)
    vd = min(f.den)
    if min(f.num) < vd:
        raise ValueError("negative q-valuation: not a power series")
    d0 = QTRat(Poly({0: f.den[vd]}))
    out: list[QTRat] = []
    for n in range(order + 1):
        c = f.num.get(n + vd)
        acc = QTRat(Poly({0: c})) if c else QTRat.zero()
        for k in range(1, n + 1):
            dk = f.den.get(k + vd)
            if dk:
                acc = acc - QTRat(Poly({0: dk})) * out[n - k]
        out.append(acc / d0)
    return out


def density_ct_pair(rs, f: dict, g: dict, order: int) -> QTRat:
    """Constant term of f g* Delta, per q-order up to the given order, as one QTRat.

    f and g map Weights to QTRat coefficients; g* sends e^mu to e^{-mu}.  The
    result is the exact pairing against the q-truncated density, a polynomial
    in q of degree <= order with Q(t) coefficients.
    """
    targets = {_weight_to_root_int(rs, nu - mu) for mu in f for nu in g}
    table = density_table(rs, frozenset(targets), order)
    # accumulate strictly per q-order: orders beyond the truncation are unknown
    per_order = [QTRat.zero() for _ in range(order + 1)]
    for mu, cf in f.items():
        for nu, cg in g.items():
            key = _weight_to_root_int(rs, nu - mu)
            coeff_series = series_q(cf * cg, order)
            for n in range(order + 1):
                acc = QTRat.zero()
                for k in range(n + 1):
                    tp = table.get((key, n - k))
                    if tp and not coeff_series[k].is_zero():
                        acc = acc + coeff_series[k] * _tp_to_qtrat(tp)
                if not acc.is_zero():
                    per_order[n] = per_order[n] + acc
    total = QTRat.zero()
    for n, c in enumerate(per_order):
        if not c.is_zero():
            total = total + c * QTRat.q(n)
    return total


def test_series_q():
    f = ONE / (ONE - Q * T)
    coeffs = series_q(f, 4)
    assert coeffs[0] == ONE
    assert coeffs[3] == T * T * T
    g = (ONE - T) / (ONE - Q * T)
    s = series_q(g, 3)
    assert s[0] == ONE - T
    assert s[2] == T * T - T * T * T


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
    ("A1", (4,), 29),
    ("A2", (1, 0), 6), ("A2", (1, 1), 4),
    ("B2", (1, 0), 5), ("B2", (0, 1), 5),
    ("C2", (1, 0), 5), ("C2", (0, 1), 6),
    ("G2", (1, 0), 4), ("G2", (0, 1), 3),
], ids=_id)
def test_density_table_matches_tower_expansion(name, lam, order):
    rs = RANK2[name]
    targets = _hull_targets(rs, lam)
    assert density_table(rs, targets, order) == _tower_density_table(rs, targets, order)


def test_density_table_without_targets_is_empty():
    assert density_table(A2, frozenset(), 4) == {}


# the tables behind CONTENT_CASES: A1 up to 6, the rank-two fundamentals, B2 (1,1)
EXACT_WIDTH_CASES = ([("A1", (n,)) for n in range(1, 7)]
                     + [(name, lam) for name in ("A2", "B2", "C2", "G2") for lam in ((1, 0), (0, 1))]
                     + [("B2", (1, 1))])


@pytest.mark.parametrize("name, lam", EXACT_WIDTH_CASES, ids=_id)
def test_density_at_its_exact_width_equals_wider_widths(monkeypatch, name, lam):
    # the density packs at bit_length + 1 of its largest majorant; at the
    # 16-bit rounding the later stages use, and 16 bits beyond it, the table
    # is the same.  The exact-width table is read off the cached pairing
    # table, which other tests share (G2's tables take seconds per width, so
    # there only the 16-bit rounding is compared).
    rs, lam = RANK2[name], Weight(lam)
    order = default_truncation(rs, lam) + _EXTRA_ORDERS
    table = _pairing_table(rs, lam, order)
    hull = hull_weights(rs, lam)
    want = {(_weight_to_root_int(rs, nu - mu), n): tp
            for mu in hull for nu in hull for n, tp in enumerate(table.series(mu, nu)) if tp}
    targets = _hull_targets(rs, lam.coords)
    width = macdonald._width
    for wider in (width, lambda bound: width(bound) + 16)[:1 if name == "G2" else 2]:
        monkeypatch.setattr(macdonald, "_exact_width", wider)
        assert density_table(rs, targets, order) == want


@pytest.mark.parametrize("name", sorted(RANK2))
def test_integer_kernel_vanishes_on_its_suffix(name):
    # the density's reachability functionals are integer tuples, one per
    # dimension the suffix's roots leave free
    rs = RANK2[name]
    roots = sorted(rs.positive_roots, key=sum, reverse=True)
    for pos in range(len(roots) + 1):
        kernel = _integer_kernel(roots[pos:], rs.rank)
        assert all(type(f) is int for func in kernel for f in func)
        assert all(sum(f * b for f, b in zip(func, root)) == 0
                   for func in kernel for root in roots[pos:])
        # no two positive roots are parallel, so the suffix spans min(len, rank)
        assert len(kernel) == rs.rank - min(len(roots) - pos, rs.rank)
        assert all(any(func) for func in kernel)


@pytest.mark.parametrize("name", ["A2", "B2", "C2", "G2", "A3"])
def test_density_group_fixes_what_no_remaining_root_raises(name):
    # _DensityExpansion.need divides by a coordinate's cap wherever coords
    # exceeds its target, and cap is 0 exactly where no remaining root is
    # positive: there every target in the group of coords must equal coords
    rs = RANK2[name] if name in RANK2 else build_root_system("A", 3)
    targets = frozenset(itertools.product(range(-2, 3), repeat=rs.rank))
    expansion = _DensityExpansion(rs, targets, 2)
    fixed_seen = 0
    for pos, (_, kernel, groups, _) in enumerate(expansion.suffix):
        rem = expansion.roots[pos:]
        fixed = [i for i in range(rs.rank) if not any(b[i] > 0 for b in rem)]
        fixed_seen += bool(rem and fixed)
        for coords in itertools.product(range(-3, 4), repeat=rs.rank):
            for tau in groups.get(macdonald._image(kernel, coords), ()):
                assert all(coords[i] == tau[i] for i in fixed), (pos, coords, tau)
    assert fixed_seen


# -- reference: the q-binomial convolution _FactorColumn replaced ---------------


class _QBinomialColumn:
    """col(k) = sum_{b >= 0} q^b C_b C_{k+b}, C_a = prod_{i < a} (t - q^i) / (1 - q^{i+1}).

    The factor column as the q-binomial theorem gives it, one convolution per
    k, as dense q-series up to q^order; col(-k) = q^k col(k).
    """

    def __init__(self, t, sign, order: int):
        self.t = t
        self.sign = sign
        self.order = order
        self.c = [[1] + [0] * order]  # C_a as dense q-series
        self.memo: dict = {}

    def _c(self, a: int) -> list:
        order = self.order
        while len(self.c) <= a:
            i = len(self.c) - 1
            prev = self.c[i]
            # times (t + sign q^i), then over (1 - q^{i+1}) as a strided prefix sum
            cur = [self.t * x for x in prev]
            for n in range(i, order + 1):
                cur[n] += self.sign * prev[n - i]
            for n in range(i + 1, order + 1):
                cur[n] += cur[n - i - 1]
            self.c.append(cur)
        return self.c[a]

    def __call__(self, k: int) -> list:
        got = self.memo.get(k)
        if got is not None:
            return got
        order = self.order
        if k < 0:
            got = ([0] * -k + self(-k))[:order + 1]
        else:
            out = [0] * (order + 1)
            for b in range(order + 1):
                cb = self._c(b)
                ckb = self._c(k + b)
                for i in range(order + 1 - b):
                    x = cb[i]
                    if x:
                        for j in range(order + 1 - b - i):
                            out[b + i + j] += x * ckb[j]
            got = out
        self.memo[k] = got
        return got


class _TPoly(Poly):
    """A t-polynomial that adds and multiplies with ints too, so a column runs on it symbolically."""

    @staticmethod
    def lift(x) -> Poly:
        return x if isinstance(x, Poly) else Poly({0: x} if x else {})

    def __add__(self, other):
        return _TPoly(Poly.__add__(self, self.lift(other)))

    __radd__ = __add__

    def __mul__(self, other):
        return _TPoly(Poly.__mul__(self, self.lift(other)))

    __rmul__ = __mul__


_COLUMN_ORDER = 29  # the density order of the A1 orbit of 4


@pytest.fixture(scope="module")
def qbinomial_columns():
    """{k: [t-polynomial per q-degree]} of the convolution, -order <= k <= order."""
    ref = _QBinomialColumn(_TPoly({1: 1}), _TPoly({0: -1}), _COLUMN_ORDER)
    return {k: [Poly(_TPoly.lift(x)) for x in ref(k)]
            for k in range(-_COLUMN_ORDER, _COLUMN_ORDER + 1)}


def test_factor_column_is_the_qbinomial_convolution(qbinomial_columns):
    # the 1psi1 closed form, run on symbolic t-polynomials
    column = macdonald._FactorColumn(_TPoly({1: 1}), _TPoly({0: -1}), _COLUMN_ORDER)
    for k, want in qbinomial_columns.items():
        assert [_TPoly.lift(x) for x in column.series(k)] == want, k


def test_packed_factor_column_decodes_to_the_convolution(qbinomial_columns):
    # the density's packed run, at the least width that holds the column and at a wider one
    top = max(abs(c) for col in qbinomial_columns.values() for tp in col for c in tp.values())
    for bits in (macdonald._width(top), macdonald._width(top) + 13):
        column = macdonald._FactorColumn(macdonald._pack(macdonald._T, bits),
                                         macdonald._pack(macdonald._MINUS_ONE, bits), _COLUMN_ORDER)
        for k, want in qbinomial_columns.items():
            got = {n: macdonald._unpack(x << z, bits) for n, x, z in column(k)}
            assert got == {n: tp for n, tp in enumerate(want) if tp}, (bits, k)


def test_l1_factor_column_majorizes_the_convolution(qbinomial_columns):
    # the density's L1 run: every entry at least the coefficient sum it stands
    # for, and equal to the convolution's own L1 run, so the density's packing
    # width stays what it was
    one, sign = macdonald._l1(macdonald._T), macdonald._l1(macdonald._MINUS_ONE)
    column = macdonald._FactorColumn(one, sign, _COLUMN_ORDER)
    convolution = _QBinomialColumn(one, sign, _COLUMN_ORDER)
    for k, want in qbinomial_columns.items():
        got = {n: x << z for n, x, z in column(k)}
        for n, tp in enumerate(want):
            assert got.get(n, 0) >= macdonald._l1(tp), (k, n)
        assert column.series(k) == convolution(k), k


@pytest.mark.parametrize("name, lam, order", [("A2", (1, 1), 13), ("C2", (0, 1), 17), ("G2", (1, 0), 12)],
                         ids=_id)
def test_density_coefficients_within_majorant(name, lam, order):
    rs = RANK2[name]
    # the packing width comes from the L1 majorants; every decoded coefficient
    # must sit below it, and each entry's coefficient sum below its majorant
    targets = _hull_targets(rs, lam)
    bound = _DensityExpansion(rs, targets, order).run(macdonald._Series.l1s)
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

    def shrunk(self, value):
        got = run(self, value)
        return {key: v // 2 for key, v in got.items()} if value is macdonald._Series.l1s else got

    monkeypatch.setattr(_DensityExpansion, "run", shrunk)
    with pytest.raises(AssertionError, match="exceeds its L1 majorant"):
        density_table(A1, _hull_targets(A1, (2,)), 4)


def test_convolve_majorant_violation_raises(monkeypatch):
    # _convolve checks its decoded sums against their majorants as well: a
    # packed run that doubles every value puts each sum over its majorant
    pairs = [({0: Poly({0: 1, 1: 1})}, [Poly({0: 1})])]
    assert macdonald._convolve(pairs, 0) == [Poly({0: 1, 1: 1})]
    pack = macdonald._pack
    monkeypatch.setattr(macdonald, "_pack", lambda tp, bits: 2 * pack(tp, bits))
    with pytest.raises(AssertionError, match="exceeds its L1 majorant"):
        macdonald._convolve(pairs, 0)


def test_a1_calibration_anchor_exact():
    w = A1.fundamental_weight(1)
    E = gram_schmidt_E(A1, -w)
    assert E.coeffs == {-w: ONE, w: (ONE - T) / (ONE - Q * T)}

    assert gram_schmidt_E(A1, w).coeffs == {w: ONE}
    zero = Weight((0,))
    assert gram_schmidt_E(A1, zero).coeffs == {zero: ONE}


def test_gram_schmidt_independent_of_linear_extension(monkeypatch, fresh_caches):
    # weights whose unknowns include ties in height, so the two listings differ
    cases = [(rs, Weight(coords))
             for rs, coords in ((A2, (-2, 0)), (B2, (0, -2)), (C2, (-2, 0)), (G2, (0, -1)))]
    listed = macdonald._unknowns

    def reversed_ties(rs, gamma):
        lower = macdonald.triangular_order_ideal(rs, gamma)[:-1]
        lower.reverse()
        return sorted(lower, key=lambda nu: sum(rs.weight_to_root(nu)))

    forward = {}
    for rs, gamma in cases:
        fwd, rev = listed(rs, gamma), reversed_ties(rs, gamma)
        assert fwd != rev and set(fwd) == set(rev)
        forward[rs.key, gamma] = gram_schmidt_E(rs, gamma)
    monkeypatch.setattr(macdonald, "_unknowns", reversed_ties)
    macdonald._E_CACHE.clear()
    for rs, gamma in cases:
        assert gram_schmidt_E(rs, gamma).coeffs == forward[rs.key, gamma].coeffs


def test_orthogonality_postcheck():
    w = A1.fundamental_weight(1)
    E = gram_schmidt_E(A1, -w)
    coeffs = {nu: c for nu, c in E.coeffs.items()}
    for nu in triangular_order_ideal(A1, -w)[:-1]:
        val = density_ct_pair(A1, coeffs, {nu: ONE}, 12)
        assert val.is_zero()


def test_bar_conjugate():
    w = A1.fundamental_weight(1)
    E = gram_schmidt_E(A1, -w)
    Ed = bar_conjugate(E)
    assert Ed.gamma == w
    assert Ed.coeffs == {w: ONE, -w: (ONE - T) / (ONE - Q * T)}
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

    # each mode has one spelling
    for mode in ("bogus-mode", "tinf", "t->inf", "t0", "qinv", " t-inf"):
        with pytest.raises(ValueError, match="unknown specialization mode"):
            specialize(Ed, mode)


def test_specialize_divergence_detected():
    w = A1.fundamental_weight(1)
    diverging = EPoly(w, {w: T})
    with pytest.raises(ValueError):
        specialize(diverging, "t-inf")


def test_gram_schmidt_past_the_default_truncation_raises(fresh_caches):
    # A1 -7 needs a higher truncation order than the default, and the Pade
    # step says so (emac no longer reaches this wall: it runs cherednik_E)
    with pytest.raises(ValueError) as exc:
        gram_schmidt_E(A1, Weight((-7,)))
    assert exc.value.args == (macdonald._NO_FRACTION,)


def test_oracle_scope_guard():
    a3 = build_root_system("A", 3)
    with pytest.raises(ValueError):
        gram_schmidt_E(a3, a3.fundamental_weight(1))


def test_a2_minuscule_values():
    # E_{-w1} support: the dual orbit, with equal non-leading coefficients
    gamma = Weight((-1, 0))
    E = gram_schmidt_E(A2, gamma)
    c = (ONE - T) / (ONE - Q * T)
    assert E.coeffs == {gamma: ONE, Weight((0, 1)): c, Weight((1, -1)): c}


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
    code = (
        "from siflag.macdonald import _weight_to_root_int\n"
        "from siflag.rootdata import Weight, build_root_system\n"
        "_weight_to_root_int(build_root_system('A', 1), Weight((1,)))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=fresh_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "AssertionError: weight (1,) is not in the root lattice" in proc.stderr


# -- reference: the Q(t) route of the packed solve, Pade step and re-verification --


def _solve_orthogonality(gram, rhs_series, big):
    """Per-q-order solve of sum_mu c_mu <e^mu, e^nu> = -<e^gamma, e^nu> over Q(t)."""
    m = len(rhs_series)
    zero = QTRat.zero()
    g0 = [[_tp_to_qtrat(gram[row][col][0]) for col in range(m)] for row in range(m)]
    out: list[list[QTRat]] = []
    for n in range(big + 1):
        rhs = []
        for row in range(m):
            acc = -_tp_to_qtrat(rhs_series[row][n])
            for k in range(1, n + 1):
                for col in range(m):
                    gk = gram[row][col][k]
                    if gk:
                        acc = acc - _tp_to_qtrat(gk) * out[n - k][col]
            rhs.append(acc)
        x = gauss_solve([list(r) for r in g0], rhs, zero)
        if x is None:
            raise ValueError(
                "pairing matrix singular at order 0: truncation too small or order ideal wrong")
        out.append(x)
    return out


def _pade_reconstruct(series: list[QTRat], order: int) -> QTRat:
    """Exact rational reconstruction of a Q(t)-coefficient q-series.

    Fits numerator/denominator degrees about order/2 on the first orders, then
    demands the reconstruction reproduce every available order.
    """
    if all(c.is_zero() for c in series):
        return QTRat.zero()
    dq = order // 2
    dp = order - dq

    zero = QTRat.zero()
    one = QTRat.one()
    rows = []
    for n in range(dp + 1, dp + dq + 1):
        rows.append([series[n - j] if 0 <= n - j <= order else zero for j in range(dq + 1)])
    candidates = gauss_nullspace(rows, dq + 1, zero, one) if rows else [[one]]
    q_var = QTRat.q()
    for vec in candidates:
        if all(c.is_zero() for c in vec):
            continue
        den = zero
        for j, c in enumerate(vec):
            if not c.is_zero():
                den = den + c * QTRat.q(j)
        if den.is_zero():
            continue
        # numerator = truncation of series * den to q-degree dp
        num = zero
        for n in range(dp + 1):
            acc = zero
            for j in range(min(n, dq) + 1):
                acc = acc + vec[j] * series[n - j]
            num = num + acc * QTRat.q(n)
        cand = num / den
        try:
            expanded = series_q(cand, len(series) - 1)
        except ValueError:
            continue
        if all(expanded[n] == series[n] for n in range(len(series))):
            return cand
    raise ValueError("rational reconstruction failed: raise the truncation order")


def _verify_orthogonality(rs, epoly: EPoly, lower, table: PairingTable):
    """<E, e^nu> must vanish identically through every computed q-order."""
    big = table.order
    coeff_series = {}
    for mu, c in epoly.coeffs.items():
        coeff_series[mu] = series_q(c, big)
    for nu in lower:
        pair_series = {mu: table.series(mu, nu) for mu in coeff_series}
        for n in range(big + 1):
            acc = QTRat.zero()
            for mu, cs in coeff_series.items():
                ps = pair_series[mu]
                for k in range(n + 1):
                    tp = ps[n - k]
                    if tp and not cs[k].is_zero():
                        acc = acc + cs[k] * _tp_to_qtrat(tp)
            if not acc.is_zero():
                raise AssertionError(f"orthogonality fails against {nu} at q^{n}")


def _reference_coeffs(rs, gamma):
    """The coefficients of E_gamma by the Q(t) route, on the oracle's own pairing table."""
    order = default_truncation(rs, gamma)
    lower = triangular_order_ideal(rs, gamma)[:-1]
    if not lower:
        return {gamma: ONE}
    gamma_plus, _ = rs.dominant_representative(gamma)
    big = order + _EXTRA_ORDERS
    table = _pairing_table(rs, gamma_plus, big)
    gram = [[table.series(mu, nu) for mu in lower] for nu in lower]
    rhs_series = [table.series(gamma, nu) for nu in lower]
    series = _solve_orthogonality(gram, rhs_series, big)
    coeffs = {gamma: ONE}
    for idx, nu in enumerate(lower):
        coeffs[nu] = _pade_reconstruct([series[n][idx] for n in range(big + 1)], order)
    _verify_orthogonality(rs, EPoly(gamma, coeffs), lower, table)
    return coeffs


REFERENCE_CASES = (
    [("A1", (g,)) for g in range(-4, 5)]
    + [("A2", g) for g in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1), (-1, -1))]
    + [(name, g) for name in ("B2", "C2") for g in ((-1, 0), (0, -1), (1, -1), (-1, 1))]
)


@pytest.mark.parametrize("name, gamma", REFERENCE_CASES, ids=_id)
def test_gram_schmidt_matches_qt_reference(name, gamma):
    rs = RANK2[name]
    gamma = Weight(gamma)
    assert gram_schmidt_E(rs, gamma).coeffs == _reference_coeffs(rs, gamma)


def _random_tpoly(rng):
    return Poly({d: c for d in range(rng.randrange(3)) if (c := rng.randint(-3, 3))})


@pytest.mark.parametrize("rows, cols, rank", [(3, 4, 1), (4, 5, 2), (5, 6, 3), (6, 7, 6)])
def test_null_vector_spans_the_first_free_column(rows, cols, rank):
    # low-rank matrices over Z[t] with zero entries, so pivots need row swaps,
    # packed at the width of their minors: Bareiss on input that is no Toeplitz
    # matrix; the null vector must be the field kernel's first basis vector up to scale
    rng = random.Random(f"{rows}x{cols}/{rank}")
    for _ in range(20):
        left = [[_random_tpoly(rng) for _ in range(rank)] for _ in range(rows)]
        right = [[_random_tpoly(rng) for _ in range(cols)] for _ in range(rank)]
        matrix = [[sum((left[i][k] * right[k][j] for k in range(rank)), Poly())
                   for j in range(cols)] for i in range(rows)]
        bits = macdonald._minor_width([[macdonald._l1(a) for a in row] for row in matrix])
        vec = macdonald._null_vector([[macdonald._pack(a, bits) for a in row] for row in matrix], bits)
        assert any(vec)
        for row in matrix:
            assert not sum((a * v for a, v in zip(row, vec)), Poly())
        basis = gauss_nullspace([[_tp_to_qtrat(a) for a in row] for row in matrix],
                                cols, QTRat.zero(), ONE)
        first = [_tp_to_qtrat(v) for v in vec]
        j = next(j for j, v in enumerate(first) if v)
        assert all(x * basis[0][j] == u * first[j] for x, u in zip(first, basis[0]))


# -- every check of the packed route still fires --------------------------------


def _fresh_series(rs, gamma):
    """The coefficient q-series of the packed solve for E_gamma, with the Pade order and table."""
    order = default_truncation(rs, gamma)
    lower = macdonald._unknowns(rs, gamma)
    gamma_plus, _ = rs.dominant_representative(gamma)
    table = _pairing_table(rs, gamma_plus, order + _EXTRA_ORDERS)
    gram = [[table.series(mu, nu) for mu in lower] for nu in lower]
    rhs_series = [table.series(gamma, nu) for nu in lower]
    return macdonald._solve_orthogonality(gram, rhs_series), order, lower, table


def test_pade_rejects_a_series_outside_the_box():
    series, order, _, _ = _fresh_series(A1, Weight((-2,)))
    assert macdonald._pade_reconstruct(series[0], order)
    # the box fit sees orders up to `order`; the extra orders must still agree
    bent = list(series[0])
    bent[-1] = bent[-1] + Poly({3: 1})
    with pytest.raises(ValueError, match="rational reconstruction failed"):
        macdonald._pade_reconstruct(bent, order)
    # factorials: no fraction of degree <= 2 over 2 fits ten orders
    facts = [Poly({0: 1})]
    for n in range(1, 10):
        facts.append(Poly({0: facts[-1][0] * n}))
    with pytest.raises(ValueError, match="rational reconstruction failed"):
        macdonald._pade_reconstruct(facts, 4)


def _tps(*coeff_lists):
    return [Poly({d: c for d, c in enumerate(cs) if c}) for cs in coeff_lists]


# a 2x2 Gram system over Z[t] through q^3, order-0 block [[1, 0], [1 - t, 1]]
_LOWER_BLOCK = (
    [[_tps([1], [0, 1], [], [2]), _tps([], [1], [0, 1], [])],
     [_tps([1, -1], [], [3], [0, 1]), _tps([1], [], [0, 0, 1], [1])]],
    [_tps([1], [0, 2], [-1], []), _tps([0, 1], [1], [], [1, 1])],
)


def test_order0_block_must_be_unimodular():
    one = [Poly({0: 1})]
    with pytest.raises(ValueError, match="not unimodular over Z\\[t\\]"):
        macdonald._solve_orthogonality([[[Poly({0: 2})]]], [one])
    with pytest.raises(ValueError, match="not unimodular over Z\\[t\\]"):
        macdonald._solve_orthogonality([[[Poly({0: 1, 1: 1})]]], [one])
    with pytest.raises(ValueError, match="pairing matrix singular at order 0"):
        macdonald._solve_orthogonality([[[Poly()]]], [one])

    # a unit lower triangular block is solved by substitution, as over Q(t)
    gram, rhs_series = _LOWER_BLOCK
    got = macdonald._solve_orthogonality(gram, rhs_series)
    want = _solve_orthogonality(gram, rhs_series, len(rhs_series[0]) - 1)
    assert [[_tp_to_qtrat(tp) for tp in xs] for xs in got] == [list(col) for col in zip(*want)]
    # its transpose is unimodular too, but not listed by height
    with pytest.raises(ValueError, match="not unimodular over Z\\[t\\]"):
        macdonald._solve_orthogonality([list(col) for col in zip(*gram)], rhs_series)


def test_order0_block_check_survives_python_O():
    code = (
        "from siflag.macdonald import _solve_orthogonality\n"
        "from siflag.qt import Poly\n"
        "one, tp = Poly({0: 1}), Poly({0: 1, 1: -1})\n"
        "_solve_orthogonality([[[one], [tp]], [[Poly()], [one]]], [[one], [one]])\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=fresh_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "ValueError: order-0 pairing block is not unimodular over Z[t]" in proc.stderr


def test_perturbed_coefficient_fails_reverification():
    gamma = Weight((-3,))
    E = gram_schmidt_E(A1, gamma)
    _, _, lower, table = _fresh_series(A1, gamma)
    macdonald._verify_orthogonality(E, lower, table)
    nu = lower[0]
    for bump in (QTRat.q(table.order), T * QTRat.q(2) / (ONE - Q)):
        coeffs = dict(E.coeffs)
        coeffs[nu] = coeffs[nu] + bump
        with pytest.raises(AssertionError, match="orthogonality fails against"):
            macdonald._verify_orthogonality(EPoly(gamma, coeffs), lower, table)
    # a common denominator divisible by q is no unit in Q(t)[[q]]: no verdict
    coeffs = dict(E.coeffs)
    coeffs[nu] = coeffs[nu] / Q
    with pytest.raises(AssertionError, match="coefficients are not power series in q"):
        macdonald._verify_orthogonality(EPoly(gamma, coeffs), lower, table)


def _halve_width(bound):
    # half the bits a bound needs, but the 2 that a signed digit needs (below
    # that _unpack refuses to decode at all, see the test of width 1 below)
    return max(2, (bound.bit_length() + 1) // 2)


def test_halved_packing_width_raises(monkeypatch, fresh_caches):
    # the pairing table stays warm, so only the stages after the density pack
    # with too few bits; the run must raise, not return a wrong E
    gamma = Weight((-2,))
    gram_schmidt_E(A1, gamma)
    macdonald._E_CACHE.clear()
    monkeypatch.setattr(macdonald, "_width", _halve_width)
    with pytest.raises(ValueError, match="rational reconstruction failed"):
        gram_schmidt_E(A1, gamma)
    # halved down to 1 bit, the first Pade rung cannot decode its null vector
    monkeypatch.setattr(macdonald, "_width", lambda bound: (bound.bit_length() + 1) // 2)
    with pytest.raises(ValueError, match="at 1 bit"):
        gram_schmidt_E(A1, gamma)


def test_halved_packing_width_with_a_cold_density_raises(monkeypatch, fresh_caches):
    # the density packs with too few bits as well: its decoded entries wrap into
    # small coefficients that pass their majorant check, so only a later stage
    # can stop the run, and it must, rather than return a wrong E
    monkeypatch.setattr(macdonald, "_width", _halve_width)
    monkeypatch.setattr(macdonald, "_exact_width", _halve_width)
    with pytest.raises(ValueError, match="rational reconstruction failed"):
        gram_schmidt_E(A1, Weight((-2,)))


def test_halved_packing_width_raises_under_python_O():
    code = (
        "from siflag import macdonald\n"
        "from siflag.rootdata import Weight, build_root_system\n"
        "a1, gamma = build_root_system('A', 1), Weight((-2,))\n"
        "macdonald.gram_schmidt_E(a1, gamma)\n"
        "macdonald._E_CACHE.clear()\n"
        "macdonald._width = lambda bound: max(2, (bound.bit_length() + 1) // 2)\n"
        "macdonald.gram_schmidt_E(a1, gamma)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=fresh_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "ValueError: rational reconstruction failed" in proc.stderr


# -- each series packed once per width ----------------------------------------------


def _spy_packs(monkeypatch) -> list:
    """Record every (series, bits) that _Series.pack packs; the reference keeps each id unique."""
    pack, packed = macdonald._Series.pack, []

    def spy(series, bits):
        packed.append((series, bits))
        return pack(series, bits)

    monkeypatch.setattr(macdonald._Series, "pack", spy)
    return packed


def test_cold_gram_schmidt_packs_each_series_once_per_width(monkeypatch, fresh_caches):
    packed = _spy_packs(monkeypatch)
    exact, density_widths = macdonald._exact_width, []
    monkeypatch.setattr(macdonald, "_exact_width",
                        lambda bound: density_widths.append(exact(bound)) or density_widths[-1])
    gram_schmidt_E(A1, Weight((-4,)))
    repeats = Counter((id(series), bits) for series, bits in packed)
    assert packed and max(repeats.values()) == 1
    # the density packs only t and -1, at the exact width of its majorants;
    # every later stage packs at multiples of 16 bits, so they meet only a few
    (density_bits,) = density_widths
    off_grid = [(series, bits) for series, bits in packed if bits % 16]
    assert density_bits % 16 and len(off_grid) == 1
    assert tuple(off_grid[0][0]) == (macdonald._T, macdonald._MINUS_ONE)
    assert off_grid[0][1] == density_bits
    assert len({bits for _, bits in packed if bits % 16 == 0}) <= 3


def _live_series() -> set[int]:
    gc.collect()
    return {id(obj) for obj in gc.get_objects() if type(obj) is macdonald._Series}


@pytest.mark.parametrize("name, gamma", [("A1", (-4,)), ("A2", (-1, 0))], ids=_id)
def test_no_packed_series_outlives_its_call(monkeypatch, fresh_caches, name, gamma):
    # the only _Series a call leaves alive are the pairings its cached table
    # owns, packed forms and all; the cached E holds none, and dropping the
    # table frees the rest
    before = _live_series()
    gram_schmidt_E(RANK2[name], Weight(gamma))
    (table,) = macdonald._PAIR_CACHE.values()
    owned = {id(series) for series in table.pairings.values()}
    assert any(series._packed for series in table.pairings.values())
    assert _live_series() - before == owned
    del table
    macdonald._PAIR_CACHE.clear()
    assert _live_series() - before == set()


def test_pairing_table_packs_each_series_once_across_an_orbit(monkeypatch, fresh_caches):
    # the three E of A2's omega1 orbit read one cached table, which owns one
    # _Series per weight difference: across the calls each is packed once per width
    packed = _spy_packs(monkeypatch)
    orbit = [Weight(g) for g in ((1, 0), (-1, 1), (0, -1))]
    for gamma in orbit:
        gram_schmidt_E(A2, gamma)
    (table,) = macdonald._PAIR_CACHE.values()
    pairings = {id(series) for series in table.pairings.values()}
    repeats = Counter((id(series), bits) for series, bits in packed if id(series) in pairings)
    assert repeats and max(repeats.values()) == 1
    # a repeated weight difference is the same object, whichever pair reads it
    assert len({id(table.series(mu, mu)) for mu in orbit}) == 1
    assert all(table.series(mu, nu) is table.pairings[(nu - mu).coords]
               for mu in orbit for nu in orbit)


def test_reverification_decodes_nothing(monkeypatch):
    # every sum of the re-verification is only tested for zero on its packed
    # integers; a bent coefficient is still caught
    gamma = Weight((-3,))
    E = gram_schmidt_E(A1, gamma)
    _, _, lower, table = _fresh_series(A1, gamma)
    unpack, decoded = macdonald._unpack, []

    def spy(packed, bits):
        decoded.append(bits)
        return unpack(packed, bits)

    monkeypatch.setattr(macdonald, "_unpack", spy)
    macdonald._verify_orthogonality(E, lower, table)
    coeffs = dict(E.coeffs)
    coeffs[lower[0]] = coeffs[lower[0]] + QTRat.q(table.order)
    with pytest.raises(AssertionError, match=f"at q\\^{table.order}$"):
        macdonald._verify_orthogonality(EPoly(gamma, coeffs), lower, table)
    assert decoded == []
    # the spy sees the oracle's decodes, so the empty list above is a count
    assert macdonald._convolve([({0: Poly({0: 1, 1: 1})}, [Poly({0: 1})])], 0) == [Poly({0: 1, 1: 1})]
    assert decoded


def _oracle_bytes(type_name, gamma) -> str:
    # what emac printed when it ran the oracle: emit of gram_schmidt_E's coefficients
    return cli.emit(dict(gram_schmidt_E(RANK2[type_name], Weight(gamma)).coeffs), "json")


@pytest.mark.parametrize("name, orbit", [("A1", ((3,), (-3,))),
                                         ("A2", ((1, 0), (-1, 1), (0, -1)))], ids=_id)
def test_emac_bytes_independent_of_order_and_cache(monkeypatch, name, orbit):
    # each order of an orbit, with the pairing table cold and then warm, must
    # give the same bytes: nothing packed for one E leaks into another
    got: dict = {}
    for members in (orbit, orbit[::-1]):
        monkeypatch.setattr(macdonald, "_PAIR_CACHE", {})
        for _ in ("cold", "warm"):
            monkeypatch.setattr(macdonald, "_E_CACHE", {})
            for gamma in members:
                got.setdefault(gamma, set()).add(_oracle_bytes(name, gamma))
    assert all(len(outs) == 1 for outs in got.values())
    assert len(got) == len(orbit)


# -- the Gram recurrence as dot products --------------------------------------------


def _loop_gram_recurrence(gram, rhs_series, value) -> dict:
    # the recurrence as a Python double loop over k and the unknowns, the
    # reference for the dot products of macdonald._gram_recurrence
    big = len(rhs_series[0]) - 1
    sign = value(macdonald._Series((macdonald._T, macdonald._MINUS_ONE)))[1]
    gram = [[value(series) for series in row] for row in gram]
    rhs_series = [value(series) for series in rhs_series]
    xs: list[list[int]] = []
    for n in range(big + 1):
        xs.append([])
        for g_row, rhs in zip(gram, rhs_series):
            acc = rhs[n]
            for k in range(n + 1):
                for g, x in zip(g_row, xs[n - k]):
                    if x and g[k]:
                        acc += g[k] * x
            xs[n].append(sign * acc)
    return {(n, i): x for n, row in enumerate(xs) for i, x in enumerate(row)}


@pytest.mark.parametrize("name, gamma", [("A1", (-4,)), ("A2", (-1, 1)), ("B2", (-1, -1))], ids=_id)
def test_gram_recurrence_matches_the_loop(name, gamma):
    # the L1 run and packed runs at the trial, the 16-bit and a 2-bit width
    rs, gamma = RANK2[name], Weight(gamma)
    _, order, lower, table = _fresh_series(rs, gamma)
    gram = [[table.series(mu, nu) for mu in lower] for nu in lower]
    rhs_series = [table.series(gamma, nu) for nu in lower]
    values = [macdonald._Series.l1s] + [
        lambda series, bits=bits: series.packed(bits)
        for bits in (macdonald._trial_width(gram, rhs_series), 16, 2)]
    for value in values:
        assert (macdonald._gram_recurrence(gram, rhs_series, value)
                == _loop_gram_recurrence(gram, rhs_series, value))


# -- the Gram solve's trial width -------------------------------------------------


FALLBACK_CASES = [("A1", (-3,)), ("A2", (-1, 1)), ("B2", (0, -1))]


@pytest.mark.parametrize("name, gamma", FALLBACK_CASES, ids=_id)
def test_too_narrow_trial_width_falls_back(monkeypatch, fresh_caches, name, gamma):
    # at 2 bits the decoded coefficients lie in [-2, 1]: an answer outside that
    # wraps, is rejected and is solved again at the proven width; an answer
    # inside it is exact and is accepted at the trial width
    rs, gamma = RANK2[name], Weight(gamma)
    want = gram_schmidt_E(rs, gamma)
    series, _, _, _ = _fresh_series(rs, gamma)
    fits = all(-2 <= c <= 1 for xs in series for tp in xs for c in tp.values())
    assert fits or name == "A1"  # A1 -3 has coefficients -3 and 2
    macdonald._E_CACHE.clear()
    monkeypatch.setattr(macdonald, "_trial_width", lambda gram, rhs_series: 2)
    solve, widths = macdonald._solve_orthogonality, []

    def spy(gram, rhs_series, bits=None):
        widths.append(bits)
        return solve(gram, rhs_series, bits)

    monkeypatch.setattr(macdonald, "_solve_orthogonality", spy)
    assert gram_schmidt_E(rs, gamma).coeffs == want.coeffs
    assert widths == ([2] if fits else [2, None])


@pytest.mark.parametrize("name, gamma", FALLBACK_CASES, ids=_id)
def test_trial_result_that_pade_accepts_is_still_reverified(monkeypatch, fresh_caches, name, gamma):
    # a wrong trial series that is itself a fraction in the Pade box (c + q^2):
    # Pade accepts it, only the re-verification rejects it, and the proven
    # width must then give the true E
    rs, gamma = RANK2[name], Weight(gamma)
    want = gram_schmidt_E(rs, gamma)
    macdonald._E_CACHE.clear()
    solve, verify, widths, verified = macdonald._solve_orthogonality, macdonald._verify_orthogonality, [], []

    def bent(gram, rhs_series, bits=None):
        widths.append(bits)
        series = solve(gram, rhs_series, bits)
        if bits is not None:
            series[0][2] = series[0][2] + Poly({0: 1})
        return series

    def spy(epoly, lower, table):
        verified.append(epoly.coeffs == want.coeffs)
        return verify(epoly, lower, table)

    monkeypatch.setattr(macdonald, "_solve_orthogonality", bent)
    monkeypatch.setattr(macdonald, "_verify_orthogonality", spy)
    assert gram_schmidt_E(rs, gamma).coeffs == want.coeffs
    assert widths[1:] == [None]
    assert verified == [False, True]


def test_too_narrow_trial_width_falls_back_under_python_O():
    code = (
        "from siflag import macdonald\n"
        "from siflag.rootdata import Weight, build_root_system\n"
        "a1, gamma = build_root_system('A', 1), Weight((-3,))\n"
        "want = macdonald.gram_schmidt_E(a1, gamma)\n"
        "macdonald._E_CACHE.clear()\n"
        "macdonald._trial_width = lambda gram, rhs_series: 2\n"
        "solve, widths = macdonald._solve_orthogonality, []\n"
        "def spy(gram, rhs_series, bits=None):\n"
        "    widths.append(bits)\n"
        "    return solve(gram, rhs_series, bits)\n"
        "macdonald._solve_orthogonality = spy\n"
        "print(macdonald.gram_schmidt_E(a1, gamma).coeffs == want.coeffs, widths)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=fresh_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True [2, None]"


# -- the Pade step's width ladder ---------------------------------------------------


def _spy_ladders(monkeypatch) -> list:
    """Record each Pade call's proven width and the widths of its rungs, [proven, *rungs]."""
    null_vector, minor_width, ladders = macdonald._null_vector, macdonald._minor_width, []

    def width_spy(rows):
        ladders.append([minor_width(rows)])
        return ladders[-1][0]

    def rung_spy(a, bits):
        ladders[-1].append(bits)
        return null_vector(a, bits)

    monkeypatch.setattr(macdonald, "_minor_width", width_spy)
    monkeypatch.setattr(macdonald, "_null_vector", rung_spy)
    return ladders


LADDER_CASES = [("A1", (-4,), True), ("A2", (1, -2), True), ("B2", (1, -2), True),
                ("A2", (-1, 0), False), ("B2", (0, -1), False)]


@pytest.mark.parametrize("name, gamma, wider", LADDER_CASES, ids=_id)
def test_pade_ladder_from_two_bits(monkeypatch, fresh_caches, name, gamma, wider):
    # at 2 bits a decoded null vector has coefficients in [-2, 1]: one outside
    # that range wraps, fails the Toeplitz check and is found again at twice the
    # width; one inside it is exact and is accepted on the first rung (every
    # null vector of A2 (-1,0) and B2 (0,-1) is)
    rs, gamma = RANK2[name], Weight(gamma)
    want = gram_schmidt_E(rs, gamma)
    macdonald._E_CACHE.clear()
    monkeypatch.setattr(macdonald, "_pade_trial_width", lambda entries: 2)
    ladders = _spy_ladders(monkeypatch)
    assert gram_schmidt_E(rs, gamma).coeffs == want.coeffs
    for proven, *rungs in ladders:
        assert rungs == [min(2 << k, proven) for k in range(len(rungs))]
    assert any(len(rungs) > 1 for _, *rungs in ladders) == wider


def test_rejected_pade_candidate_never_reaches_qtrat(monkeypatch):
    # the reduction is the costly step; only a certified denominator may pay
    # for it, and it is the content reduction, never the bivariate gcd
    series, order, _, _ = _fresh_series(A1, Weight((-4,)))
    want = [macdonald._pade_reconstruct(xs, order) for xs in series]
    null_vector, by_t_content = macdonald._null_vector, QTRat._by_t_content
    dens, reduced_dens, gcds = [], [], []

    def rung_spy(a, bits):
        vec = null_vector(a, bits)
        dens.append(Poly({j: c for j, c in enumerate(vec) if c}))
        return vec

    def reduce_spy(num, den):
        reduced_dens.append(den)
        return by_t_content(num, den)

    monkeypatch.setattr(macdonald, "_pade_trial_width", lambda entries: 2)
    monkeypatch.setattr(macdonald, "_null_vector", rung_spy)
    monkeypatch.setattr(QTRat, "_by_t_content", staticmethod(reduce_spy))
    monkeypatch.setattr(qt, "p_gcd", lambda a, b: gcds.append(b))
    rejected = 0
    for xs, fraction in zip(series, want):
        dens.clear()
        reduced_dens.clear()
        assert macdonald._pade_reconstruct(xs, order) == fraction
        dp = order - order // 2
        for den in dens[:-1]:
            assert any(macdonald._convolve([(den, xs)], order)[dp + 1:])
        assert reduced_dens == dens[-1:]
        rejected += len(dens) - 1
    assert rejected and gcds == []


# -- the Pade fraction reduced by its Z[t] content -------------------------------------


def _orbit(rs, lam):
    return sorted({w.act(Weight(lam)).coords for w in rs.weyl_elements()})


# A1 up to |gamma| = 6, every rank-two fundamental orbit, and B2 (-1,-1)
CONTENT_CASES = ([("A1", [(g,) for g in range(-6, 7) if g])]
                 + [(name, _orbit(RANK2[name], lam)) for name in ("A2", "B2", "C2", "G2")
                    for lam in ((1, 0), (0, 1))]
                 + [("B2", [(-1, -1)])])


@pytest.mark.parametrize("name, gammas", CONTENT_CASES,
                         ids=[f"{name}-{_id(gammas[0])}" for name, gammas in CONTENT_CASES])
def test_pade_content_reduction_is_the_gcd_reduced_form(monkeypatch, name, gammas):
    # every fraction the Pade step reduces by its Z[t] content alone is
    # QTRat(num, den), the form the bivariate gcd gives
    rs = RANK2[name]
    by_t_content, reduced = QTRat._by_t_content, []

    def spy(num, den):
        got = by_t_content(num, den)
        reduced.append((num, den, got))
        return got

    monkeypatch.setattr(QTRat, "_by_t_content", staticmethod(spy))
    for gamma in map(Weight, gammas):
        if macdonald._unknowns(rs, gamma):
            series, order, _, _ = _fresh_series(rs, gamma)
            for xs in series:
                macdonald._pade_reconstruct(xs, order)
    assert reduced
    for num, den, got in reduced:
        want = QTRat(num, den)
        assert (got.num, got.den) == (want.num, want.den)


def test_content_reduction_divides_out_the_t_content():
    # (2t - 2t^2)(1 - q) / ((2t - 2t^2)(1 + t q)): content 2t(1 - t), sign from the lead
    content = Poly({1: 2, 2: -2})
    num = Poly({0: content, 1: -content})
    den = Poly({0: -content, 1: Poly({2: -2, 3: 2})})
    got = QTRat._by_t_content(num, den)
    want = QTRat(num, den)
    assert (got.num, got.den) == (want.num, want.den)
    assert got.den == Poly({0: Poly({0: 1}), 1: Poly({1: 1})})
    assert got.num == Poly({0: Poly({0: -1}), 1: Poly({0: 1})})


def test_pade_rejects_a_denominator_divisible_by_q(monkeypatch):
    # 1 + q^2 in the box (1, 1): the one Toeplitz row [1, 0] has the null
    # vector den = q, so num = q, and q/q = 1 misses q^2; the den is refused
    # before any reduction, as the reduced fraction would have been
    reduced = []
    monkeypatch.setattr(QTRat, "_by_t_content", staticmethod(lambda num, den: reduced.append(den)))
    one = Poly({0: 1})
    with pytest.raises(ValueError, match="rational reconstruction failed"):
        macdonald._pade_reconstruct([one, Poly(), one], 2)
    assert reduced == []


def test_pade_ladder_stops_at_the_proven_width(monkeypatch):
    series, order, _, _ = _fresh_series(A1, Weight((-4,)))
    ladders = _spy_ladders(monkeypatch)
    # a first rung wider than the proven width packs at the proven width
    monkeypatch.setattr(macdonald, "_pade_trial_width", lambda entries: 1 << 20)
    want = [macdonald._pade_reconstruct(xs, order) for xs in series]
    assert all(rungs == [proven] for proven, *rungs in ladders)
    # a rejection at the proven width is final (here a proven width made too
    # narrow for the null vector that the 2-bit rung cannot decode)
    monkeypatch.setattr(macdonald, "_pade_trial_width", lambda entries: 2)
    minor_width = macdonald._minor_width
    monkeypatch.setattr(macdonald, "_minor_width", lambda rows: min(minor_width(rows), 2))
    outcomes = []
    for xs, fraction in zip(series, want):
        try:
            outcomes.append(macdonald._pade_reconstruct(xs, order) == fraction)
        except ValueError as err:
            assert err.args == (macdonald._NO_FRACTION,)
            outcomes.append(None)
    assert None in outcomes and False not in outcomes
