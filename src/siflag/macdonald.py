"""Ground-truth oracle: nonsymmetric Macdonald polynomials at generic (q, t).

E_gamma is produced by triangular Gram-Schmidt against the constant-term inner
product <f, g> = ct(f g* Delta_N), where g* inverts weight exponentials and
Delta_N is the q-truncation of the density

    prod_{alpha > 0} prod_{j >= 0}
        (1 - q^j e^{alpha}) (1 - q^{j+1} e^{-alpha})
        -----------------------------------------------
        (1 - t q^j e^{alpha}) (1 - t q^{j+1} e^{-alpha})

Convention notes (calibration-determined, validated by the test suite):

* which side of the density carries the bare j = 0 factor, and
* the tie-break inside the triangular order (within a W-orbit, nu precedes mu
  when the minimal v with nu = v(nu+) is Bruhat-smaller),

are pinned so that in rank one E_{-w} = e^{-w} + (1-t)/(1-qt) e^{w} and
E_{w} = e^{w} hold exactly; the t = infinity and t = 0 specializations then
reproduce the rank-one module characters.  Beyond rank one the oracle is the
reference of the recursion engine's T_i family on A2 only (verify.ORACLE_TYPES)
and, in the tests, of its base ch W_lam on every rank-two type.  That engine
never calls this module (its base characters come from the eigen solve in
every type), so the oracle is only the independent reference of the ``cor``
suite, the acceptance gate and the route-agreement tests.

Pairings are computed exactly per q-order (each order is an integer polynomial
in t).  Every root's density factor has the same column of coefficients of its
powers e^{k alpha}, in closed form by Ramanujan's 1psi1 sum (Gasper-Rahman
(5.2.1)), and the product over the roots keeps only states that a per-suffix
reachability budget lets still land on a wanted weight.  The orthogonality
system is solved order by order over Z[t] by forward substitution, with no
inverse and no field (listed by root-lattice height, the order-0 block is unit
lower triangular), the rational function behind each coefficient series is
recovered by a fraction-free Pade step, and the result is re-verified against
five extra q-orders.

Every stage computes on t-polynomials packed into integers at t = 2^B, with B
from L1 majorants rounded up to a multiple of 16 bits (_width).  At such a
width the packing is one-to-one on every polynomial the stage forms, so a
packed integer is zero exactly when its polynomial is (see _on_packed).  So:

* the density decodes every entry of its table, and the Gram solve every
  order of the coefficient series it finds;
* the Pade step decodes its null vector and the numerator orders 0..dp of the
  Toeplitz product, and tests the orders dp+1..order for zero on the packed
  integers;
* the re-verification tests every sum for zero on the packed integers and
  decodes nothing.

The Pade step's final acceptance still decodes its product and compares it
with the exact numerator, the one comparison that does not take the width on
trust (see _pade_reconstruct).  Two stages first try a narrower width and let
an exact check certify the result.  The Gram solve tries the width of its
inputs and is certified by the re-verification (see gram_schmidt_E); the Pade
nullspace climbs a ladder from the width of its inputs to the width that
bounds its minors, and each candidate denominator is certified by the exact
Toeplitz product.

Every stage reads its t-polynomials as _Series, q-series that compute their
L1 majorants once and their packed integers once per width.  The cached
PairingTable owns one _Series per weight difference, so its packed forms live
as long as the table does and are shared by every gram_schmidt_E call that
reads it; the coefficient series of the solve and the Pade candidates are
made per call and dropped when it returns.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .charpoly import CharPoly
from .qt import Poly, QTRat, gauss_nullspace, p_gcd
from .rootdata import RootSystem, Weight, hull_weights


# -- the triangular order -------------------------------------------------------


def triangular_order_ideal(rs: RootSystem, gamma: Weight) -> list[Weight]:
    """The order ideal below gamma, listed in a linear extension (gamma last).

    nu precedes mu when nu+ < mu+ in dominance, or they share an orbit and the
    minimal v with nu = v(nu+) is Bruhat-smaller.
    """
    gamma_plus, v_gamma = rs.dominant_representative(gamma)
    levels = []
    for nu in hull_weights(rs, gamma_plus):
        nu_plus, v_nu = rs.dominant_representative(nu)
        if nu_plus != gamma_plus or rs.bruhat_leq(v_nu, v_gamma):
            levels.append((sum(rs.weight_to_root(nu_plus)), v_nu.length(), nu.coords, nu))
    levels.sort(key=lambda level: level[:3])
    members = [level[3] for level in levels]
    if members[-1] != gamma:
        raise AssertionError("triangular order does not end at gamma")
    return members


# -- density expansion ----------------------------------------------------------


def density_table(rs: RootSystem, targets: frozenset, order: int) -> dict:
    """Coefficients of Delta at the target weights: {(root_coords, qdeg): tpoly}.

    Targets are root-lattice points in simple-root coordinates.  By the
    q-binomial theorem (Gasper-Rahman 1.3) each positive root alpha contributes
    the factor column sum_k col(k) e^{k alpha} with

        col(k) = sum_{b >= 0} q^b C_b C_{k+b},   col(-k) = q^k col(k)   (k >= 0),
        C_a = prod_{i < a} (t - q^i) / (1 - q^{i+1}),

    one column shared by every root.  Ramanujan's 1psi1 sum (Gasper-Rahman
    (5.2.1)) puts that bilateral sum in closed form,

        col(0) = (tq;q)^2_inf / ((q;q)_inf (t^2 q;q)_inf),
        col(k+1) = col(k) (t - q^k) / (1 - t q^{k+1}),

    which _FactorColumn evaluates as one product per k.

    The product over the roots is expanded root by root; a state survives only
    while its q-budget covers the least budget with which the remaining roots
    can still land it on a target.

    The expansion is read through _on_packed, as every later stage is: its
    L1 run gives each entry's majorant, and its packed run each entry, decoded
    and checked against that majorant.  A packed column entry at e^{k alpha}
    is about t^k times a short band, so products are taken with the trailing
    zero bits stripped and shifted back.
    """
    if not targets:
        return {}
    return _decode(*_on_packed(_DensityExpansion(rs, targets, order).run))


def _on_packed(run, bits: int | None = None) -> tuple[dict, dict | None, int]:
    """(packed, bound, B): run(value) -> {key: int} evaluated on t-polynomials packed at t = 2^B.

    The density (see density_table), the Gram solve and every _convolution
    run so.  run must read every t-polynomial it uses, t and -1 included
    (_T_SIGN), through value, a whole _Series at a time: value(series) lists
    the integers that stand for its entries, and each series computes them
    once (per width).  Without bits, run is called twice.  First value =
    _Series.l1s (t -> 1, every minus sign made plus): every entry of bound is
    then an L1 majorant, a bound on the absolute coefficient sum of the entry
    it stands for.  Then value packs at B = _width(largest majorant).

    Evaluation at 2^B is a ring homomorphism, so only the final coefficients
    must fit in B bits, and with B from the majorants they do.  Decoding is
    then a bijection between integers and t-polynomials with coefficients
    below 2^(B-1) in size, at any width at least that of the majorants, so a
    wider width is exact as well.  It follows that a packed entry is zero
    exactly when its t-polynomial is: a stage that only asks whether entries
    vanish tests the integers and decodes nothing (the Pade Toeplitz orders
    and the re-verification, see _convolution).  A stage that needs an entry
    decodes it (_decode) and checks it against its majorant.  That check
    guards only the code path (the two runs against each other): a width too
    narrow wraps into small coefficients that stay under their majorants, and
    only a later stage (the Pade acceptance) can catch it.

    With bits given, run is called once, packed at that width, bound is None
    and nothing bounds the decoded entries.  The Gram solve runs so at a trial
    width (see gram_schmidt_E): the exact re-verification of the coefficients
    that Pade recovers from its result, not the width, certifies it.
    """
    bound = None
    if bits is None:
        bound = run(_Series.l1s)
        bits = _width(max(bound.values(), default=0))
    return run(lambda series: series.packed(bits)), bound, bits


def _decode(packed: dict, bound: dict | None, bits: int, keys=None) -> dict:
    """{key: t-polynomial} for keys (default: every key), each checked against its majorant."""
    out = {}
    for key in packed if keys is None else keys:
        tp = _unpack(packed[key], bits)
        if bound is not None and _l1(tp) > bound.get(key, 0):
            raise AssertionError(f"packed entry {key} exceeds its L1 majorant")
        out[key] = tp
    return out


def _unpack(packed: int, bits: int) -> Poly:
    """The t-polynomial whose value at t = 2^bits is packed (|coefficients| < 2^(bits-1))."""
    if bits < 2:
        raise ValueError(f"cannot unpack signed coefficients at {bits} bit(s) per digit")
    out = Poly()
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    deg = 0
    while packed:
        c = packed & mask
        if c >= half:
            c -= 1 << bits
        if c:
            out[deg] = c
        packed = (packed - c) >> bits
        deg += 1
    return out


def _pack(tp: Poly, bits: int) -> int:
    """The value of a t-polynomial at t = 2^bits."""
    return sum(c << (bits * d) for d, c in tp.items())


def _l1(tp: Poly) -> int:
    """The L1 majorant of a t-polynomial: its value at t = 1 with every sign made plus."""
    return sum(map(abs, tp.values()))


def _width(bound: int) -> int:
    """The packing width for t-polynomials whose coefficients are at most bound in size.

    That takes bound.bit_length() + 1 bits (one for the sign), rounded up to a
    multiple of 16 so that the stages of one E_gamma meet only a few widths
    and each _Series is packed once per width; a wider width is exact as well
    (see _on_packed).
    """
    return (bound.bit_length() + 16) // 16 * 16


class _Series(tuple):
    """A q-series of t-polynomials, listed by q-degree, that packs itself.

    Its L1 majorants are computed once and its packed integers once per width
    (by pack), on first use, so every stage that reads it (see _on_packed and
    _pade_reconstruct) shares them.  It is a tuple, so they never go stale.
    The pairing series are owned by their cached PairingTable and keep their
    packed forms as long as it lives; every other _Series dies with the
    gram_schmidt_E call that made it.
    """

    def __new__(cls, tps):
        self = super().__new__(cls, tps)
        self._l1s = None
        self._packed = {}
        return self

    @classmethod
    def of(cls, series) -> _Series:
        """series as an _Series: itself if it is one, a dict {qdeg: tp} listed densely."""
        if isinstance(series, cls):
            return series
        if isinstance(series, dict):
            return cls(series.get(n, _ZERO) for n in range(max(series, default=-1) + 1))
        return cls(series)

    def l1s(self) -> list[int]:
        """The entries' L1 majorants (see _l1)."""
        if self._l1s is None:
            self._l1s = [_l1(tp) for tp in self]
        return self._l1s

    def packed(self, bits: int) -> list[int]:
        """The entries packed at t = 2^bits, computed once per width."""
        got = self._packed.get(bits)
        if got is None:
            got = self._packed[bits] = self.pack(bits)
        return got

    def pack(self, bits: int) -> list[int]:
        """Every entry packed at t = 2^bits: the step packed runs once per width."""
        return [_pack(tp, bits) for tp in self]


_ZERO = Poly()

# t and -1, for a run(value) to read through value (see _on_packed)
_T = Poly({1: 1})
_MINUS_ONE = Poly({0: -1})
_T_SIGN = _Series((_T, _MINUS_ONE))


class _DensityExpansion:
    """The root-by-root expansion of Delta onto one target set, up to q^order.

    run(value) evaluates it with C_a built from the factors (t - q^i), t and
    -1 read through value as _T_SIGN (see _on_packed).  Both runs share the
    reachability budgets.
    """

    def __init__(self, rs: RootSystem, targets: frozenset, order: int):
        rank = rs.rank
        self.order = order
        self.roots = sorted(rs.positive_roots, key=sum, reverse=True)
        self.tmax = [max(t[i] for t in targets) for i in range(rank)]
        # per suffix roots[pos:]: how far it can lower each coordinate per unit
        # of q-degree, and the targets grouped by their image under the
        # functionals vanishing on it
        self.suffix = []
        for pos in range(len(self.roots) + 1):
            rem = self.roots[pos:]
            neg_cap = [max((b[i] for b in rem), default=0) for i in range(rank)]
            kernel = _integer_kernel(rem, rank)
            groups: dict = {}
            for tau in targets:
                groups.setdefault(_image(kernel, tau), []).append(tau)
            self.suffix.append((neg_cap, kernel, groups, {}))

    def need(self, coords: tuple, pos: int):
        """Least q-budget with which roots[pos:] can take coords onto a target, or None."""
        neg_cap, kernel, groups, memo = self.suffix[pos]
        if coords in memo:
            return memo[coords]
        best = None
        # For tau in the group of coords, coords - tau lies in the span of
        # roots[pos:].  Positive roots have no negative coordinate, so where none
        # of them is positive (cap 0) that whole span is 0 and c = goal: every
        # c > goal has cap > 0, and no c < goal is out of reach.  This rests on
        # the kernel; a wrong _integer_kernel ends in ZeroDivisionError here.
        for tau in groups.get(_image(kernel, coords), ()):
            req = 0
            for c, goal, cap in zip(coords, tau, neg_cap):
                if c > goal:
                    req = max(req, -((goal - c) // cap))
            if best is None or req < best:
                best = req
        memo[coords] = best
        return best

    def run(self, value) -> dict:
        order = self.order
        column = _FactorColumn(*value(_T_SIGN), order)
        states: dict = {(0,) * len(self.tmax): {0: 1}}
        for pos, alpha in enumerate(self.roots):
            neg_cap = self.suffix[pos + 1][0]
            nxt: dict = {}
            for coords, series in states.items():
                qleft = order - min(series)
                stripped = [(n0, v >> z, z) for n0, v in series.items()
                            for z in ((v & -v).bit_length() - 1,)]
                # beyond kmax even the whole budget cannot bring a coordinate back
                kmax = min((self.tmax[i] + qleft * neg_cap[i] - coords[i]) // a
                           for i, a in enumerate(alpha) if a > 0)
                for k in range(-qleft, kmax + 1):
                    c1 = tuple(c + k * a for c, a in zip(coords, alpha))
                    nd = self.need(c1, pos + 1)
                    if nd is None or nd > qleft:
                        continue
                    cap = order - nd
                    col = column(k)
                    acc = nxt.get(c1)
                    if acc is None:
                        acc = nxt[c1] = [0] * (order + 1)
                    for n0, v, zv in stripped:
                        top = cap - n0
                        for dq, x, zx in col:
                            if dq > top:
                                break
                            acc[n0 + dq] += (v * x) << (zv + zx)
            states = {}
            for c1, acc in nxt.items():
                kept = {n: v for n, v in enumerate(acc) if v}
                if kept:
                    states[c1] = kept
        return {(c, n): v for c, series in states.items() for n, v in series.items()}


def _image(kernel, coords) -> tuple:
    return tuple(sum(f * c for f, c in zip(func, coords)) for func in kernel)


class _FactorColumn:
    """col(k) of one root's density factor, as sorted sparse [(qdeg, value, zeros)] up to q^order.

    By Ramanujan's 1psi1 sum (Gasper-Rahman (5.2.1)), for k >= 0,

        col(k) = prod_{j < k} (t - q^j) (tq;q)_inf (tq^{k+1};q)_inf / ((q;q)_inf (t^2 q;q)_inf)

    (see density_table).  The head, all but the factor (tq^{k+1};q)_inf, is
    one series at k = 0 and one linear factor more per further k; that last
    factor is one linear factor per i in k < i <= order.  t and -1 come read
    through value (see _DensityExpansion); in the L1 run every factor becomes
    1 + q^i or 1/(1 - q^i), and as the L1 norm is submultiplicative the same
    code then yields valid majorants.  Each of those is its factor at t = -1
    up to sign, so the L1 run yields col(k) at t = -1 up to sign, as the
    q-binomial convolution's L1 run did: the majorants are unchanged.  The
    recurrence col(k+1) = col(k) (t - q^k) / (1 - t q^{k+1}) would not: its
    divisor becomes 1 - q^{k+1}, not 1 + q^{k+1}, and widens the density's
    packing by up to five bits.
    """

    def __init__(self, t: int, sign: int, order: int):
        self.t = t
        self.sign = sign
        self.minus_t = sign * t
        self.order = order
        tt = t * t
        head = [1] + [0] * order
        for i in range(1, order + 1):
            # times (1 - t q^i), then over (1 - q^i) and (1 - t^2 q^i) as strided prefix sums
            for n in range(order, i - 1, -1):
                head[n] += self.minus_t * head[n - i]
            for n in range(i, order + 1):
                head[n] += head[n - i]
            for n in range(i, order + 1):
                head[n] += tt * head[n - i]
        self.heads = [head]  # the head of col(k), k >= 0, as dense q-series
        self.memo: dict = {}

    def series(self, k: int) -> list:
        """col(k) as a dense q-series through q^order."""
        order = self.order
        if k < 0:
            return ([0] * -k + self.series(-k))[:order + 1]
        while len(self.heads) <= k:
            i = len(self.heads) - 1
            prev = self.heads[i]
            # times (t + sign q^i)
            cur = [self.t * x for x in prev]
            for n in range(i, order + 1):
                cur[n] += self.sign * prev[n - i]
            self.heads.append(cur)
        col = list(self.heads[k])
        for i in range(k + 1, order + 1):
            # times (1 - t q^i)
            for n in range(order, i - 1, -1):
                col[n] += self.minus_t * col[n - i]
        return col

    def __call__(self, k: int) -> list:
        got = self.memo.get(k)
        if got is None:
            got = self.memo[k] = [(n, x >> z, z) for n, x in enumerate(self.series(k)) if x
                                  for z in ((x & -x).bit_length() - 1,)]
        return got


def _integer_kernel(root_list, rank):
    """Integer functionals vanishing on every root in the list."""
    if not root_list:
        return [tuple(1 if i == j else 0 for i in range(rank)) for j in range(rank)]
    # functionals f with sum_i f_i b_i = 0 for every root b: nullspace of the
    # matrix whose rows are the remaining roots, each basis vector scaled by
    # the lcm of its denominators (a scaled functional groups targets alike)
    rows = [[Fraction(b[i]) for i in range(rank)] for b in root_list]
    basis = gauss_nullspace(rows, rank, Fraction(0), Fraction(1))
    out = []
    for v in basis:
        scale = lcm(*(c.denominator for c in v))
        out.append(tuple(c.numerator * (scale // c.denominator) for c in v))
    return out


# -- pairing tables ---------------------------------------------------------------


_PAIR_CACHE: dict = {}


def _weight_to_root_int(rs: RootSystem, nu: Weight):
    diff = rs.weight_to_root(nu)
    if any(c.denominator != 1 for c in diff):
        raise AssertionError(f"weight {nu.coords} is not in the root lattice")
    return tuple(int(c) for c in diff)


class PairingTable:
    """All monomial pairings <e^mu, e^nu> for mu, nu in a saturated hull, per q-order.

    Every pairing with the same nu - mu is one _Series, built once here, so
    the table owns the packed forms of its series (see _Series) and every
    gram_schmidt_E call that reads it packs each series once per width.
    """

    def __init__(self, rs: RootSystem, lam_plus: Weight, order: int):
        self.order = order
        hull = hull_weights(rs, lam_plus)
        keys = {diff.coords: _weight_to_root_int(rs, diff)
                for diff in {nu - mu for mu in hull for nu in hull}}
        table = density_table(rs, frozenset(keys.values()), order)
        self.pairings = {coords: _Series(table.get((key, n), _ZERO) for n in range(order + 1))
                         for coords, key in keys.items()}

    def series(self, mu: Weight, nu: Weight) -> _Series:
        """q-order coefficients (integer t-polys) of <e^mu, e^nu> = ct(e^{mu-nu} Delta)."""
        return self.pairings[(nu - mu).coords]


def _pairing_table(rs: RootSystem, lam_plus: Weight, order: int) -> PairingTable:
    key = (rs.key, lam_plus.coords, order)
    got = _PAIR_CACHE.get(key)
    if got is None:
        got = PairingTable(rs, lam_plus, order)
        _PAIR_CACHE[key] = got
    return got


# -- Gram-Schmidt ------------------------------------------------------------------


@dataclass
class EPoly:
    """A nonsymmetric Macdonald polynomial: monic at gamma, supported on its ideal."""

    gamma: Weight
    coeffs: dict  # Weight -> QTRat

    def coeff(self, nu: Weight) -> QTRat:
        return self.coeffs.get(nu, QTRat.zero())

    def support(self) -> list[Weight]:
        return sorted((w for w, c in self.coeffs.items() if not c.is_zero()),
                      key=lambda w: w.coords)


_E_CACHE: dict = {}
_EXTRA_ORDERS = 5


def default_truncation(rs: RootSystem, gamma: Weight) -> int:
    gamma_plus, _ = rs.dominant_representative(gamma)
    height = sum(gamma_plus.coords)
    return 4 * height + 8


def gram_schmidt_E(rs: RootSystem, gamma: Weight) -> EPoly:
    """The unique monic element e^gamma + lower terms orthogonal to its strict ideal.

    Solved order by order in q over Z[t] up to default_truncation, reconstructed
    to exact rational coefficients, and re-verified on five extra q-orders,
    whatever width the solve ran at; raises when that truncation is too small
    to pin the answer.
    """
    if rs.rank > 2:
        raise ValueError("oracle scope is rank <= 2")
    order = default_truncation(rs, gamma)
    cache_key = (rs.key, gamma.coords)
    got = _E_CACHE.get(cache_key)
    if got is not None:
        return got

    lower = _unknowns(rs, gamma)
    if not lower:
        result = EPoly(gamma, {gamma: QTRat.one()})
        _E_CACHE[cache_key] = result
        return result

    gamma_plus, _ = rs.dominant_representative(gamma)
    big = order + _EXTRA_ORDERS
    table = _pairing_table(rs, gamma_plus, big)

    gram = [[table.series(mu, nu) for mu in lower] for nu in lower]
    rhs_series = [table.series(gamma, nu) for nu in lower]
    # The L1 majorants of the solve ignore cancellation and prove a width many
    # times what its answer needs.  So solve first at the width of its inputs;
    # a result that Pade or the exact re-verification rejects is solved again
    # at the proven width, where a rejection is final.  A verified result is
    # the true one (the order-0 block is unimodular, so the system through
    # q^big has one solution), and so is its Pade fraction.
    for bits in (_trial_width(gram, rhs_series), None):
        try:
            series = _solve_orthogonality(gram, rhs_series, bits)
            coeffs = {gamma: QTRat.one()}
            for nu, c_series in zip(lower, series):
                coeffs[nu] = _pade_reconstruct(c_series, order)
            result = EPoly(gamma, coeffs)
            _verify_orthogonality(result, lower, table)
            break
        except ValueError as err:
            if bits is None or err.args != (_NO_FRACTION,):
                raise
        except _NotOrthogonal:
            if bits is None:
                raise
    _E_CACHE[cache_key] = result
    return result


def _unknowns(rs: RootSystem, gamma: Weight) -> list[Weight]:
    """gamma's strict order ideal by root-lattice height, ties in triangular order.

    The q^0 density lives on Q_+ with constant term 1, so the q^0 term of
    <e^mu, e^nu> vanishes unless nu = mu or ht nu > ht mu: in this listing the
    order-0 Gram block is unit lower triangular.
    """
    lower = triangular_order_ideal(rs, gamma)[:-1]
    return sorted(lower, key=lambda nu: sum(rs.weight_to_root(nu)))


def _trial_width(gram, rhs_series) -> int:
    """The packing width of the largest L1 majorant among the Gram and right-hand-side entries."""
    return _width(max(max(series.l1s()) for rows in (gram, [rhs_series])
                      for row in rows for series in row))


def _solve_orthogonality(gram, rhs_series, bits: int | None = None) -> list[list[Poly]]:
    """Per-q-order solve of sum_mu c_mu <e^mu, e^nu> = -<e^gamma, e^nu> over Z[t].

    The unknowns come listed by height (see _unknowns), so the order-0 block g0
    must be unit lower triangular; that is checked once here.  Then every order
    of every coefficient lies in Z[t], found by forward substitution in

        g0 x_n = -rhs_n - sum_{k >= 1} g_k x_{n-k},

    on packed t-polynomials (see _on_packed), at the width bits or, without it,
    at the width the L1 majorants prove.  Returns each coefficient's q-series
    through the last order, decoded.
    """
    for i, row in enumerate(gram):
        if not row[i][0]:
            raise ValueError(
                "pairing matrix singular at order 0: truncation too small or order ideal wrong")
        if row[i][0] != {0: 1} or any(entry[0] for entry in row[i + 1:]):
            raise ValueError("order-0 pairing block is not unimodular over Z[t]")
    gram = [[_Series.of(series) for series in row] for row in gram]
    rhs_series = [_Series.of(series) for series in rhs_series]
    got = _decode(*_on_packed(lambda value: _gram_recurrence(gram, rhs_series, value), bits))
    return [[got[n, col] for n in range(len(rhs_series[0]))] for col in range(len(rhs_series))]


def _gram_recurrence(gram, rhs_series, value) -> dict:
    """{(n, i): x_n[i]}, x_n[i] = -(rhs_n[i] + sum_{k >= 0} (g_k x_{n-k})[i]), read through value.

    Every entry of gram and rhs_series is an _Series, read whole (see
    _on_packed).  At k = 0 it reads only the x_n[j], j < i, already found:
    forward substitution.
    """
    big = len(rhs_series[0]) - 1
    sign = value(_T_SIGN)[1]
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


_NO_FRACTION = "rational reconstruction failed: raise the truncation order"


def _pade_reconstruct(series: list[Poly], order: int) -> QTRat:
    """Exact rational reconstruction of a q-series with Z[t] coefficients.

    In the box of numerator degree dp = order - order//2 and denominator degree
    dq = order//2, a denominator v is a null vector of the Toeplitz rows that
    make series * v vanish at the orders dp+1..order.  If some fraction in the
    box reproduces every available order, every nonzero null vector gives that
    same fraction (num_v D - N den_v has degree <= order and is O(q^(order+1))),
    so one null vector suffices, whichever the elimination finds.  The rows
    are read off the one _Series, its L1 majorants or its packed integers, so
    each width packs every coefficient once.

    The null vector is found on a ladder of packing widths (see _null_vector):
    first the width of the largest L1 majorant in the rows, doubled on each
    rejection and capped at the width the rows' minors are proven to fit.  A
    rung's candidate den is certified by the exact product series * den (see
    _convolution), whose orders dp+1..order must vanish; they are tested on
    the packed integers, and only its orders 0..dp, the numerator, are decoded.
    A rejection at the proven width is final.  The reduced fraction is then
    accepted only if series * den = num holds at every available order.  That
    comparison decodes the product and compares t-polynomials.  Equal packed
    integers would say only that both sides agree at t = 2^B; the decoded
    product equals the numerator only if, besides, the numerator's
    coefficients fit in B bits.  So a width too narrow for the true product (a
    fault of _width) shows here as _NO_FRACTION rather than passing on to the
    re-verification, whose zero tests take the width on trust.  At q^0 the
    check rules out a denominator divisible by q, so the fraction is a power
    series.
    """
    if not any(series):
        return QTRat.zero()
    series = _Series.of(series)
    dq = order // 2
    dp = order - dq

    def rows(values: list[int]) -> list[list[int]]:
        return [[values[n - j] for j in range(dq + 1)] for n in range(dp + 1, order + 1)]

    l1_rows = rows(series.l1s())
    proven = _minor_width(l1_rows)
    bits = _pade_trial_width(l1_rows)
    while True:
        bits = min(bits, proven)
        vec = _null_vector(rows(series.packed(bits)), bits)
        product, bound, width = _convolution([(vec, series)], order)
        if not any(product[n] for n in range(dp + 1, order + 1)):
            break
        if bits == proven:
            raise ValueError(_NO_FRACTION)
        bits *= 2
    num = _decode(product, bound, width, range(dp + 1))
    cand = QTRat(Poly({n: tp for n, tp in num.items() if tp}),
                 Poly({j: c for j, c in enumerate(vec) if c}))
    expanded = _convolve([(cand.den, series)], len(series) - 1)
    if all(c == cand.num.get(n, _ZERO) for n, c in enumerate(expanded)):
        return cand
    raise ValueError(_NO_FRACTION)


def _pade_trial_width(rows) -> int:
    """The Pade ladder's first width: that of the largest L1 majorant in rows."""
    return _width(max(max(row) for row in rows))


def _minor_width(rows) -> int:
    """A packing width that every minor of a matrix over Z[t] fits, from its rows of L1 majorants.

    The product over the rows of max(1, sum_j L1(a_ij)) bounds the
    coefficients of every minor, by the Leibniz expansion.
    """
    bound = 1
    for row in rows:
        bound *= max(1, sum(row))
    return _width(bound)


def _null_vector(a: list[list[int]], bits: int) -> list[Poly]:
    """A right null vector of a matrix over Z[t] with fewer rows than columns.

    a holds the matrix's rows packed at t = 2^B (B = bits), and the
    elimination works on it in place.  Fraction-free Gauss-Jordan elimination
    (Bareiss, Math. Comp. 1968), stopped at the first column without a pivot.
    Evaluation at 2^B is a ring homomorphism and every entry it forms is the
    value of a minor of the matrix, so at any width the elimination is exact
    integer arithmetic.  At B = _minor_width of the rows' L1 majorants every
    minor fits, so zero tests and the decode mean the same as on Z[t], and
    the vector is a nonzero null vector.  At a narrower B a minor that
    vanishes at 2^B or a coefficient too wide to decode can give a wrong
    vector, so its caller must check it (see _pade_reconstruct).
    """
    ncols = len(a[0])
    prev = 1
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][col]), None)
        if p is None:
            vec = [0] * ncols
            vec[col] = prev
            for pc, row in zip(pivots, a):
                vec[pc] = -row[col]
            return [_unpack(x, bits) for x in vec]
        a[r], a[p] = a[p], a[r]
        prow = a[r]
        piv = prow[col]
        # columns up to col are never read again, so only those right of it change
        for i, row in enumerate(a):
            if i == r:
                continue
            f = row[col]
            for j in range(col + 1, ncols):
                x, rem = divmod(piv * row[j] - f * prow[j], prev)
                if rem:
                    raise AssertionError("fraction-free elimination left a remainder")
                row[j] = x
        prev = piv
        pivots.append(col)
    raise AssertionError("every column took a pivot")


def _convolution(pairs, top: int) -> tuple[dict, dict, int]:
    """The q-orders 0..top of sum_i a_i b_i, packed: (packed, bound, B) as _on_packed gives them.

    Each a_i and b_i is a q-series with Z[t] coefficients: an _Series, a list
    of t-polynomials by q-degree, or a dict {qdeg: t-polynomial}; each is read
    as an _Series.  B comes from the L1 majorants, so every order's packed sum
    is zero exactly when the order vanishes (see _on_packed): a caller that
    only asks that tests the integers, and one that needs an order decodes it
    (_decode, or _convolve for every order).
    """
    pairs = [(_Series.of(a), _Series.of(b)) for a, b in pairs]

    def run(value):
        out = [0] * (top + 1)
        for a, b in pairs:
            vb = value(b)
            for k, x in enumerate(value(a)[:top + 1]):
                if x:
                    for n, y in enumerate(vb[:top + 1 - k], k):
                        if y:
                            out[n] += x * y
        return dict(enumerate(out))

    return _on_packed(run)


def _convolve(pairs, top: int) -> list[Poly]:
    """The q-orders 0..top of sum_i a_i b_i, exactly, decoded (see _convolution)."""
    got = _decode(*_convolution(pairs, top))
    return [got[n] for n in range(top + 1)]


class _NotOrthogonal(AssertionError):
    """The re-verification's verdict against a candidate E (see _verify_orthogonality)."""


def _verify_orthogonality(epoly: EPoly, lower, table: PairingTable):
    """<E, e^nu> must vanish identically through every computed q-order.

    Checked from the coefficients alone, each scaled by a common denominator L
    with L(q=0) != 0 (a unit in Q(t)[[q]]), so sum_mu (c_mu L) <e^mu, e^nu>
    must vanish through the same orders.  Each sum is only tested for zero, on
    its packed integers at the width its majorants prove (see _convolution),
    and none is decoded.
    """
    big = table.order
    common = QTRat.one().den
    for den in {c.den for c in epoly.coeffs.values()}:
        common = common // p_gcd(common, den) * den
    if 0 not in common:
        raise AssertionError("coefficients are not power series in q")
    scaled = {mu: _Series.of(c.num * (common // c.den)) for mu, c in epoly.coeffs.items() if c}
    for nu in lower:
        sums, _, _ = _convolution([(cl, table.series(mu, nu)) for mu, cl in scaled.items()], big)
        for n, x in sums.items():
            if x:
                raise _NotOrthogonal(f"orthogonality fails against {nu} at q^{n}")


# -- bar involution and specializations ----------------------------------------------


def bar_conjugate(f):
    """The involution e^lam -> e^{-lam} with q, t fixed, on an EPoly or CharPoly."""
    if isinstance(f, CharPoly):
        return f.bar()
    return EPoly(-f.gamma, {-w: c for w, c in f.coeffs.items()})


_MODE_ALIASES = {
    "t-0": "t0", "t0": "t0", "t->0": "t0",
    "t-inf": "tinf", "tinf": "tinf", "t->inf": "tinf", "t-oo": "tinf",
    "q-inv": "qinv", "qinv": "qinv", "q->1/q": "qinv",
}


def specialize(f: EPoly, modes) -> CharPoly:
    """Specialize every coefficient (t -> 0, t -> infinity, q -> 1/q, composable).

    The result must be an exact Laurent polynomial in q; a diverging limit or a
    non-polynomial coefficient raises ValueError.
    """
    if isinstance(modes, str):
        modes = [m for m in modes.split(",") if m]
    ops = []
    for mode in modes:
        canon = _MODE_ALIASES.get(mode.strip())
        if canon is None:
            raise ValueError(f"unknown specialization mode {mode!r}")
        ops.append(canon)
    terms = {}
    for w, c in f.coeffs.items():
        for op in ops:
            if op == "t0":
                c = c.subs_t_zero()
            elif op == "tinf":
                c = c.limit_t_inf()
            else:
                c = c.subs_q_inv()
        for n, frac in c.as_q_laurent().items():
            terms[(w.coords, n)] = frac
    return CharPoly(terms)
