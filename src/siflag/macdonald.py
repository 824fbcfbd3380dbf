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
reproduce the rank-one module characters, and rank two is cross-validated
against the independent recursion engine.

Pairings are computed exactly per q-order (each order is an integer polynomial
in t), the orthogonality system is solved order by order over Q(t), and the
rational function behind each coefficient series is recovered by exact Pade
reconstruction, then re-verified against five extra q-orders.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from .charpoly import CharPoly
from .qt import QTRat, _t_add, _t_mul, gauss_nullspace, gauss_solve
from .rootdata import RootSystem, Weight

TPoly = dict  # {t_degree: int}


# -- weight saturation and the triangular order --------------------------------


def hull_weights(rs: RootSystem, lam: Weight) -> list[Weight]:
    """All nu in lam + Q with dominant representative <= lam (weights of V(lam))."""
    if not lam.is_dominant():
        raise ValueError("weight must be dominant")
    w0 = rs.longest_element()
    span = lam - w0.act(lam)
    box = rs.weight_to_root(span)
    if any(c.denominator != 1 for c in box):
        raise AssertionError("lam - w0 lam is not an integral root combination")
    out = []
    for coeffs in iproduct(*(range(int(c) + 1) for c in box)):
        nu = lam
        for i, c in enumerate(coeffs):
            if c:
                nu = nu - rs.simple_root(i + 1).scale(c)
        plus, _ = rs.dominant_representative(nu)
        if _dominance_leq(rs, plus, lam):
            out.append(nu)
    return sorted(set(out), key=lambda w: w.coords)


def _dominance_leq(rs: RootSystem, mu: Weight, lam: Weight) -> bool:
    """mu <= lam in dominance order (difference a nonnegative integer root sum)."""
    diff = rs.weight_to_root(lam - mu)
    return all(c.denominator == 1 and c >= 0 for c in diff)


def triangular_order_ideal(rs: RootSystem, gamma: Weight, reverse_ties: bool = False) -> list[Weight]:
    """The order ideal below gamma, listed in a linear extension (gamma last).

    nu precedes mu when nu+ < mu+ in dominance, or they share an orbit and the
    minimal v with nu = v(nu+) is Bruhat-smaller.
    """
    gamma_plus, v_gamma = rs.dominant_representative(gamma)
    members: list[Weight] = []
    for nu in hull_weights(rs, gamma_plus):
        nu_plus, v_nu = rs.dominant_representative(nu)
        if nu_plus == gamma_plus:
            if rs.bruhat_leq(v_nu, v_gamma):
                members.append(nu)
        else:
            members.append(nu)

    def level(nu: Weight) -> tuple:
        nu_plus, v_nu = rs.dominant_representative(nu)
        ht = sum(rs.weight_to_root(nu_plus))
        tie = tuple(-c for c in nu.coords) if reverse_ties else nu.coords
        return (ht, v_nu.length(), tie)

    members.sort(key=level)
    if members[-1] != gamma:
        raise AssertionError("triangular order does not end at gamma")
    return members


# -- density expansion ----------------------------------------------------------


def _tower_terms(j: int, budget: int, kmax: int):
    """Expansion terms (k, qdeg, tpoly) of (1-u)/(1-tu) for u of q-degree j."""
    out = []
    k = 1
    while k <= kmax and j * k <= budget:
        out.append((k, j * k, {k: 1, k - 1: -1}))
        k += 1
    return out


def density_table(rs: RootSystem, targets: frozenset, order: int) -> dict:
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


def _integer_kernel(root_list, rank):
    """Rational functionals vanishing on every root in the list."""
    if not root_list:
        return [tuple(1 if i == j else 0 for i in range(rank)) for j in range(rank)]
    # functionals f with sum_i f_i b_i = 0 for every root b: nullspace of the
    # matrix whose rows are the remaining roots
    rows = [[Fraction(b[i]) for i in range(rank)] for b in root_list]
    basis = gauss_nullspace(rows, rank, Fraction(0), Fraction(1))
    return [tuple(v) for v in basis]


# -- pairing tables ---------------------------------------------------------------


_PAIR_CACHE: dict = {}


def _weight_to_root_int(rs: RootSystem, nu: Weight):
    diff = rs.weight_to_root(nu)
    if any(c.denominator != 1 for c in diff):
        raise AssertionError(f"weight {nu.coords} is not in the root lattice")
    return tuple(int(c) for c in diff)


class PairingTable:
    """All monomial pairings <e^mu, e^nu> for mu, nu in a saturated hull, per q-order."""

    def __init__(self, rs: RootSystem, lam_plus: Weight, order: int):
        self.rs = rs
        self.order = order
        self.hull = hull_weights(rs, lam_plus)
        targets = set()
        for mu in self.hull:
            for nu in self.hull:
                targets.add(_weight_to_root_int(rs, nu - mu))
        self.table = density_table(rs, frozenset(targets), order)

    def series(self, mu: Weight, nu: Weight) -> list[TPoly]:
        """q-order coefficients (integer t-polys) of <e^mu, e^nu> = ct(e^{mu-nu} Delta)."""
        key = _weight_to_root_int(self.rs, nu - mu)
        return [self.table.get((key, n), {}) for n in range(self.order + 1)]


def _pairing_table(rs: RootSystem, lam_plus: Weight, order: int) -> PairingTable:
    key = (rs.key, lam_plus.coords, order)
    got = _PAIR_CACHE.get(key)
    if got is None:
        got = PairingTable(rs, lam_plus, order)
        _PAIR_CACHE[key] = got
    return got


def density_ct_pair(rs: RootSystem, f: dict, g: dict, order: int) -> QTRat:
    """Constant term of f g* Delta, per q-order up to the given order, as one QTRat.

    f and g map weights to coefficients (ints, Fractions, or QTRats); g* sends
    e^mu to e^{-mu}.  The result is the exact pairing against the q-truncated
    density, a polynomial in q of degree <= order with Q(t) coefficients.
    """
    fw = {(w if isinstance(w, Weight) else Weight(tuple(w))): _as_qtrat(c) for w, c in f.items()}
    gw = {(w if isinstance(w, Weight) else Weight(tuple(w))): _as_qtrat(c) for w, c in g.items()}
    targets = set()
    for mu in fw:
        for nu in gw:
            targets.add(_weight_to_root_int(rs, nu - mu))
    table = density_table(rs, frozenset(targets), order)
    # accumulate strictly per q-order: orders beyond the truncation are unknown
    per_order = [QTRat.zero() for _ in range(order + 1)]
    for mu, cf in fw.items():
        for nu, cg in gw.items():
            key = _weight_to_root_int(rs, nu - mu)
            coeff_series = (cf * cg).series_q(order)
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
            total = total + c * _q_power(n)
    return total


def _as_qtrat(c) -> QTRat:
    if isinstance(c, QTRat):
        return c
    if isinstance(c, Fraction):
        return QTRat.from_fraction(c)
    return QTRat.from_int(c)


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


def gram_schmidt_E(rs: RootSystem, gamma: Weight, order: int | None = None,
                   reverse_ties: bool = False) -> EPoly:
    """The unique monic element e^gamma + lower terms orthogonal to its strict ideal.

    Solved order-by-order in q over Q(t), reconstructed to exact rational
    coefficients, and re-verified on five extra q-orders; raises when the
    truncation order is too small to pin the answer.  reverse_ties reverses the
    linear extension of the triangular order (the result must not change).
    """
    if rs.rank > 2:
        raise ValueError("oracle scope is rank <= 2")
    if order is None:
        order = default_truncation(rs, gamma)
    cache_key = (rs.key, gamma.coords, order, reverse_ties)
    got = _E_CACHE.get(cache_key)
    if got is not None:
        return got

    ideal = triangular_order_ideal(rs, gamma, reverse_ties=reverse_ties)
    lower = ideal[:-1]
    if not lower:
        result = EPoly(gamma, {gamma: QTRat.one()})
        _E_CACHE[cache_key] = result
        return result

    gamma_plus, _ = rs.dominant_representative(gamma)
    big = order + _EXTRA_ORDERS
    table = _pairing_table(rs, gamma_plus, big)

    m = len(lower)
    gram = [[table.series(mu, nu) for mu in lower] for nu in lower]
    rhs_series = [table.series(gamma, nu) for nu in lower]

    series = _solve_orthogonality(gram, rhs_series, big)

    coeffs = {gamma: QTRat.one()}
    for idx, nu in enumerate(lower):
        c_series = [series[n][idx] for n in range(big + 1)]
        coeffs[nu] = _pade_reconstruct(c_series, order)
    result = EPoly(gamma, coeffs)
    _verify_orthogonality(rs, result, lower, table)
    _E_CACHE[cache_key] = result
    return result


def _tp_to_qtrat(tp: TPoly) -> QTRat:
    return QTRat({(0, dt): c for dt, c in tp.items()})


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
                den = den + c * _q_power(j)
        if den.is_zero():
            continue
        # numerator = truncation of series * den to q-degree dp
        num = zero
        for n in range(dp + 1):
            acc = zero
            for j in range(min(n, dq) + 1):
                acc = acc + vec[j] * series[n - j]
            num = num + acc * _q_power(n)
        cand = num / den
        try:
            expanded = cand.series_q(len(series) - 1)
        except ValueError:
            continue
        if all(expanded[n] == series[n] for n in range(len(series))):
            return cand
    raise ValueError("rational reconstruction failed: raise the truncation order")


def _q_power(n: int) -> QTRat:
    return QTRat({(n, 0): 1})


def _verify_orthogonality(rs, epoly: EPoly, lower, table: PairingTable):
    """<E, e^nu> must vanish identically through every computed q-order."""
    big = table.order
    coeff_series = {}
    for mu, c in epoly.coeffs.items():
        coeff_series[mu] = c.series_q(big)
    for nu in lower:
        for n in range(big + 1):
            acc = QTRat.zero()
            for mu, cs in coeff_series.items():
                for k in range(n + 1):
                    tp = table.series(mu, nu)[n - k]
                    if tp and not cs[k].is_zero():
                        acc = acc + cs[k] * _tp_to_qtrat(tp)
            if not acc.is_zero():
                raise AssertionError(f"orthogonality fails against {nu} at q^{n}")


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
