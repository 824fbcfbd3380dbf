"""Characters of generalized and global Weyl module Demazure submodules.

The cyclic-module character ch W_{w lam} is grown from the antidominant-free
base ch W_lam by plain Demazure steps D_i along a reduced word of the minimal
coset representative w in W^lam.  The companion family
E^dagger_{-w lam}(q^{-1}, inf) is grown from the same base by the twisted steps
T_i = D_i - 1 along coset_chain, the suffixes of that word (each again in
W^lam), dividing out (1 - q^{<alpha_j^vee, lam>}) whenever the step pulls back
to a simple root.
The two families agree at w = e and split immediately afterwards.  The
Gram-Schmidt oracle is the reference of the T_i family (and of the D_i family
at the longest w) only on A1 and A2, the cor suite's verify.ORACLE_TYPES; the
tests compare the base with it on every rank-two type.

The global character ch W(lam)_w = F_lam(q) ch W_{w lam} and the twisted
Euler character are exact products with a freeness factor F(q), truncated
once, after the product (_times_freeness).

The base itself comes, in every type, from one eigen solve of the
quantum-Bruhat loop difference operators with no bound on its q-degree: the
joint eigenvector is interpolated from its values modulo a prime at points q_k,
and the lifted result is verified as an exact polynomial identity, which with
the rank found at a check point makes it the unique solution.  This module
never calls the oracle, so that cross-check compares two independent routes.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .affine import (loop_translation_weight, minimal_loops, quantum_step, translation_loop,
                     walk_quantum)
from .charpoly import (
    CharPoly,
    demazure_op,
    demazure_word,
    exact_divide,
    freeness_factor,
    freeness_ratio,
    t_op,
)
from .qt import P, ModP, _rref
from .rootdata import (
    Coweight,
    RootSystem,
    Weight,
    WeylElement,
    hull_weights,
    is_minimal_coset_rep,
    minimal_coset_representative,
)


@dataclass(frozen=True)
class GenWeylChar:
    """Graded character of the cyclic module with extremal weight w(lam)."""

    lam: Weight
    w: WeylElement
    value: CharPoly


# -- the shared base ch W_lam and the characters grown from it ----------------------

_BASE_CACHE: dict = {}
# genweyl_char's results, keyed (rs.key, lam.coords, w) on w as passed, before reduction
_CHAR_CACHE: dict = {}


def base_char(rs: RootSystem, lam: Weight) -> CharPoly:
    """ch W_lam, by one eigen solve of the loop difference equations (eigen_solve_base)."""
    if not lam.is_dominant():
        raise ValueError("weight must be dominant")
    key = (rs.key, lam.coords)
    got = _BASE_CACHE.get(key)
    if got is None:
        try:
            got = eigen_solve_base(rs, lam).value
        except ValueError as err:
            raise ValueError(f"eigen base solve failed for {lam.coords}: {err}")
        _BASE_CACHE[key] = got
    return got


def coset_chain(rs: RootSystem, lam: Weight, w: WeylElement) -> list[tuple[int, WeylElement]]:
    """Cover steps (i, u) with s_i u > u from e up to w, staying inside W^lam.

    They read a reduced word of w from the right.  Each suffix u of it lies in
    W^lam again: if u s_j < u for some s_j fixing lam, w s_j would be shorter
    than w.
    """
    if not is_minimal_coset_rep(rs, w, lam):
        raise ValueError("w is not a minimal coset representative")
    tables = rs.weyl_tables()
    steps = []
    k = 0
    for i in reversed(w.word()):
        steps.append((i, tables.elements[k]))
        k = tables.left[k][i]
    return steps


def genweyl_char(rs: RootSystem, w: WeylElement, lam: Weight) -> GenWeylChar:
    """ch W_{w lam} = D_w ch W_lam, for the minimal representative w of w W_lam.

    Computed once per (type, lam, w) and process; a cached record is shared, so
    it is frozen.
    """
    if not lam.is_dominant():
        raise ValueError("weight must be dominant")
    key = (rs.key, lam.coords, w)
    got = _CHAR_CACHE.get(key)
    if got is None:
        rep = minimal_coset_representative(rs, w, lam)
        value = demazure_word(rs, rep.word(), base_char(rs, lam))
        if value.coeff(rep.act(lam), 0) != 1:
            raise AssertionError("cyclic-vector coefficient is not 1")
        got = _CHAR_CACHE[key] = GenWeylChar(lam, rep, value)
    return got


def cor_family(rs: RootSystem, w: WeylElement, lam: Weight) -> CharPoly:
    """E^dagger_{-w lam}(q^{-1}, infinity), by the T_i recursion from the base.

    Steps with u^{-1} alpha_i simple divide exactly by 1 - q^{<alpha_j^vee, lam>};
    a failed division signals a convention bug upstream, so it is not caught.
    """
    if not lam.is_dominant():
        raise ValueError("weight must be dominant")
    w = minimal_coset_representative(rs, w, lam)
    value = base_char(rs, lam)
    for i, u in coset_chain(rs, lam, w):
        value = _cor_step(rs, lam, i, u, t_op(rs, i, value))
    return value


def _cor_step(rs: RootSystem, lam: Weight, i: int, u: WeylElement, stepped: CharPoly) -> CharPoly:
    """E_{s_i u} from stepped = T_i E_u."""
    j = _pullback_simple(rs, u, i)
    if j is None:
        return stepped
    a = lam.coords[j - 1]
    if a <= 0:
        raise AssertionError("cover inside W^lam pulled back to a stabilized root")
    return exact_divide(stepped, CharPoly.one(rs.rank) - CharPoly.monomial((0,) * rs.rank, a))


def _pullback_simple(rs: RootSystem, u: WeylElement, i: int):
    """j when u^{-1} alpha_i = alpha_j for a simple root, else None (i in 1..rank)."""
    tables = rs.weyl_tables()
    return rs.simple_root_index.get(tables.inv_roots[u.index][i])


def _times_freeness(rs: RootSystem, lam: Weight, value: CharPoly, trunc: int) -> CharPoly:
    """F_lam(q) value through q^trunc, exactly.

    freeness_factor holds F_lam through q^trunc; every term it leaves out has a
    higher q-degree, so it could reach q^trunc of the product only through a
    term of value of negative q-degree, which is refused.
    """
    if value.terms and value.q_min() < 0:
        raise ValueError(f"a term of q-degree {value.q_min()} < 0 leaves F(q) value "
                         f"inexact through q^{trunc}")
    return (freeness_factor(rs, lam, trunc) * value).truncate(trunc)


def global_demazure_char(rs: RootSystem, w: WeylElement, lam: Weight, trunc: int) -> CharPoly:
    """ch W(lam)_w = F_lam(q) ch W_{w lam} through q^trunc."""
    return _times_freeness(rs, lam, genweyl_char(rs, w, lam).value, trunc)


def cns_step(rs: RootSystem, i: int, gen: GenWeylChar) -> GenWeylChar:
    """One induction step: the normalized D_i image of ch W_{w lam}.

    It is the global step as well: D_i fixes q, so it fixes F_lam(q), and
    ch W(lam)_w = F_lam(q) ch W_{w lam} steps by the same image times F_lam.
    """
    target = quantum_step(rs, i, gen.w)
    if target is None:
        raise ValueError(f"letter {i} is not a quantum cover at {gen.w!r}")
    value = demazure_op(rs, i, gen.value)
    if i == 0:
        value = value.shift_q(-rs.pairing(rs.theta_coroot, gen.w.act(gen.lam)))
    return GenWeylChar(gen.lam, target, value)


def loop_exponent(rs: RootSystem, loop, w: WeylElement, lam: Weight) -> int:
    """Telescoped q-exponent of a loop operator: sum of <theta^vee, u lam> at 0-steps."""
    chain = walk_quantum(rs, loop, w)
    total = 0
    for pos, letter in enumerate(reversed(loop)):
        if letter == 0:
            total += rs.pairing(rs.theta_coroot, chain[pos].act(lam))
    return total


def difference_loop_check(rs: RootSystem, w: WeylElement, lam: Weight, loop):
    """Apply a loop operator to ch W_{w lam}; return (realized exponent, ok).

    ok means the result is exactly q^m ch W_{w lam}, with m the telescoped
    exponent of the normalized steps.  The loop's D_i fix q, so this is
    ch W(lam)_w = F_lam(q) ch W_{w lam} scaled by q^m, divided through by F_lam.
    """
    gen = genweyl_char(rs, w, lam)
    if not loop:
        return 0, True
    chain = walk_quantum(rs, loop, gen.w)
    if chain[-1] != gen.w:
        raise ValueError("word is not a loop at w")
    result = demazure_word(rs, loop, gen.value)
    ref = gen.w.act(lam).coords
    degs = [n for (wt, n) in result.terms if wt == ref]
    if not degs:
        return 0, False
    m = min(degs)
    return m, m == loop_exponent(rs, loop, gen.w, lam) and result == gen.value.shift_q(m)


def lambda_w(rs: RootSystem, lam: Weight, w: WeylElement) -> Weight:
    """lam minus the fundamental weights at the descents of w."""
    coords = list(lam.coords)
    for j in range(1, rs.rank + 1):
        if rs.root_is_negative(w.act(rs.simple_root(j))):
            coords[j - 1] -= 1
    out = Weight(tuple(coords))
    if not out.is_dominant():
        raise ValueError("twisting weight is not dominant: w is not in W^lam")
    return out


def twisted_euler_char(rs: RootSystem, w: WeylElement, lam: Weight, trunc: int) -> CharPoly:
    """Character of the twisted sheaf sections at w, through q^trunc.

    Closed form F_{lambda_w}(q) E_w, with E_w the T_i-recursion family, after
    twisted_family has checked every step of the chain to w.
    """
    w = minimal_coset_representative(rs, w, lam)
    return _times_freeness(rs, lambda_w(rs, lam, w), twisted_family(rs, w, lam), trunc)


def twisted_family(rs: RootSystem, w: WeylElement, lam: Weight) -> CharPoly:
    """E_w = cor_family(rs, w, lam), checking T_i E_u = P E_{s_i u} exactly at
    each step of the chain to w, with P = F_{lambda_{s_i u}} / F_{lambda_u}.

    This is T_i stepping the closed form F_{lambda_u}(q) E_u onto the next one,
    divided through by F_{lambda_u}: T_i fixes q, so it is linear over series
    in q alone.  Right descents only grow along an upward cover, so
    lambda_{s_i u} <= lambda_u and P = prod (1 - q^k) is a polynomial.  Raises
    AssertionError at the first step where the two sides differ.
    """
    value = base_char(rs, lam)
    chain = coset_chain(rs, lam, w)
    # the chain climbs to w, so each step's target s_i u is the next step's u
    for (i, u), target in zip(chain, [v for _, v in chain[1:]] + [w]):
        stepped = t_op(rs, i, value)
        value = _cor_step(rs, lam, i, u, stepped)
        ratio = freeness_ratio(rs, lambda_w(rs, lam, target), lambda_w(rs, lam, u))
        if stepped != ratio * value:
            raise AssertionError(f"closed form and T_{i} recursion disagree at {target!r}")
    return value


# -- eigen-solve of the loop difference equations -----------------------------------

_BASE_LOOPS: dict = {}


def _base_loops(rs: RootSystem) -> list:
    """Quantum-Bruhat loops at e spanning a full-rank family of translations.

    Every minimal loop, plus each reduced translation word t_beta, for beta in
    the box [0,3]^rank of simple-coroot coordinates (not all dominant: A2's
    alpha_1^vee pairs to -1 with alpha_2), whose letterwise walk closes through
    the cover graph (affine.translation_loop).  The lifts of these loops give
    independent commuting difference operators.
    """
    got = _BASE_LOOPS.get(rs.key)
    if got is not None:
        return got
    loops = list(minimal_loops(rs, rs.identity))
    lifts = {loop_translation_weight(rs, loop, rs.identity).coords for loop in loops}
    for coords in iproduct(range(0, 4), repeat=rs.rank):
        if all(c == 0 for c in coords) or coords in lifts:
            continue
        word = translation_loop(rs, Coweight(coords))
        if word is not None:
            loops.append(word)
    _BASE_LOOPS[rs.key] = loops
    return loops


def eigen_solve_base(rs: RootSystem, lam: Weight) -> GenWeylChar:
    """Solve the loop difference equations for ch W_lam, with no window on its q-degree.

    Each loop L of _base_loops says A_L(q) X = q^{m_L} X for the vector X of
    q-polynomials X_nu, nu in hull(lam); stacked over every loop, that is
    M(q) X = 0.  Its rows are built loop by loop (_solve_rows) only until h - 1
    of them, with h = |hull|, are independent at the check point: a nonzero
    minor of a subset of M's rows proves rank M >= h - 1 over Q(q) as well as
    the whole M would.  At points q_k the kernel of those rows with X_lam = 1
    is found over Z/PZ, and each X_nu is Newton-interpolated until the
    interpolant stops changing, with the sum D of the rows' q-degrees as a
    proven cap (the entries are ratios of their maximal minors, so a
    polynomial X has degree <= D).  The balanced lift must satisfy the loop
    identity of every loop, built or not, exactly as polynomials, which makes
    it a kernel vector of the whole M: the kernel is then exactly the line
    through it, so it is the unique base, whatever the points and whichever
    loops gave the rows.
    """
    if not lam.is_dominant():
        raise ValueError("weight must be dominant")
    if lam.is_zero():
        return GenWeylChar(lam, rs.identity, CharPoly.one(rs.rank))
    exponents = {loop: loop_exponent(rs, loop, rs.identity, lam) for loop in _base_loops(rs)}
    # lam's column is last, as the right-hand side of X_lam = 1
    order = [nu.coords for nu in hull_weights(rs, lam) if nu.coords != lam.coords] + [lam.coords]
    rows = _solve_rows(rs, order, exponents)
    cap = sum(max(n for poly in row.values() for n in poly) for row in rows) + 1
    xs: list[int] = []
    newton: list[list[int]] = [[] for _ in order[:-1]]
    early = True
    # the rows lose rank on the unknowns only at roots of a minor that is nonzero
    # at the check point and of degree < cap, so fewer than cap points are skipped
    for x in range(2, 2 * cap + 2):
        values = _kernel_at(rows, len(order) - 1, x)
        if values is None:
            continue
        stable = _newton_add(newton, xs, x, values)
        xs.append(x)
        if len(xs) == cap or early and stable:
            value = _candidate(lam, order, newton, xs)
            if _is_base(rs, lam, value, exponents):
                return GenWeylChar(lam, rs.identity, value)
            if len(xs) == cap:
                break
            early = False  # a premature stop: go on to the cap
    raise ValueError("eigen candidate fails the exact loop identity")


# a fixed point mod P: an unlucky one could only understate the rank, never pass a wrong base
_CHECK_POINT = 0x2545F4914F6CDD1D % P


def _solve_rows(rs: RootSystem, order: list, exponents: dict) -> list[dict]:
    """h - 1 rows of M(q) independent at the check point, from as few loops as it takes.

    Loops are taken in the order of exponents, and the build stops at the
    first one after which the rows built hold h - 1 rows independent on the
    unknown columns at the check point; _independent_rows then picks them in
    (q-degree, key) order.  When the loops run out first, every row is built
    and _independent_rows names the whole system's rank.
    """
    h1 = len(order) - 1
    built: list = []
    echelon: list = []
    for loop, m_eig in exponents.items():
        rows = _loop_rows(rs, order, loop, m_eig)
        built += rows
        pivots, _ = _rref(echelon + _at([row for _, _, row in rows], _CHECK_POINT), h1)
        echelon = [row for _, row in pivots]
        if len(echelon) == h1:
            break
    built.sort(key=lambda item: item[:2])
    return _independent_rows([row for _, _, row in built], len(order))


def _loop_rows(rs: RootSystem, order: list, loop, m_eig: int) -> list[tuple]:
    """Loop L's nonzero rows of M(q), as (q-degree, (L, omega), {column: {q-degree: int}})
    with lowest degree 0.

    Row (L, omega) is the e^omega part of A_L X - q^{m_L} X, and A_L[omega][nu]
    is read off the image of e^nu under L's Demazure word.  Each row is shifted
    by q^{-low}, which moves none of its zeros at q != 0.
    """
    rows: dict = {}
    for j, nu in enumerate(order):
        image = demazure_word(rs, loop, CharPoly.monomial(nu, 0)).terms.items()
        for (wt, n), c in [*image, ((nu, m_eig), -1)]:
            poly = rows.setdefault(wt, {}).setdefault(j, {})
            poly[n] = poly.get(n, 0) + c
    out = []
    for wt, row in rows.items():
        row = {j: {n: c for n, c in poly.items() if c} for j, poly in row.items()}
        degrees = [n for poly in row.values() for n in poly]
        if degrees:
            low = min(degrees)
            out.append((max(degrees) - low, (loop, wt), {j: {n - low: c for n, c in poly.items()}
                                                         for j, poly in row.items() if poly}))
    return out


def _independent_rows(rows: list[dict], h: int) -> list[dict]:
    """h - 1 rows independent on the unknown columns at the check point, least degrees first.

    The pivot columns of the transposed system are the first rows, in the given
    order, independent of those before them.  A nonzero minor mod P proves
    rank M >= h - 1 over Q(q); a kernel of dimension one needs that many rows,
    so a lower rank stops the solve (it bounds dim ker M from above only).
    """
    cols: list[dict] = [{} for _ in range(h)]
    for i, values in enumerate(_at(rows, _CHECK_POINT)):
        for j, value in values.items():
            cols[j][i] = value
    pivots, _ = _rref(cols[:-1], len(rows))
    if len(pivots) < h - 1:
        rank = len(_rref(cols, len(rows))[0])
        raise ValueError(f"loop eigen-system is not uniquely solvable: rank {rank} at the "
                         f"check point, a unique base needs {h - 1}")
    return [rows[c] for c, _ in pivots]


def _at(rows: list[dict], x: int) -> list[dict]:
    """The polynomial rows evaluated at q = x, as {column: ModP}."""
    powers = [1]
    for _ in range(max((n for row in rows for poly in row.values() for n in poly), default=0)):
        powers.append(powers[-1] * x % P)
    return [{j: ModP(sum(c * powers[n] for n, c in poly.items())) for j, poly in row.items()}
            for row in rows]


def _kernel_at(rows: list[dict], h1: int, x: int):
    """X_nu(x) mod P for the h1 unknowns when X_lam = 1, or None where the rows lose rank.

    X_lam's column h1 is the right-hand side: the pivots solve M' Y = M_lam, and X' = -Y.
    """
    pivots, _ = _rref(_at(rows, x), h1)
    if len(pivots) < h1:
        return None
    return [-row[h1].v % P if h1 in row else 0 for _, row in pivots]


def _newton_add(newton: list[list[int]], xs: list[int], x: int, values: list[int]) -> bool:
    """Extend each Newton interpolant mod P through (x, value); True if none of them changed."""
    scale = 1
    for a in xs:
        scale = scale * (x - a) % P
    inv = pow(scale, -1, P)
    stable = bool(xs)
    for coeffs, y in zip(newton, values):
        at = 0
        for c, a in zip(reversed(coeffs), reversed(xs)):
            at = (at * (x - a) + c) % P
        top = (y - at) * inv % P
        coeffs.append(top)
        stable = stable and not top
    return stable


def _candidate(lam: Weight, order: list, newton: list, xs: list) -> CharPoly:
    """The interpolants in the monomial basis, each coefficient lifted to (-P/2, P/2], and X_lam = 1."""
    terms = {(lam.coords, 0): 1}
    for nu, coeffs in zip(order, newton):
        poly: list[int] = []
        for c, a in zip(reversed(coeffs), reversed(xs)):
            # poly <- poly * (q - a) + c
            poly = [(lo - a * hi) % P for lo, hi in zip([0, *poly], [*poly, 0])]
            poly[0] = (poly[0] + c) % P
        for n, c in enumerate(poly):
            if c:
                terms[(nu, n)] = c - P if c > P // 2 else c
    return CharPoly(dict(sorted(terms.items())))


def _is_base(rs: RootSystem, lam: Weight, value: CharPoly, exponents: dict) -> bool:
    """Whether X_lam = 1 and every loop identity holds exactly, as polynomials."""
    if {n: c for (wt, n), c in value.terms.items() if wt == lam.coords} != {0: 1}:
        return False
    return all(demazure_word(rs, loop, value) == value.shift_q(m_eig)
               for loop, m_eig in exponents.items())


def weyl_character(rs: RootSystem, lam: Weight) -> CharPoly:
    """ch V(lam) by the alternating-sum ratio (independent of Demazure operators)."""
    if not lam.is_dominant():
        raise ValueError("weight must be dominant")
    rho = rs.rho()
    num = CharPoly.zero()
    den = CharPoly.zero()
    for w in rs.weyl_elements():
        sign = -1 if w.length() % 2 else 1
        num = num + CharPoly.monomial(w.act(lam + rho), 0, sign)
        den = den + CharPoly.monomial(w.act(rho), 0, sign)
    return exact_divide(num, den)
