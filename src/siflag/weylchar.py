"""Characters of generalized and global Weyl module Demazure submodules.

The cyclic-module character ch W_{w lam} is grown from the antidominant-free
base ch W_lam by plain Demazure steps D_i along a reduced word of the minimal
coset representative w in W^lam.  The companion family
E^dagger_{-w lam}(q^{-1}, inf) is grown from the same base by the twisted steps
T_i = D_i - 1 along coset_chain, the suffixes of that word (each again in
W^lam), dividing out (1 - q^{<alpha_j^vee, lam>}) whenever the step pulls back
to a simple root.
The two families agree at w = e and split immediately afterwards; both are
cross-checked against the Gram-Schmidt oracle at rank <= 2.

The base itself comes, in every type, from an exact eigen-solve of the
quantum-Bruhat loop difference operators, verified as an exact polynomial
identity after the fact.  This module never calls the oracle, so that
cross-check compares two independent routes.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from .affine import (loop_translation_weight, minimal_loops, quantum_step, translation_word,
                     walk_quantum)
from .charpoly import (
    CharPoly,
    CharSeries,
    demazure_op,
    demazure_word,
    exact_divide,
    freeness_factor,
    freeness_ratio,
    t_op,
)
from .qt import sparse_solve
from .rootdata import (
    Coweight,
    RootSystem,
    Weight,
    WeylElement,
    hull_weights,
    is_minimal_coset_rep,
    minimal_coset_representative,
)


@dataclass
class GenWeylChar:
    """Graded character of the cyclic module with extremal weight w(lam)."""

    lam: Weight
    w: WeylElement
    value: CharPoly


@dataclass
class DemazureChar:
    """Truncated character of the global Demazure submodule at w."""

    lam: Weight
    w: WeylElement
    value: CharSeries


# -- the shared base ch W_lam -----------------------------------------------------

_BASE_CACHE: dict = {}


def base_char(rs: RootSystem, lam: Weight) -> CharPoly:
    """ch W_lam, by the eigen-solve on windows 8, 14, 20, ... up to _window_cap."""
    if not lam.is_dominant():
        raise ValueError("weight must be dominant")
    key = (rs.key, lam.coords)
    got = _BASE_CACHE.get(key)
    if got is None:
        cap = _window_cap(rs, lam)
        window = 8
        while got is None:
            try:
                got = eigen_solve_base(rs, lam, window).value
            except ValueError as err:
                if window >= cap:
                    raise ValueError(f"eigen base solve failed for {lam.coords}: {err}")
                window += 6
        if got.coeff(lam, 0) != 1:
            raise AssertionError("base character is not monic at (lam, q^0)")
        _BASE_CACHE[key] = got
    return got


def _window_cap(rs: RootSystem, lam: Weight) -> int:
    """The last window of base_char: 26, or the first window >= (lam+rho, lam+rho)/2.

    With (theta, theta) = 2, the top q-degree of ch W_lam stayed within that
    bound on every weight measured (A1 up to 14 omega, where odd multiples
    reach it, and small A2, B2 and G2 weights), and the cap is the first window
    that solves for A1 9 omega to 13 omega.  It is not proved, so it only
    decides when to give up: a window too small fails to solve, and every
    solution is re-verified exactly.
    """
    mu = lam + rs.rho()
    r = rs.weight_to_root(mu)
    # (alpha_j, alpha_j)/2 = theta^vee_j / theta_j, as theta^vee = 2 theta / (theta, theta)
    half = sum(r[j] * mu.coords[j] * Fraction(rs.theta_coroot.coords[j], 2 * rs.theta[j])
               for j in range(rs.rank))
    cap = 26
    while cap < half:
        cap += 6
    return cap


def coset_chain(rs: RootSystem, lam: Weight, w: WeylElement) -> list[tuple[int, WeylElement]]:
    """Cover steps (i, u) with s_i u > u from e up to w, staying inside W^lam.

    They read a reduced word of w from the right.  Each suffix u of it lies in
    W^lam again: if u s_j < u for some s_j fixing lam, w s_j would be shorter
    than w.
    """
    if not is_minimal_coset_rep(rs, w, lam):
        raise ValueError("w is not a minimal coset representative")
    steps = []
    u = rs.identity
    for i in reversed(w.word()):
        steps.append((i, u))
        u = rs.simple_reflection(i) * u
    return steps


def genweyl_char(rs: RootSystem, w: WeylElement, lam: Weight) -> GenWeylChar:
    """ch W_{w lam} = D_w ch W_lam, for the minimal representative w of w W_lam."""
    if not lam.is_dominant():
        raise ValueError("weight must be dominant")
    w = minimal_coset_representative(rs, w, lam)
    value = demazure_word(rs, w.word(), base_char(rs, lam))
    if value.coeff(w.act(lam), 0) != 1:
        raise AssertionError("cyclic-vector coefficient is not 1")
    return GenWeylChar(lam, w, value)


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
    """j when u^{-1} alpha_i = alpha_j for a simple root, else None."""
    pulled = u.inverse().act(rs.simple_root(i))
    for j in range(1, rs.rank + 1):
        if pulled == rs.simple_root(j):
            return j
    return None


def global_demazure_char(rs: RootSystem, w: WeylElement, lam: Weight, trunc: int) -> DemazureChar:
    """ch W(lam)_w = freeness factor times ch W_{w lam}, truncated at q-order trunc."""
    gen = genweyl_char(rs, w, lam)
    series = freeness_factor(rs, lam, trunc).mul_poly(gen.value)
    return DemazureChar(lam, gen.w, series)


def cns_step(rs: RootSystem, i: int, dc: DemazureChar) -> DemazureChar:
    """One induction step: the normalized D_i image of a global Demazure character."""
    target = quantum_step(rs, i, dc.w)
    if target is None:
        raise ValueError(f"letter {i} is not a quantum cover at {dc.w!r}")
    value = demazure_op(rs, i, dc.value)
    if i == 0:
        value = value.shift_q(-rs.pairing(rs.theta_coroot, dc.w.act(dc.lam)))
    return DemazureChar(dc.lam, target, value)


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


def twisted_euler_char(rs: RootSystem, w: WeylElement, lam: Weight, trunc: int) -> CharSeries:
    """Character of the twisted sheaf sections at w, as a truncated q-series.

    Closed form F_{lambda_w}(q) E_w, with E_w the T_i-recursion family, after
    twisted_family has checked every step of the chain to w.
    """
    w = minimal_coset_representative(rs, w, lam)
    return freeness_factor(rs, lambda_w(rs, lam, w), trunc).mul_poly(twisted_family(rs, w, lam))


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
    for i, u in coset_chain(rs, lam, w):
        target = rs.simple_reflection(i) * u
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

    Every minimal loop, plus each reduced translation word from a small dominant
    box whose letterwise walk happens to close through the cover graph.  The
    lifts of these loops give independent commuting difference operators.
    """
    got = _BASE_LOOPS.get(rs.key)
    if got is not None:
        return got
    loops = list(minimal_loops(rs, rs.identity))
    lifts = {loop_translation_weight(rs, loop, rs.identity).coords for loop in loops}
    for coords in iproduct(range(0, 4), repeat=rs.rank):
        if all(c == 0 for c in coords) or coords in lifts:
            continue
        word = translation_word(rs, Coweight(coords))
        try:
            chain = walk_quantum(rs, word, rs.identity)
        except ValueError:
            continue
        if chain[-1] == rs.identity:
            loops.append(word)
            lifts.add(coords)
    _BASE_LOOPS[rs.key] = loops
    return loops


def eigen_solve_base(rs: RootSystem, lam: Weight, trunc: int) -> GenWeylChar:
    """Solve the loop difference equations for ch W_lam on a finite window.

    Unknowns are coefficients on hull(lam) x q-degrees [0, trunc]; every minimal
    quantum-Bruhat loop at e contributes its eigen-equation, the extremal
    coefficient is pinned to q^0, and the result must satisfy the eigen identity
    exactly as polynomials (no truncation caveat survives).
    """
    if not lam.is_dominant():
        raise ValueError("weight must be dominant")
    if lam.is_zero():
        return GenWeylChar(lam, rs.identity, CharPoly.one(rs.rank))
    hull = hull_weights(rs, lam)
    unknowns = [(nu.coords, n) for nu in hull for n in range(trunc + 1)]
    index = {key: pos for pos, key in enumerate(unknowns)}

    loops = _base_loops(rs)
    images = {}
    for loop in loops:
        for nu in hull:
            images[(loop, nu.coords)] = demazure_word(
                rs, loop, CharPoly.monomial(nu.coords, 0))

    exponents = {loop: loop_exponent(rs, loop, rs.identity, lam) for loop in loops}
    rows: dict = {}
    for loop, m_eig in exponents.items():
        for (wt, n), pos in index.items():
            img = images[(loop, wt)]
            for (wt2, n2), c in img.terms.items():
                row = rows.setdefault((loop, wt2, n2 + n), {})
                row[pos] = row.get(pos, 0) + c
            row = rows.setdefault((loop, wt, n + m_eig), {})
            row[pos] = row.get(pos, 0) - 1
    # the kernel divides, so each nonzero enters it as a Fraction
    ncols = len(unknowns)
    system = [{pos: Fraction(c) for pos, c in entries.items() if c}
              for _, entries in sorted(rows.items())]
    # normalization: extremal coefficient is exactly q^0 (the right-hand side sits at ncols)
    system.append({index[(lam.coords, 0)]: Fraction(1), ncols: Fraction(1)})
    for n in range(1, trunc + 1):
        system.append({index[(lam.coords, n)]: Fraction(1)})

    sol = sparse_solve(system, ncols, 0)
    if sol is None:
        raise ValueError("loop eigen-system is not uniquely solvable on this window")
    value = CharPoly({key: c for key, c in zip(unknowns, sol) if c})
    for loop, m_eig in exponents.items():
        if demazure_word(rs, loop, value) != value.shift_q(m_eig):
            raise ValueError("eigen candidate fails the exact loop identity")
    return GenWeylChar(lam, rs.identity, value)


def weyl_character(rs: RootSystem, lam: Weight) -> CharPoly:
    """ch V(lam) by the alternating-sum ratio (independent of Demazure operators)."""
    if not lam.is_dominant():
        raise ValueError("weight must be dominant")
    rho = rs.rho()
    num = CharPoly.zero()
    den = CharPoly.zero()
    for w in rs.weyl_elements():
        sign = Fraction(-1) if w.length() % 2 else Fraction(1)
        num = num + CharPoly.monomial(w.act(lam + rho), 0, sign)
        den = den + CharPoly.monomial(w.act(rho), 0, sign)
    return exact_divide(num, den)
