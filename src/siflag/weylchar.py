"""Characters of generalized and global Weyl module Demazure submodules.

The cyclic-module character ch W_{w lam} is grown from the antidominant-free
base ch W_lam by plain Demazure steps D_i along Bruhat covers inside the
minimal-coset set W^lam.  The companion family E^dagger_{-w lam}(q^{-1}, inf)
is grown from the same base by the twisted steps T_i = D_i - 1, dividing out
(1 - q^{<alpha_j^vee, lam>}) whenever the step pulls back to a simple root.
The two families agree at w = e and split immediately afterwards; both are
cross-checked against the Gram-Schmidt oracle at rank <= 2.

The base itself comes from the oracle in types A1 and A2 and otherwise from an
exact eigen-solve of the quantum-Bruhat loop difference operators, verified as
an exact polynomial identity after the fact.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .affine import minimal_loops, quantum_step, walk_quantum
from .charpoly import (
    CharPoly,
    CharSeries,
    demazure_op,
    demazure_word,
    exact_divide,
    freeness_factor,
    t_op,
)
from .macdonald import bar_conjugate, gram_schmidt_E, specialize
from .qt import gauss_solve
from .rootdata import (
    Coweight,
    RootSystem,
    Weight,
    WeylElement,
    minimal_coset_representative,
    minimal_coset_reps,
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

# the types whose base comes from the Gram-Schmidt oracle, which is fast there
ORACLE_TYPES = (("A", 1), ("A", 2))


def base_char(rs: RootSystem, lam: Weight, method: str = "auto") -> CharPoly:
    """ch W_lam: oracle specialization at rank <= 2 (A types), eigen-solve otherwise."""
    if not lam.is_dominant():
        raise ValueError("weight must be dominant")
    if method == "auto":
        method = "oracle" if rs.key in ORACLE_TYPES else "eigen"
    key = (rs.key, lam.coords, method)
    got = _BASE_CACHE.get(key)
    if got is None:
        if method == "oracle":
            e_poly = gram_schmidt_E(rs, -lam)
            got = specialize(bar_conjugate(e_poly), ("t-inf", "q-inv"))
        elif method == "eigen":
            got = None
            last_err: Exception | None = None
            for window in (8, 14, 20, 26):
                try:
                    got = eigen_solve_base(rs, lam, window).value
                    break
                except ValueError as err:
                    last_err = err
            if got is None:
                raise ValueError(f"eigen base solve failed for {lam}: {last_err}")
        else:
            raise ValueError(f"unknown base method {method!r}")
        if got.coeff(lam, 0) != 1:
            raise AssertionError("base character is not monic at (lam, q^0)")
        _BASE_CACHE[key] = got
    return got


def coset_chain(rs: RootSystem, lam: Weight, w: WeylElement) -> list[tuple[int, WeylElement]]:
    """Cover steps (i, u) with s_i u > u from e up to w, staying inside W^lam."""
    reps = set(minimal_coset_reps(rs, lam))
    if w not in reps:
        raise ValueError("w is not a minimal coset representative")
    parent: dict[WeylElement, tuple[int, WeylElement]] = {}
    frontier = [rs.identity]
    seen = {rs.identity}
    while frontier:
        nxt = []
        for u in sorted(frontier, key=lambda x: x.word()):
            for i in range(1, rs.rank + 1):
                v = rs.simple_reflection(i) * u
                if v in reps and v not in seen and v.length() == u.length() + 1:
                    parent[v] = (i, u)
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    steps = []
    cur = w
    while cur != rs.identity:
        i, u = parent[cur]
        steps.append((i, u))
        cur = u
    steps.reverse()
    return steps


def genweyl_char(rs: RootSystem, w: WeylElement, lam: Weight) -> GenWeylChar:
    """ch W_{w lam}, via D_i steps along any cover chain in W^lam (order-free)."""
    if not lam.is_dominant():
        raise ValueError("weight must be dominant")
    w = minimal_coset_representative(rs, w, lam)
    value = base_char(rs, lam)
    for i, _ in coset_chain(rs, lam, w):
        value = demazure_op(rs, i, value)
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
    one = CharPoly.one(rs.rank)
    for i, u in coset_chain(rs, lam, w):
        stepped = t_op(rs, i, value)
        j = _pullback_simple(rs, u, i)
        if j is not None:
            a = lam.coords[j - 1]
            if a <= 0:
                raise AssertionError("cover inside W^lam pulled back to a stabilized root")
            divisor = one - CharPoly.monomial((0,) * rs.rank, a)
            stepped = exact_divide(stepped, divisor)
        value = stepped
    return value


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


def difference_loop_check(rs: RootSystem, w: WeylElement, lam: Weight, loop, trunc: int):
    """Apply a loop operator to ch W(lam)_w; return (realized exponent, ok).

    ok means the result is a pure q-power times the input up to the watermark
    and the realized exponent telescopes to the normalized-step prediction.
    """
    dc = global_demazure_char(rs, w, lam, trunc)
    if not loop:
        return 0, True
    chain = walk_quantum(rs, loop, dc.w)
    if chain[-1] != dc.w:
        raise ValueError("word is not a loop at w")
    result = demazure_word(rs, loop, dc.value)
    ref = dc.w.act(lam).coords
    degs = [n for (wt, n) in result.poly.terms if wt == ref and n <= result.watermark]
    if not degs:
        return 0, False
    m = min(degs)
    shifted = dc.value.shift_q(m)
    ok = result.equal_upto_watermark(shifted)
    ok = ok and (m == loop_exponent(rs, loop, dc.w, lam))
    return m, ok


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


def twisted_euler_char(rs: RootSystem, w: WeylElement, lam: Weight, trunc: int,
                       check: bool = True) -> CharSeries:
    """Character of the twisted sheaf sections at w, as a truncated q-series.

    Closed form: freeness factor of lambda_w times the T_i-recursion family.
    With check=True each chain step is re-verified against T_i applied to the
    previous closed form, watermark-deep.
    """
    w = minimal_coset_representative(rs, w, lam)
    if not check:
        return _twisted_closed(rs, w, lam, trunc)
    # the chain ends at w, so its last closed form is the result
    closed = _twisted_closed(rs, rs.identity, lam, trunc)
    for i, u in coset_chain(rs, lam, w):
        target = rs.simple_reflection(i) * u
        stepped = t_op(rs, i, closed)
        closed = _twisted_closed(rs, target, lam, trunc)
        if not closed.equal_upto_watermark(stepped):
            raise AssertionError(
                f"closed form and T_{i} recursion disagree at {target!r}")
    return closed


def _twisted_closed(rs: RootSystem, w: WeylElement, lam: Weight, trunc: int) -> CharSeries:
    return freeness_factor(rs, lambda_w(rs, lam, w), trunc).mul_poly(cor_family(rs, w, lam))


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
    from itertools import product as iproduct

    from .affine import loop_translation_weight, translation_word

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
    from .macdonald import hull_weights

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

    zero, one = Fraction(0), Fraction(1)
    rows: dict = {}
    for loop in loops:
        m_eig = loop_exponent(rs, loop, rs.identity, lam)
        for (wt, n), pos in index.items():
            img = images[(loop, wt)]
            for (wt2, n2), c in img.terms.items():
                row = rows.setdefault((loop, wt2, n2 + n), {})
                row[pos] = row.get(pos, zero) + c
            row = rows.setdefault((loop, wt, n + m_eig), {})
            row[pos] = row.get(pos, zero) - 1
    width = range(len(unknowns))
    matrix = [[entries.get(pos, zero) for pos in width] for _, entries in sorted(rows.items())]
    rhs = [zero] * len(matrix)
    # normalization: extremal coefficient is exactly q^0
    for n in range(trunc + 1):
        row = [zero] * len(unknowns)
        row[index[(lam.coords, n)]] = one
        matrix.append(row)
        rhs.append(one if n == 0 else zero)

    sol = gauss_solve(matrix, rhs, zero)
    if sol is None:
        raise ValueError("loop eigen-system is not uniquely solvable on this window")
    value = CharPoly({key: c for key, c in zip(unknowns, sol) if c})
    for loop in loops:
        m_eig = loop_exponent(rs, loop, rs.identity, lam)
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
