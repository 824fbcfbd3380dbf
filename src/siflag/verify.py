"""The verification engine: one case generator and one check per identity family.

* ``nmconn``: the two specialization identities linking ``t = inf`` and ``t = 0``;
* ``dmain``: Demazure composition ``D_w ch W(lam)_v = ch W(lam)_{wv}`` on global
  Weyl modules, for every length-additive pair;
* ``fdif``: every minimal quantum-Bruhat loop at ``w`` scales ``ch W(lam)_w`` by
  its telescoped q-power, and two loops commute;
* ``cor``: the ``E^dagger_{-w lam}(q^{-1}, inf)`` family against the
  Gram-Schmidt oracle;
* ``gnsmac``: the twisted Euler characteristic's closed form against the
  ``T_i`` recursion.

``siflag verify`` and the acceptance tests both run these checks.  A case is
plain data (weights as coordinates, Weyl elements as reduced words), so a case
list is built before any character is computed.  Every check returns
``(ok, first discrepancy)``.
"""
from __future__ import annotations

from itertools import product as iproduct
from typing import NamedTuple

from . import weylchar as wc
from .affine import AffineElement, minimal_loops, shortest_word
from .charpoly import demazure_word
from .macdonald import bar_conjugate, gram_schmidt_E, specialize
from .rootdata import Coweight, RootSystem, Weight, WeylElement, minimal_coset_reps

SUITES = ("nmconn", "dmain", "fdif", "cor", "gnsmac")


class Case(NamedTuple):
    """One verification case: lam in fundamental coordinates, w and v as words."""

    suite: str
    case_id: str
    lam: tuple[int, ...]
    w: tuple[int, ...] = ()
    v: tuple[int, ...] = ()


def dominant_weights(rs: RootSystem, max_weight: int) -> list[Weight]:
    """Dominant weights with coordinate sum in [1, max_weight], smallest first."""
    out = [Weight(c) for c in iproduct(range(max_weight + 1), repeat=rs.rank)
           if 0 < sum(c) <= max_weight]
    return sorted(out, key=lambda w: (sum(w.coords), w.coords))


def _strictly_antidominant(rs: RootSystem, beta: Coweight) -> bool:
    return all(rs.pairing(beta, rs.simple_root(i)) < 0 for i in range(1, rs.rank + 1))


def default_beta(rs: RootSystem) -> Coweight:
    """The first strictly antidominant coweight, searching boxes of growing radius."""
    for radius in range(1, 9):
        for coords in sorted(iproduct(range(0, -radius - 1, -1), repeat=rs.rank)):
            if _strictly_antidominant(rs, Coweight(coords)):
                return Coweight(coords)
    raise AssertionError("no strictly antidominant coweight found in search box")


def _word(w: WeylElement) -> str:
    return ".".join(map(str, w.word())) or "e"


def cases(rs: RootSystem, suite: str, max_weight: int) -> list[Case]:
    """The cases of one suite, or of every suite in SUITES order for "all"."""
    if suite == "all":
        return [case for name in SUITES for case in cases(rs, name, max_weight)]
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if suite == "cor" and rs.key in wc.ORACLE_TYPES:
        max_weight = min(max_weight, 2)  # the oracle's cost grows fast with the weight
    out = []
    for lam in dominant_weights(rs, max_weight):
        head = f"{rs.type_label}{rs.rank}:lam={','.join(map(str, lam.coords))}"
        if suite == "nmconn":
            out.append(Case(suite, head, lam.coords))
        elif suite == "dmain":
            elems = rs.weyl_elements()
            for w in elems:
                for v in elems:
                    if (w * v).length() == w.length() + v.length():
                        out.append(Case(suite, f"{head}:w={_word(w)}:v={_word(v)}",
                                        lam.coords, w.word(), v.word()))
        else:
            for w in minimal_coset_reps(rs, lam):
                out.append(Case(suite, f"{head}:w={_word(w)}", lam.coords, w.word()))
    return out


def check(rs: RootSystem, case: Case, trunc: int, beta: Coweight | None = None):
    """(ok, first discrepancy) of one case; nmconn uses beta, default_beta if None."""
    lam = Weight(case.lam)
    if case.suite == "nmconn":
        return check_nmconn(rs, lam, default_beta(rs) if beta is None else beta)
    w = rs.element_from_word(case.w)
    if case.suite == "dmain":
        return check_dmain(rs, lam, w, rs.element_from_word(case.v), trunc)
    if case.suite == "fdif":
        return check_fdif(rs, lam, w, trunc)
    if case.suite == "cor":
        return check_cor(rs, lam, w)
    if case.suite == "gnsmac":
        return check_gnsmac(rs, lam, w, trunc)
    raise ValueError(f"unknown suite {case.suite!r}")


def _discrepancy(lhs, rhs):
    """None if two CharPolys (CharSeries: up to the watermark) agree, else the
    first differing term in (q-degree, weight) order as a report record."""
    got = lhs.first_discrepancy(rhs)
    if got is None:
        return None
    (wt, n), a, b = got
    return {"q": n, "wt": list(wt), "lhs": str(a), "rhs": str(b)}


def check_nmconn(rs: RootSystem, lam: Weight, beta: Coweight):
    """D_{w0} P_inf = P_0 and D_{w0 t_beta} P_0 = q^{<beta, lam>} P_inf, exactly.

    P_inf = ch W_{lam*} and P_0 = ch W_{w0 lam*} for lam* = -w0 lam; beta must
    be strictly antidominant.
    """
    if not lam.is_dominant():
        raise ValueError("weight must be dominant")
    if not _strictly_antidominant(rs, beta):
        raise ValueError("beta must pair strictly negatively with every simple root")
    w0 = rs.longest_element()
    lam_dual = -w0.act(lam)
    p_inf = wc.base_char(rs, lam_dual)
    p_zero = wc.genweyl_char(rs, w0, lam_dual).value
    disc = _discrepancy(demazure_word(rs, w0.word(), p_inf), p_zero)
    if disc is None:
        word = shortest_word(AffineElement(w0, beta.coords))
        disc = _discrepancy(demazure_word(rs, word, p_zero),
                            p_inf.shift_q(rs.pairing(beta, lam)))
    return disc is None, disc


def check_dmain(rs: RootSystem, lam: Weight, w: WeylElement, v: WeylElement, trunc: int):
    """D_w ch W(lam)_v = ch W(lam)_{wv} up to the watermark, for l(wv) = l(w) + l(v)."""
    # the left side keeps the full watermark: only classical letters act
    lhs = demazure_word(rs, w.word(), wc.global_demazure_char(rs, v, lam, trunc).value)
    disc = _discrepancy(lhs, wc.global_demazure_char(rs, w * v, lam, trunc).value)
    return disc is None, disc


def check_fdif(rs: RootSystem, lam: Weight, w: WeylElement, trunc: int):
    """Each minimal loop at w scales ch W(lam)_w by its telescoped q-power, and
    the first two loops commute, up to the watermark."""
    loops = minimal_loops(rs, w)
    for loop in loops:
        # ok includes that m is the telescoped exponent
        m, ok = wc.difference_loop_check(rs, w, lam, loop, trunc)
        if not ok:
            return False, {"loop": list(loop), "exponent": m,
                           "telescoped": wc.loop_exponent(rs, loop, w, lam)}
    if len(loops) >= 2:
        a, b = loops[0], loops[1]
        series = wc.global_demazure_char(rs, w, lam, trunc).value
        if not demazure_word(rs, a + b, series).equal_upto_watermark(
                demazure_word(rs, b + a, series)):
            return False, {"loops": [list(a), list(b)],
                           "issue": "loop operators fail to commute"}
    return True, None


def check_cor(rs: RootSystem, lam: Weight, w: WeylElement):
    """E^dagger_{-w lam}(q^{-1}, inf) by the T_i recursion equals the oracle's.

    It also equals ch W_lam at w = e, and at the longest w the oracle's t = 0
    specialization equals ch W_{w lam}.  Outside wc.ORACLE_TYPES there is no
    independent reference: only the exactness of every (1 - q^a) division
    along the recursion is checked.
    """
    fam = wc.cor_family(rs, w, lam)
    if rs.key not in wc.ORACLE_TYPES:
        return True, None
    oracle = specialize(bar_conjugate(gram_schmidt_E(rs, -w.act(lam))), ("t-inf", "q-inv"))
    disc = _discrepancy(fam, oracle)
    if disc is not None:
        return False, disc
    if w == rs.identity and wc.genweyl_char(rs, w, lam).value != fam:
        return False, "base characters of the two families disagree"
    if w.length() == max(u.length() for u in minimal_coset_reps(rs, lam)):
        zero_end = specialize(bar_conjugate(gram_schmidt_E(rs, -lam)), "t-0")
        disc = _discrepancy(wc.genweyl_char(rs, w, lam).value, zero_end)
    return disc is None, disc


def check_gnsmac(rs: RootSystem, lam: Weight, w: WeylElement, trunc: int):
    """Every step of the twisted closed form along the chain to w is T_i of the
    previous one, up to the watermark (checked by twisted_euler_char itself)."""
    try:
        wc.twisted_euler_char(rs, w, lam, trunc, check=True)
    except AssertionError as err:
        return False, str(err)
    return True, None
