"""The verification engine: one case generator and one check per identity family.

* ``nmconn``: the two specialization identities linking ``t = inf`` and ``t = 0``;
* ``dmain``: Demazure composition ``D_w ch W_{v lam} = ch W_{wv lam}``, for
  every length-additive pair;
* ``fdif``: every minimal quantum-Bruhat loop at ``w`` scales ``ch W_{w lam}``
  by its telescoped q-power ``q^m``, and two loops commute on it;
* ``cor``: the ``E^dagger_{-w lam}(q^{-1}, inf)`` family against the
  Gram-Schmidt oracle;
* ``gnsmac``: each ``T_i`` step ``T_i E_u = P E_{s_i u}`` of the twisted closed
  form ``F_{lam_u} E_u``, with ``P = F_{lam_{s_i u}} / F_{lam_u} = prod (1 - q^k)``.

The paper states dmain, fdif and gnsmac on q-series, through the freeness
``ch W(lam)_w = F_lam(q) ch W_{w lam}``, ``F_lam = prod_i prod_{k <= lam_i}
(1 - q^k)^{-1}``.  F_lam is a series in q alone with constant term 1, and every
``D_i`` and ``T_i`` (``i = 0`` included) fixes q, so is linear over such series:
each exact identity above is its series identity divided through by F, and
equivalent to it.  No check truncates, so no verdict depends on a truncation.
``siflag verify`` and the acceptance tests both run these checks.  A case is
plain data (weights as coordinates, Weyl elements as reduced words), so a case
list is built before any character is computed.  Every check returns
``(ok, first discrepancy)``.
"""
from __future__ import annotations

from itertools import product as iproduct
from math import lcm
from typing import NamedTuple

from . import weylchar as wc
from .affine import AffineElement, minimal_loops, shortest_word
from .charpoly import demazure_word
from .macdonald import bar_conjugate, gram_schmidt_E, specialize
from .rootdata import Coweight, RootSystem, Weight, WeylElement, minimal_coset_reps

SUITES = ("nmconn", "dmain", "fdif", "cor", "gnsmac")

# the types where the cor suite has the Gram-Schmidt oracle as its reference
ORACLE_TYPES = (("A", 1), ("A", 2))
# the largest weight sum of the cor cases there: the oracle's cost grows fast
# with the weight
COR_MAX_WEIGHT = 2


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
    """The first strictly antidominant coweight in boxes of radius up to 8, else -rho^vee.

    The boxes are too small on B4, C4 and F4.  There the answer is -rho^vee in
    simple-coroot coordinates, scaled to integers: rho^vee pairs to 1 with every
    simple root.
    """
    for radius in range(1, 9):
        for coords in sorted(iproduct(range(0, -radius - 1, -1), repeat=rs.rank)):
            if _strictly_antidominant(rs, Coweight(coords)):
                return Coweight(coords)
    rho = [sum(row[j] for row in rs.cartan_inv) for j in range(rs.rank)]
    scale = lcm(*(c.denominator for c in rho))
    return Coweight(tuple(-int(c * scale) for c in rho))


def _word(word: tuple[int, ...]) -> str:
    return ".".join(map(str, word)) or "e"


def cases(rs: RootSystem, suite: str, max_weight: int) -> list[Case]:
    """The cases of one suite, or of every suite in SUITES order for "all"."""
    if suite == "all":
        return [case for name in SUITES for case in cases(rs, name, max_weight)]
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if suite == "cor" and rs.key in ORACLE_TYPES:
        max_weight = min(max_weight, COR_MAX_WEIGHT)
    if suite == "dmain":  # the pairs with l(wv) = l(w) + l(v), the same for every lam
        elements = rs.weyl_elements()
        pairs = [(w.word(), v.word()) for w in elements for v in elements
                 if (w * v).length() == w.length() + v.length()]
    out = []
    for lam in dominant_weights(rs, max_weight):
        head = f"{rs.type_label}{rs.rank}:lam={','.join(map(str, lam.coords))}"
        if suite == "nmconn":
            out.append(Case(suite, head, lam.coords))
        elif suite == "dmain":
            for w_word, v_word in pairs:
                out.append(Case(suite, f"{head}:w={_word(w_word)}:v={_word(v_word)}",
                                lam.coords, w_word, v_word))
        else:
            for w in minimal_coset_reps(rs, lam):
                out.append(Case(suite, f"{head}:w={_word(w.word())}", lam.coords, w.word()))
    return out


def check(rs: RootSystem, case: Case, beta: Coweight | None = None):
    """(ok, first discrepancy) of one case; nmconn uses beta, default_beta if None."""
    lam = Weight(case.lam)
    if case.suite == "nmconn":
        return check_nmconn(rs, lam, default_beta(rs) if beta is None else beta)
    w = rs.element_from_word(case.w)
    if case.suite == "dmain":
        return check_dmain(rs, lam, w, rs.element_from_word(case.v))
    if case.suite == "fdif":
        return check_fdif(rs, lam, w)
    if case.suite == "cor":
        return check_cor(rs, lam, w)
    if case.suite == "gnsmac":
        return check_gnsmac(rs, lam, w)
    raise ValueError(f"unknown suite {case.suite!r}")


def _discrepancy(lhs, rhs):
    """None if two CharPolys agree, else the first differing term in
    (q-degree, weight) order as a report record."""
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


def check_dmain(rs: RootSystem, lam: Weight, w: WeylElement, v: WeylElement):
    """D_w ch W_{v lam} = ch W_{wv lam} exactly, for l(wv) = l(w) + l(v)."""
    lhs = demazure_word(rs, w.word(), wc.genweyl_char(rs, v, lam).value)
    disc = _discrepancy(lhs, wc.genweyl_char(rs, w * v, lam).value)
    return disc is None, disc


def check_fdif(rs: RootSystem, lam: Weight, w: WeylElement):
    """Each minimal loop at w scales ch W_{w lam} by its telescoped q-power, and
    the first two loops commute on it, exactly."""
    loops = minimal_loops(rs, w)
    for loop in loops:
        # ok includes that m is the telescoped exponent
        m, ok = wc.difference_loop_check(rs, w, lam, loop)
        if not ok:
            return False, {"loop": list(loop), "exponent": m,
                           "telescoped": wc.loop_exponent(rs, loop, w, lam)}
    if len(loops) >= 2:
        a, b = loops[0], loops[1]
        value = wc.genweyl_char(rs, w, lam).value
        if demazure_word(rs, a + b, value) != demazure_word(rs, b + a, value):
            return False, {"loops": [list(a), list(b)],
                           "issue": "loop operators fail to commute"}
    return True, None


def check_cor(rs: RootSystem, lam: Weight, w: WeylElement):
    """E^dagger_{-w lam}(q^{-1}, inf) by the T_i recursion equals the oracle's.

    At the longest w the oracle's t = 0 specialization also equals
    ch W_{w lam}.  (At w = e the family is ch W_lam by construction: both
    chains are empty.)  Outside ORACLE_TYPES there is no
    independent reference: only the exactness of every (1 - q^a) division
    along the recursion is checked.
    """
    fam = wc.cor_family(rs, w, lam)
    if rs.key not in ORACLE_TYPES:
        return True, None
    oracle = specialize(bar_conjugate(gram_schmidt_E(rs, -w.act(lam))), ("t-inf", "q-inv"))
    disc = _discrepancy(fam, oracle)
    if disc is not None:
        return False, disc
    if w.length() == max(u.length() for u in minimal_coset_reps(rs, lam)):
        zero_end = specialize(bar_conjugate(gram_schmidt_E(rs, -lam)), "t-0")
        disc = _discrepancy(wc.genweyl_char(rs, w, lam).value, zero_end)
    return disc is None, disc


def check_gnsmac(rs: RootSystem, lam: Weight, w: WeylElement):
    """Every step of the twisted closed form along the chain to w is T_i of the
    previous one, exactly (checked by weylchar.twisted_family, which
    twisted_euler_char shares).  An inexact division along the chain fails too."""
    try:
        wc.twisted_family(rs, w, lam)
    except (AssertionError, ValueError) as err:
        return False, str(err)
    return True, None
