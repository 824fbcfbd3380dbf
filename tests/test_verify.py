"""The verification engine's checks reject a broken identity."""
from __future__ import annotations

import pytest

from siflag import weylchar as wc
from siflag.charpoly import CharPoly, demazure_op
from siflag.rootdata import from_name
from siflag.verify import cases, check


def _loop_exponent_plus_one(mp, rs, case):
    real = wc.loop_exponent
    mp.setattr(wc, "loop_exponent", lambda *args: real(*args) + 1)


def _t_op_as_d_op(mp, rs, case):
    mp.setattr(wc, "t_op", demazure_op)


def _ratio_without_its_factor(mp, rs, case):
    # each chain step's ratio has at most one (1 - q^k) factor
    mp.setattr(wc, "freeness_ratio", lambda rs, lam, mu: CharPoly.one(rs.rank))


def _dmain_against_vw(mp, rs, case):
    # the right-hand side ch W_{wv lam} is taken at v w instead
    w, v = rs.element_from_word(case.w), rs.element_from_word(case.v)
    real = wc.genweyl_char
    mp.setattr(wc, "genweyl_char",
               lambda rs_, x, lam: real(rs_, v * w if x == w * v else x, lam))


MUTATIONS = {
    "fdif-loop-exponent": ("fdif", _loop_exponent_plus_one),
    "gnsmac-t-as-d": ("gnsmac", _t_op_as_d_op),
    "gnsmac-dropped-factor": ("gnsmac", _ratio_without_its_factor),
    "dmain-v-times-w": ("dmain", _dmain_against_vw),
}


@pytest.mark.parametrize("type_name", ["A2", "B2"])
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutation_fails_its_suite(monkeypatch, mutation, type_name):
    rs = from_name(type_name)
    suite, mutate = MUTATIONS[mutation]
    specs = cases(rs, suite, 1)
    # the bases are cached unmutated first, and the cache is restored afterwards
    monkeypatch.setattr(wc, "_BASE_CACHE", dict(wc._BASE_CACHE))
    assert all(check(rs, case)[0] for case in specs)
    failed = 0
    for case in specs:
        with monkeypatch.context() as mp:
            mutate(mp, rs, case)
            failed += not check(rs, case)[0]
    assert failed > 0
