"""The verification engine's checks reject a broken identity."""
from __future__ import annotations

import json

import pytest

from siflag import verify
from siflag import weylchar as wc
from siflag.charpoly import CharPoly, demazure_op
from siflag.cli import RunConfig, main, run_suite
from siflag.rootdata import SUPPORTED, build_root_system, from_name
from siflag.verify import Case, _strictly_antidominant, cases, check, default_beta, dominant_weights


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
def test_mutation_fails_its_suite(monkeypatch, fresh_char_caches, mutation, type_name):
    rs = from_name(type_name)
    suite, mutate = MUTATIONS[mutation]
    specs = cases(rs, suite, 1)
    # the bases and characters are cached unmutated first, in caches dropped afterwards
    assert all(check(rs, case)[0] for case in specs)
    failed = 0
    for case in specs:
        with monkeypatch.context() as mp:
            mutate(mp, rs, case)
            failed += not check(rs, case)[0]
    assert failed > 0


@pytest.mark.parametrize("type_name, referenced", [("A1", True), ("A2", True), ("B2", False)])
def test_cor_step_times_q_fails_only_where_the_oracle_is_the_reference(
        monkeypatch, fresh_char_caches, type_name, referenced):
    # q times the first step's result keeps every later (1 - q^a) division
    # exact, so only the oracle can catch it; B2 has no oracle, and its cor
    # cases still pass: the gap that verify's stderr note states
    rs = from_name(type_name)
    specs = cases(rs, "cor", 1)
    assert all(check(rs, case)[0] for case in specs)
    real = wc._cor_step
    failed = stepped = 0
    for case in specs:
        steps = []

        def scaled(*args):
            steps.append(args)
            value = real(*args)
            return value.shift_q(1) if len(steps) == 1 else value

        with monkeypatch.context() as mp:
            mp.setattr(wc, "_cor_step", scaled)
            failed += not check(rs, case)[0]
        stepped += bool(steps)
    assert stepped > 0
    assert failed == (stepped if referenced else 0)


# default_beta of every type whose box search of radius 8 succeeds: the nmconn
# digests pinned with them must not move
BOX_BETAS = {
    ("A", 1): (-1,), ("A", 2): (-1, -1), ("A", 3): (-3, -3, -2), ("A", 4): (-2, -3, -3, -2),
    ("B", 2): (-3, -2), ("B", 3): (-3, -5, -3), ("C", 2): (-2, -3), ("C", 3): (-3, -5, -6),
    ("D", 4): (-3, -5, -3, -3), ("G", 2): (-3, -5),
}
# beyond the box: -rho^vee in simple-coroot coordinates, scaled to integers
RHO_BETAS = {("B", 4): (-4, -7, -9, -5), ("C", 4): (-7, -12, -15, -16),
             ("F", 4): (-11, -21, -15, -8)}


@pytest.mark.parametrize("key", SUPPORTED, ids=lambda key: f"{key[0]}{key[1]}")
def test_default_beta_is_strictly_antidominant(key):
    rs = build_root_system(*key)
    beta = default_beta(rs)
    assert _strictly_antidominant(rs, beta)
    assert beta.coords == {**BOX_BETAS, **RHO_BETAS}[key]


def test_verify_resolves_the_default_beta_once_per_run(monkeypatch, capsys):
    calls = []
    real = verify.default_beta
    monkeypatch.setattr(verify, "default_beta", lambda rs: calls.append(rs.key) or real(rs))
    assert main(["verify", "--type", "A2", "--suite", "nmconn", "--max-weight", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["n_cases"] == 5
    assert calls == [("A", 2)]
    # an explicit --beta, or a run with no nmconn case, needs none
    assert main(["verify", "--type", "A2", "--suite", "nmconn", "--max-weight", "2",
                 "--beta=-1,-1"]) == 0
    assert main(["verify", "--type", "A2", "--suite", "dmain", "--max-weight", "1"]) == 0
    assert calls == [("A", 2)]


def test_nmconn_on_c4_runs_past_the_search_box():
    # every C4 fundamental weight gets a beta; only the known non-unique base
    # (omega4) fails, with the eigen solve's own message
    report = run_suite(RunConfig(command="verify", rs=from_name("C4"), suite="nmconn",
                                 max_weight=1))
    failed = {c["case"]: c["first_discrepancy"] for c in report.cases if c["status"] != "pass"}
    assert len(report.cases) == 4
    assert list(failed) == ["C4:lam=0,0,0,1"]
    assert "not uniquely solvable" in failed["C4:lam=0,0,0,1"]


def _old_word(w):
    return ".".join(map(str, w.word())) or "e"


def _matrix_dmain_cases(rs, max_weight):
    # the dmain enumeration before it read the index tables, kept verbatim
    out = []
    for lam in dominant_weights(rs, max_weight):
        head = f"{rs.type_label}{rs.rank}:lam={','.join(map(str, lam.coords))}"
        elems = rs.weyl_elements()
        for w in elems:
            for v in elems:
                if (w * v).length() == w.length() + v.length():
                    out.append(Case("dmain", f"{head}:w={_old_word(w)}:v={_old_word(v)}",
                                    lam.coords, w.word(), v.word()))
    return out


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3", "D4"])
def test_dmain_cases_match_the_matrix_enumeration(name):
    # the same ids, words and order as the |W|^2 matrix products
    rs = from_name(name)
    assert cases(rs, "dmain", 1) == _matrix_dmain_cases(rs, 1)


@pytest.mark.parametrize("type_name", ["B2", "G2"])
def test_verify_report_does_not_depend_on_a_warm_cache(tmp_path, fresh_char_caches, type_name):
    outs = []
    for run in ("cold", "warm"):
        out = tmp_path / f"{run}.json"
        assert main(["verify", "--type", type_name, "--suite", "all", "--max-weight", "1",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
        assert wc._CHAR_CACHE
    assert outs[0] == outs[1]
