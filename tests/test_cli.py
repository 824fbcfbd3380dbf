"""CLI parsing, emission formats, suites, and report determinism."""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

import siflag
from siflag.charpoly import CharPoly
from siflag.cli import RunConfig, emit, main, parse_args, parse_weyl_word, run_suite
from siflag.rootdata import Weight, build_root_system


def test_parse_args_examples():
    cfg = parse_args(["weylchar", "--type", "A2", "--lambda", "1,0"])
    assert cfg.rs.key == ("A", 2)
    assert cfg.lam == Weight((1, 0))
    assert cfg.w_word == ()

    cfg = parse_args(["weylchar", "--type", "A2", "--lambda", "1,0", "--w", "s1 s2"])
    rs = cfg.rs
    assert rs.element_from_word(cfg.w_word) == rs.simple_reflection(1) * rs.simple_reflection(2)

    with pytest.raises(SystemExit):
        parse_args(["weylchar", "--type", "A2", "--lambda", "1,0,0"])
    with pytest.raises(SystemExit):
        parse_args(["weylchar", "--type", "A2", "--lambda", "-1,0"])
    with pytest.raises(SystemExit):
        parse_args(["weylchar", "--type", "Q7", "--lambda", "1"])
    with pytest.raises(SystemExit):
        parse_args(["roots"])


def test_parse_weyl_word_forms():
    rs = build_root_system("A", 2)
    assert parse_weyl_word(rs, "e") == rs.identity
    assert parse_weyl_word(rs, "w0") == rs.longest_element()
    with pytest.raises(SystemExit):
        parse_weyl_word(rs, "s9")
    with pytest.raises(SystemExit):
        parse_weyl_word(rs, "x1")


def test_trunc_env_override(monkeypatch):
    monkeypatch.setenv("SIMAC_TRUNC", "7")
    cfg = parse_args(["weylchar", "--type", "A1", "--lambda", "1"])
    assert cfg.trunc == 7
    monkeypatch.setenv("SIMAC_TRUNC", "zero")
    with pytest.raises(SystemExit):
        parse_args(["weylchar", "--type", "A1", "--lambda", "1"])


def test_emit_examples():
    p = CharPoly.monomial((1,), 0) + CharPoly.monomial((-1,), 1)
    assert emit(p, "json") == '[{"coeff":"1","q":0,"wt":[1]},{"coeff":"1","q":1,"wt":[-1]}]'
    assert emit(CharPoly.one(1), "json") == '[{"coeff":"1","q":0,"wt":[0]}]'
    assert emit(CharPoly.zero(), "json") == "[]"
    assert "q^{0}" in emit(p, "latex")
    assert emit(p, "plain") == repr(p)


def test_cli_roots_and_qbruhat(capsys):
    assert main(["roots", "--type", "B2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["type"] == "B2"
    assert len(data["pos_roots"]) == 4

    assert main(["qbruhat", "--type", "A1", "--from", "e", "--to", "e"]) == 0
    assert capsys.readouterr().out.strip() == "0 1"

    assert main(["qbruhat", "--type", "A1"]) == 0
    edges = json.loads(capsys.readouterr().out)["edges"]
    assert {"from": "e", "to": "s1", "letter": 1} in edges
    assert {"from": "s1", "to": "e", "letter": 0} in edges


def test_cli_weylchar_and_emac(capsys):
    assert main(["weylchar", "--type", "A1", "--lambda", "1", "--w", "e", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == [{"coeff": "1", "q": 0, "wt": [1]}, {"coeff": "1", "q": 1, "wt": [-1]}]

    assert main(["emac", "--type", "A1", "--gamma", "-1", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert {"wt": [1], "num": "1-t", "den": "1-q*t"} in out

    # plain specialization of E_gamma itself
    assert main(["emac", "--type", "A1", "--gamma", "-1",
                 "--spec", "t-inf,q-inv", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == [{"coeff": "1", "q": 0, "wt": [-1]}, {"coeff": "1", "q": 1, "wt": [1]}]

    # the daggered family reproduces the module character
    assert main(["emac", "--type", "A1", "--gamma", "-1", "--dagger",
                 "--spec", "t-inf,q-inv", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == [{"coeff": "1", "q": 0, "wt": [1]}, {"coeff": "1", "q": 1, "wt": [-1]}]


def test_cli_twisted(capsys):
    assert main(["twisted", "--type", "A1", "--lambda", "1", "--w", "s1", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == [{"coeff": "1", "q": 0, "wt": [-1]}]


def test_run_suite_empty_weight_range():
    rs = build_root_system("A", 1)
    cfg = RunConfig(command="verify", rs=rs, suite="nmconn", max_weight=0, trunc=10)
    report = run_suite(cfg)
    assert report.cases == []
    assert report.n_failed() == 0


def test_run_suite_nmconn_a1():
    rs = build_root_system("A", 1)
    cfg = RunConfig(command="verify", rs=rs, suite="nmconn", max_weight=3, trunc=12)
    report = run_suite(cfg)
    assert len(report.cases) == 3
    assert report.n_failed() == 0
    for case in report.cases:
        assert case["status"] == "pass"
        assert case["first_discrepancy"] is None


def test_verify_cli_deterministic(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    code1 = main(["verify", "--suite", "all", "--type", "A1", "--jobs", "8",
                  "--max-weight", "2", "--trunc", "12", "--out", str(out1)])
    code2 = main(["verify", "--suite", "all", "--type", "A1", "--jobs", "8",
                  "--max-weight", "2", "--trunc", "12", "--out", str(out2)])
    assert code1 == 0 and code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["n_failed"] == 0
    assert payload["cases"] == sorted(payload["cases"], key=lambda c: (c["suite"], c["case"]))


def _verify_in_fresh_process(tmp_path, jobs: int) -> bytes:
    # a fresh interpreter, so no cache warmed by another test hides a race
    out = tmp_path / f"jobs{jobs}.json"
    src = os.path.dirname(os.path.dirname(siflag.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from siflag.cli import main; sys.exit(main(sys.argv[1:]))",
         "verify", "--suite", "fdif", "--type", "C2", "--max-weight", "1", "--trunc", "10",
         "--jobs", str(jobs), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return out.read_bytes()


def test_verify_jobs_independent_on_eigen_route(tmp_path):
    serial = _verify_in_fresh_process(tmp_path, 1)
    threaded = _verify_in_fresh_process(tmp_path, 2)
    assert threaded == serial
    payload = json.loads(serial)
    assert payload["n_cases"] > 0 and payload["n_failed"] == 0


def test_emac_unknown_spec_is_a_clean_error():
    with pytest.raises(SystemExit) as exc:
        main(["emac", "--type", "A1", "--gamma=-1", "--spec", "bogus"])
    assert exc.value.code == "emac: unknown specialization mode 'bogus'"


def test_emac_outside_oracle_scope_is_a_clean_error():
    with pytest.raises(SystemExit) as exc:
        main(["emac", "--type", "A3", "--gamma=-1,0,0"])
    assert exc.value.code == "emac: oracle scope is rank <= 2"


def test_verify_rejects_max_weight_below_one():
    for bad in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            parse_args(["verify", "--type", "A1", "--max-weight", bad])
        assert exc.value.code == "--max-weight must be >= 1"


def test_verify_rejects_jobs_below_one():
    for bad in ("0", "-5"):
        with pytest.raises(SystemExit) as exc:
            parse_args(["verify", "--type", "A1", "--jobs", bad])
        assert exc.value.code == "--jobs must be >= 1"


# sha256 of whole `siflag verify` reports and their exit codes.  Every identity
# check, case id and discrepancy record feeds these bytes, so a change to the
# verification engine that alters any of them fails here.
PINNED_REPORTS = {
    "B2": (["--suite", "all", "--max-weight", "1", "--trunc", "12"],
           "9db2f925641673000e4f0d3c8199acf7b8bef2f407d96d4d6d839ca4a81783f5", 0),
    "C2": (["--suite", "all", "--max-weight", "1", "--trunc", "12"],
           "50b4205e8f09a8c5c510c438479b3d465af19acd8c6b8598cf2c457714629cab", 0),
    "G2": (["--suite", "all", "--max-weight", "1", "--trunc", "12"],
           "771cc4e9ce45f8384e831101725e511a791697dfbc1d6e72a559e644cbf7d6f2", 0),
    # a bad --beta: the exception becomes the case's fail record
    "A1": (["--suite", "nmconn", "--max-weight", "1", "--beta=1"],
           "20b9302d3c53573aa94535135b81fa1a7813018356a83cdb4cfc5c69ff884b37", 1),
}


@pytest.mark.parametrize("type_name", sorted(PINNED_REPORTS))
def test_verify_report_bytes_are_pinned(tmp_path, type_name):
    args, digest, code = PINNED_REPORTS[type_name]
    out = tmp_path / "report.json"
    assert main(["verify", "--type", type_name, *args, "--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
