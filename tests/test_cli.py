"""CLI parsing, emission formats, suites, and report determinism."""
from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

from conftest import fresh_env
from siflag import cli
from siflag.charpoly import CharPoly
from siflag.cli import RunConfig, emit, main, parse_args, parse_weyl_word, run_suite
from siflag.rootdata import Coweight, RootSystem, Weight, build_root_system, from_name


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


def test_emit_examples():
    p = CharPoly.monomial((1,), 0) + CharPoly.monomial((-1,), 1)
    assert emit(p, "json") == '[{"coeff":"1","q":0,"wt":[1]},{"coeff":"1","q":1,"wt":[-1]}]'
    assert emit(CharPoly.one(1), "json") == '[{"coeff":"1","q":0,"wt":[0]}]'
    assert emit(CharPoly.zero(), "json") == "[]"
    assert emit(CharPoly.zero(), "latex") == emit(CharPoly.zero(), "plain") == "0"
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


def test_python_m_siflag_runs_the_cli():
    # an uninstalled checkout has no siflag script; python -m siflag stands in
    proc = subprocess.run([sys.executable, "-m", "siflag", "roots", "--type", "A1"],
                          env=fresh_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["type"] == "A1"


def test_qbruhat_words_are_checked_at_parsing():
    for argv in (["--from", "s5"], ["--from", "s5", "--to", "e"], ["--to", "x1"]):
        with pytest.raises(SystemExit, match="out of range|cannot parse|needs --to"):
            parse_args(["qbruhat", "--type", "A2", *argv])
    with pytest.raises(SystemExit, match="--from needs --to"):
        parse_args(["qbruhat", "--type", "A2", "--from", "e"])
    cfg = parse_args(["qbruhat", "--type", "A2", "--to", "w0"])
    assert cfg.qb_from == cfg.rs.identity
    assert cfg.qb_to == cfg.rs.longest_element()


def test_out_to_missing_directory_is_a_clean_error(tmp_path):
    target = tmp_path / "missing" / "x.json"
    with pytest.raises(SystemExit, match="cannot write --out") as err:
        main(["roots", "--type", "A1", "--out", str(target)])
    assert str(target) in str(err.value)


def test_failed_base_solve_is_a_clean_error(fresh_char_caches):
    # F4 omega4 is rank-deficient at the check point: 19 of the 24 a unique base needs
    for command in ("weylchar", "twisted"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--type", "F4", "--lambda", "0,0,0,1"])
        assert exc.value.code == (f"{command}: eigen base solve failed for (0, 0, 0, 1): "
                                  "loop eigen-system is not uniquely solvable: rank 19 at the "
                                  "check point, a unique base needs 24")


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


def test_verify_writes_a_raising_case_as_failed_and_exits_1(tmp_path):
    # parse_args rejects this beta; handed to the run path directly, its
    # exception becomes the case's fail record and the exit code is 1
    out = tmp_path / "report.json"
    cfg = RunConfig(command="verify", rs=build_root_system("A", 1), suite="nmconn",
                    max_weight=1, beta=Coweight((1,)), out=str(out))
    assert cli._run(cfg) == 1
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == "20b9302d3c53573aa94535135b81fa1a7813018356a83cdb4cfc5c69ff884b37")


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


def test_emac_unknown_spec_is_a_clean_error():
    # each mode has one spelling: tinf is no alias of t-inf
    for spec in ("bogus", "tinf"):
        with pytest.raises(SystemExit) as exc:
            main(["emac", "--type", "A1", "--gamma=-1", "--spec", spec])
        assert exc.value.code == f"emac: unknown specialization mode {spec!r}"


def test_emac_empty_spec_is_a_clean_error():
    # an empty list, or an empty entry in it, names no specialization
    for spec in (",", "", " ", "t-inf,", "t-inf,,q-inv"):
        with pytest.raises(SystemExit) as exc:
            main(["emac", "--type", "A1", "--gamma=-1", "--spec", spec])
        assert exc.value.code == ("--spec expects a comma list of specializations "
                                  f"(t-0, t-inf, q-inv), got {spec!r}")
    assert parse_args(["emac", "--type", "A1", "--gamma=-1", "--spec", " t-inf , q-inv "]
                      ).spec_modes == ("t-inf", "q-inv")


def test_verify_rejects_max_weight_below_one():
    for bad in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            parse_args(["verify", "--type", "A1", "--max-weight", bad])
        assert exc.value.code == "--max-weight must be >= 1"


def test_verify_rejects_beta_not_strictly_antidominant():
    for bad in ("1,-1", "0,-1", "-1,0"):
        with pytest.raises(SystemExit) as exc:
            parse_args(["verify", "--type", "A2", "--beta", bad])
        assert exc.value.code == "--beta must pair strictly negatively with every simple root"
    assert parse_args(["verify", "--type", "A2", "--beta", "-1,-1"]).beta.coords == (-1, -1)


def test_verify_rejects_jobs_below_one():
    for bad in ("0", "-5"):
        with pytest.raises(SystemExit) as exc:
            parse_args(["verify", "--type", "A1", "--jobs", bad])
        assert exc.value.code == "--jobs must be >= 1"


def test_bare_letter_type_outside_support_is_a_clean_error():
    for argv in (["--type", "A", "--rank", "9"], ["--type", "E", "--rank", "6"]):
        with pytest.raises(SystemExit) as exc:
            main(["roots", *argv])
        assert exc.value.code == f"unsupported root system {argv[1]}{argv[3]}"


def test_subcommands_reject_flags_they_do_not_read(capsys):
    for argv in (["roots", "--format", "json"], ["qbruhat", "--format", "json"],
                 ["verify", "--format", "json"], ["roots", "--trunc", "5"],
                 ["qbruhat", "--trunc", "5"], ["emac", "--gamma=-1", "--trunc", "5"]):
        with pytest.raises(SystemExit) as exc:
            parse_args([*argv, "--type", "A1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert parse_args(["emac", "--type", "A1", "--gamma=-1", "--format", "json"]).fmt == "json"
    assert parse_args(["verify", "--type", "A1", "--trunc", "5"]).trunc == 5
    cfg = parse_args(["twisted", "--type", "A1", "--lambda", "1", "--trunc", "5",
                      "--format", "latex"])
    assert (cfg.trunc, cfg.fmt) == (5, "latex")


def test_weylchar_reads_trunc_only_with_global(capsys):
    argv = ["weylchar", "--type", "A1", "--lambda", "1"]
    with pytest.raises(SystemExit) as exc:
        parse_args([*argv, "--trunc", "3"])
    assert exc.value.code == 2
    assert "--trunc is read only with --global" in capsys.readouterr().err
    assert parse_args([*argv, "--trunc", "3", "--global"]).trunc == 3
    assert parse_args([*argv, "--global"]).trunc == 20
    assert parse_args(argv).trunc == 20


@pytest.mark.parametrize("suite", ["dmain", "fdif", "cor", "gnsmac"])
def test_verify_reads_beta_only_with_an_nmconn_suite(suite, capsys):
    argv = ["verify", "--type", "A2", "--beta", "-1,-1"]
    with pytest.raises(SystemExit) as exc:
        parse_args([*argv, "--suite", suite])
    assert exc.value.code == 2
    assert "--beta is read only by the nmconn suite" in capsys.readouterr().err
    assert parse_args([*argv, "--suite", "nmconn"]).beta.coords == (-1, -1)
    assert parse_args(argv).beta.coords == (-1, -1)
    assert parse_args(["verify", "--type", "A2", "--suite", suite]).beta is None


def test_rank_beside_a_full_type_name_must_match():
    for argv in (["--type", "A2", "--rank", "5"], ["--type", "g2", "--rank", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(["roots", *argv])
        assert exc.value.code == f"--rank {argv[3]} does not match --type {argv[1]}"
    assert parse_args(["roots", "--type", "A2", "--rank", "2"]).rs.key == ("A", 2)


NEGATIVE_WEIGHT_ARGVS = [
    (["emac", "--type", "A2", "--format", "json"], "--gamma", "-1,0"),
    (["emac", "--type", "A1", "--spec", "t-inf"], "--gamma", "-2"),
    (["verify", "--type", "A2", "--suite", "nmconn", "--max-weight", "1"], "--beta", "-1,-1"),
]


@pytest.mark.parametrize("argv, flag, value", NEGATIVE_WEIGHT_ARGVS,
                         ids=["emac-A2", "emac-A1", "verify-A2"])
def test_negative_weight_parses_with_or_without_equals(capsysbinary, argv, flag, value):
    outs = []
    for tail in ([flag, value], [f"{flag}={value}"]):
        assert main([*argv, *tail]) == 0
        outs.append(capsysbinary.readouterr().out)
    assert outs[0] and outs[0] == outs[1]


def test_negative_lambda_reaches_the_dominance_check():
    argv = ["weylchar", "--type", "A2"]
    for tail in (["--lambda", "-1,0"], ["--lambda=-1,0"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, *tail])
        assert exc.value.code == "--lambda must be dominant (nonnegative coordinates)"


def test_weight_flags_refuse_empty_coordinates():
    for argv, flag in ((["weylchar", "--type", "A2"], "lambda"), (["emac", "--type", "A2"], "gamma"),
                       (["verify", "--type", "A2", "--suite", "nmconn"], "beta")):
        for value in ("1,,0", "1,0,", ",-1", ""):
            with pytest.raises(SystemExit) as exc:
                parse_args([*argv, f"--{flag}={value}"])
            assert exc.value.code == f"--{flag} expects a comma list of integers, got {value!r}"
    # int() alone would read "1_0" as 10 and non-ASCII digits as digits
    for argv, flag in ((["weylchar", "--type", "A2"], "lambda"), (["emac", "--type", "A2"], "gamma"),
                       (["verify", "--type", "A2", "--suite", "nmconn"], "beta")):
        for value in ("1_0,0", "-1,-1_0", "\u0661,0", "-1,-\uff11", "- 1,0", "1,+-1"):
            with pytest.raises(SystemExit) as exc:
                parse_args([*argv, f"--{flag}={value}"])
            assert exc.value.code == f"--{flag} expects a comma list of integers, got {value!r}"
    assert parse_args(["weylchar", "--type", "A2", "--lambda", "+1,0"]).lam == Weight((1, 0))
    # spaces around a coordinate stay allowed
    assert parse_args(["weylchar", "--type", "A2", "--lambda", " 1 , 0"]).lam == Weight((1, 0))
    assert parse_args(["emac", "--type", "A2", "--gamma= -1,0 "]).gamma == Weight((-1, 0))
    assert parse_args(["verify", "--type", "A2", "--beta=-1, -1"]).beta == Coweight((-1, -1))


INTEGER_FLAGS = [
    (["weylchar", "--type", "A1", "--lambda", "1", "--global"], "trunc"),
    (["twisted", "--type", "A1", "--lambda", "1"], "trunc"),
    (["verify", "--type", "A1"], "trunc"),
    (["verify", "--type", "A1"], "max-weight"),
    (["verify", "--type", "A1"], "jobs"),
    (["roots", "--type", "A"], "rank"),
]


@pytest.mark.parametrize("argv, flag", INTEGER_FLAGS,
                         ids=["weylchar-trunc", "twisted-trunc", "verify-trunc", "max-weight",
                              "jobs", "rank"])
def test_integer_flags_take_ascii_digits_only(argv, flag):
    # int() alone would read "0_3" as 3, " 2" as 2 and other scripts' digits as
    # digits, and str.isdigit() passes "\u00b2", which int() then refuses
    for value in ("0_3", "\u0662", "\u00b2", "\uff12", " 2", "2 ", "+-1", "--1", "", "1.0", "x"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--{flag}={value}"])
        assert exc.value.code == f"--{flag} expects an integer in ASCII digits, got {value!r}"
    dest = flag.replace("-", "_")
    if flag == "rank":
        assert parse_args([*argv, "--rank", "2"]).rs.key == ("A", 2)
        assert parse_args([*argv, "--rank", "+2"]).rs.key == ("A", 2)
        return
    # what the benchmark passes: --jobs 1, --trunc 40 through 80, --max-weight 1
    for value in ("1", "+1", "40", "80", "0017"):
        cfg = parse_args([*argv, f"--{flag}", value])
        assert getattr(cfg, dest, int(value)) == int(value)
    with pytest.raises(SystemExit) as exc:
        parse_args([*argv, f"--{flag}", "-3"])
    assert exc.value.code == f"--{flag} must be >= 1"


def test_names_and_weyl_words_take_ascii_digits_only():
    for name in ("A\u0662", "A\u00b2", "A\uff12", "A+2", "A-2", "A 2", "A2_0"):
        with pytest.raises(SystemExit) as exc:
            main(["roots", "--type", name])
        assert exc.value.code == f"cannot parse root-system name {name!r}"
    for token in ("s\u0661", "s\u00b2", "s+1", "s-1", "s", "s1_0"):
        for argv in (["weylchar", "--type", "A2", "--lambda", "1,0", "--w", token],
                     ["qbruhat", "--type", "A2", "--from", token, "--to", "s1"],
                     ["qbruhat", "--type", "A2", "--to", token]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == (
                f"cannot parse Weyl word token {token!r} (use e.g. 's1 s2' or 'w0')")
    assert parse_args(["roots", "--type", " a2 "]).rs.key == ("A", 2)
    assert parse_args(["weylchar", "--type", "A2", "--lambda", "1,0", "--w", "s01 s2"]).w_word == (1, 2)


INPUT_ERRORS = [
    (["weylchar", "--type", "A1", "--lambda", "1", "--global", "--trunc", "0"],
     "--trunc must be >= 1"),
    (["twisted", "--type", "A1", "--lambda", "1", "--trunc", "0"], "--trunc must be >= 1"),
    (["verify", "--type", "A1", "--trunc", "0"], "--trunc must be >= 1"),
    (["roots", "--type", "A"], "--rank is required when --type is a bare letter"),
    (["roots", "--type", "A2x"], "cannot parse root-system name 'A2x'"),
    (["weylchar", "--type", "A2", "--lambda", "1,x"],
     "--lambda expects a comma list of integers, got '1,x'"),
]


@pytest.mark.parametrize("argv, message", INPUT_ERRORS,
                         ids=["weylchar-trunc", "twisted-trunc", "verify-trunc", "bare-letter",
                              "bad-name", "lambda-not-int"])
def test_input_error_is_one_line_and_exits_nonzero(argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    # a string code prints as one line on stderr and exits with status 1
    assert exc.value.code == message


def test_emac_formats_share_one_sign_convention(capsys):
    outs = []
    for fmt in ("plain", "latex", "json"):
        assert main(["emac", "--type", "A1", "--gamma=-1", "--format", fmt]) == 0
        outs.append(capsys.readouterr().out)
    assert outs == [
        "e[-1]: 1\ne[1]: (1-t)/(1-q*t)\n",
        "1\\, e^{[-1]} + \\frac{1-t}{1-q*t}\\, e^{[1]}\n",
        '[{"wt":[-1],"num":"1","den":"1"},{"wt":[1],"num":"1-t","den":"1-q*t"}]\n',
    ]


def test_weight_flag_without_a_value_is_a_clean_error(capsys):
    for tail in ([], ["--format", "json"]):
        with pytest.raises(SystemExit) as exc:
            main(["emac", "--type", "A2", "--gamma", *tail])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.rstrip().endswith("error: argument --gamma: expected one argument")
        assert "Traceback" not in err


def test_verify_states_the_cor_cap(capsys, tmp_path):
    capped, plain = tmp_path / "capped.json", tmp_path / "plain.json"
    assert main(["verify", "--type", "A1", "--suite", "cor", "--max-weight", "3",
                 "--out", str(capped)]) == 0
    assert capsys.readouterr().err == (
        "note: cor cases capped at --max-weight 2 on A1, where the oracle is their reference\n")
    assert main(["verify", "--type", "A1", "--suite", "cor", "--max-weight", "2",
                 "--out", str(plain)]) == 0
    assert capsys.readouterr().err == ""
    assert capped.read_bytes() == plain.read_bytes()


def test_verify_notes_cor_cases_without_reference(capsys, tmp_path):
    out = tmp_path / "report.json"
    for type_name, noted in (("B2", True), ("A1", False)):
        assert main(["verify", "--type", type_name, "--suite", "cor", "--max-weight", "1",
                     "--trunc", "8", "--out", str(out)]) == 0
        n_cases = json.loads(out.read_text())["n_cases"]
        err = capsys.readouterr().err
        assert (f"note: {n_cases} cor case(s) passed with no independent reference" in err) == noted
        assert err.count("\n") == noted


# sha256 of whole `siflag verify` reports and their exit codes.  Every identity
# check, case id and discrepancy record feeds these bytes, so a change to the
# verification engine that alters any of them fails here.  Keyed by a label;
# each value starts with the type.
PINNED_REPORTS = {
    "B2": ("B2", ["--suite", "all", "--max-weight", "1", "--trunc", "12"],
           "9db2f925641673000e4f0d3c8199acf7b8bef2f407d96d4d6d839ca4a81783f5", 0),
    "C2": ("C2", ["--suite", "all", "--max-weight", "1", "--trunc", "12"],
           "50b4205e8f09a8c5c510c438479b3d465af19acd8c6b8598cf2c457714629cab", 0),
    "G2": ("G2", ["--suite", "all", "--max-weight", "1", "--trunc", "12"],
           "771cc4e9ce45f8384e831101725e511a791697dfbc1d6e72a559e644cbf7d6f2", 0),
    # an explicit --beta in place of the default
    "A1": ("A1", ["--suite", "nmconn", "--max-weight", "1", "--beta=-2"],
           "4aa91e5ea82f11aa177e16c4d9541b416afa87dafa24efa38bb8dabd6dea20b6", 0),
    # the types whose cor cases compare the eigen-route engine with the oracle
    "A1-all": ("A1", ["--suite", "all", "--max-weight", "2", "--trunc", "12"],
               "259f06551d9e7461a36c2d0ac1570803a539707ed813d89fa0824146d5873bfc", 0),
    "A2-all": ("A2", ["--suite", "all", "--max-weight", "1", "--trunc", "12"],
               "6f30ce4f39ce89dd23012482f0bb435be44e13f362c1216cc9eff04ae8164751", 0),
    # verdicts do not depend on --trunc: the digest of the --trunc 12 report
    "G2-fdif-trunc1": ("G2", ["--suite", "fdif", "--max-weight", "1", "--trunc", "1"],
                       "984832e5d25a708d9efbbc3aa96d2d113430c87f4728c9b52e2b3d35053a3355", 0),
}


@pytest.mark.parametrize("label", sorted(PINNED_REPORTS))
def test_verify_report_bytes_are_pinned(tmp_path, label):
    type_name, args, digest, code = PINNED_REPORTS[label]
    out = tmp_path / "report.json"
    assert main(["verify", "--type", type_name, *args, "--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of `siflag emac --format json`.  The first four were taken when the
# oracle still solved and reconstructed over Q(t); the next four lie past the
# oracle's default truncation (it raises there) and were pinned once each E
# equalled gram_schmidt_E run at the truncation order 6 ht + 8.
PINNED_EMAC = {
    ("A1", "6"): "c88cee3375c7ae6457372692095732fe5d93a7a129c0400d810638fae96ba213",
    ("A1", "-6"): "2bdde4efbb78c5abccc6f7f39d07b92d2542e11fab1729aa4fc9008cfe965a11",
    ("A2", "-1,-1"): "2f95386c8bc92eb8a9d4aac4c28727f1be1c52739ce731636006f4f160cc455e",
    ("G2", "-1,0"): "fa1f63e154b5f02644d9828d5f9cef80ab102fd33335204650db8b18ae506ddd",
    ("A1", "-7"): "f219fdc5d6823e954f74e5ed705c6555ba113113d8ec75c9819e40f2c0976474",
    ("A1", "-8"): "afde19d67996f403a5f0cf3bae09d143b1a66e1accfc853982abbfe56488287f",
    ("B2", "-2,0"): "779bd950d524cc3d9eb3d9323e0475bbcf56e8def4161c904d91865400705d5a",
    ("C2", "0,-2"): "18562869ed9d67e6765d87aae582853fa63353e30ef09084239aeaa8d4396620",
    # weights where Y = Y^{2 rho^vee} has a shared eigenvalue: the first five
    # equal the oracle's bytes, G2 (2,-2) its cor identity at t = infinity
    ("A2", "-2,2"): "75705fb8010cd7e2267ad087d4dd910858ea17fb4e249750e89f41a5020b3ccf",
    ("A2", "2,-2"): "6115b8ac606ab6a962ab8fa8999042d7f64c818623199fa82ced16e41234e65c",
    ("B2", "-2,2"): "335cc9a0676e08aba920b263d0335b3d0d66df6d027632018941e1d3889ae48a",
    ("C2", "2,-2"): "5cb651d74f07ea9a8c0314cb2580a70bc338ff5940ba50c5ded64a577a1e5c11",
    ("G2", "-3,2"): "47b942fde62fe04496558db8b5d81748eefc32bb9d629d325f34b34b8efbe2a0",
    ("G2", "2,-2"): "81a07207588523fbe15c9eb2a17d6570a0123360febf65aee3f0aafbee7ae110",
    # beyond rank two, where the oracle does not run: pinned once the t = infinity
    # end of each equalled its cor family (test_cherednik.py checks that at
    # weight sum one in A3, B3, C3 and D4)
    ("A3", "-1,0,0"): "d7599dccfa92c747b0bb8357a918e30d1b37432613ef8a838e495eaece690432",
    ("B3", "0,0,-1"): "c9b715074003a2903c197547cd832c609b18a1786b91a07b20a43df2e24b97e3",
    ("D4", "0,-1,0,0"): "32e09753a5cdd347a47d8d32db20bbc4655817a3cb87dd990716237e431ac633",
    ("F4", "-1,0,0,0"): "c689a1bc5ff5a92522760e618f28b9c20add59b2b54f995dddfc90f7bf4663b7",
}


@pytest.mark.parametrize("case", sorted(PINNED_EMAC), ids=":".join)
def test_emac_bytes_are_pinned(capsys, case):
    type_name, gamma = case
    assert main(["emac", "--type", type_name, f"--gamma={gamma}", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_EMAC[(type_name, gamma)]


# sha256 of `weylchar --w e --format json`: the eigen bases of the weights in the
# eigen-rank2 and eigen-rank3 pools of perfbench (the digests of reference.json)
PINNED_BASES = {
    ("B2", "1,0"): "3b88acb20b43730db11b414765d419e675f6e2955d2cf7b700e06628a49bcb8a",
    ("B2", "0,1"): "23f8df2b8455d3f1b38c77701e9b5f3458ca5596b1971ce2f9816b4d9ad3b0ac",
    ("B2", "1,1"): "1ec972994b4f66eec1e987fb84a29d8ea4e7e6bcd254c4acb2bc3f2a6a339471",
    ("C2", "1,0"): "63a66b59ecb29b1ea952235bd2ef656d22ca312bcb38ca730ea329076fa134d1",
    ("C2", "0,1"): "c9f59af545537e737633f6cc53b3bd9ab3459e3d0f17ce75967b47fbdabcf274",
    ("C2", "1,1"): "8fb56157c5cb39b10a77ed6ff0be760206000107f61cb4a1d193b221ac33c108",
    ("G2", "1,0"): "314fbb523e78c2e72c4ee09bf97a06d9fc625eefaad7c4652c7edcb487895551",
    ("G2", "0,1"): "45b9aa0eb5834404f245aa8a6d06e34b905708cb3b461ed16beb8eedb001defd",
    ("G2", "2,0"): "a297e1866a4bde5ca58d29a3483a9c9bea4e381bb3e9f5349bf598bef5b98203",
    ("A3", "1,0,0"): "20ffc5eb6625e9e97b52c71cceebb009f44ae73d4df2161b2618a551c8ba6af2",
    ("A3", "0,1,0"): "b054001376b3b449edd1102bbd0b7d1181a899e175aa641c23f13b149dcd3d71",
    ("A3", "0,0,1"): "0233d48c2e12a1ba9e6d3f25191253a7b86cd2c71f3754aff9957f9f2e8696f5",
}


@pytest.mark.parametrize("case", sorted(PINNED_BASES), ids=":".join)
def test_eigen_base_bytes_are_pinned(capsys, case):
    type_name, lam = case
    argv = ["weylchar", "--type", type_name, "--lambda", lam, "--w", "e", "--format", "json"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_BASES[(type_name, lam)]


# ch W(lam)_w (weylchar --global) and the twisted Euler character through q^trunc
PINNED_SERIES = {
    ("weylchar", "A2", "1,1", "s1", "20"):
        "48d1e90d7d591b555fed4ef57900d2451ecfc9a676ac7e8f0d0da17b5d68346f",
    ("weylchar", "B2", "1,1", "w0", "8"):
        "597459889022b899590c823ec36ac2743e19749f41392b90af5519c2485d75e2",
    ("weylchar", "G2", "0,1", "s1 s2", "12"):
        "a189c5eb897ea7c4f77fb6bf7b30b61a39e760e5853de68db1eefb3d37ef5c7c",
    ("twisted", "A2", "1,0", "s2 s1", "20"):
        "b8becc2b4d3e11359d4983c94ef36ba3b3933df87f2a162dbec14b8180562298",
    ("twisted", "C2", "1,1", "s2 s1", "10"):
        "2764ae8770f507abd9aca2d52243c3513fc534ac9d9ca701b0ea6e247288c03a",
    ("twisted", "A3", "0,1,0", "s2", "6"):
        "464d4a0093e7085ab22c4eaf1de9af0202f1820816e60d9ce8e8f55d13ab2d01",
}


@pytest.mark.parametrize("case", sorted(PINNED_SERIES), ids=":".join)
def test_series_bytes_are_pinned(capsys, case):
    command, type_name, lam, w, trunc = case
    argv = [command, "--type", type_name, "--lambda", lam, "--w", w, "--trunc", trunc,
            "--format", "json"] + (["--global"] if command == "weylchar" else [])
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SERIES[case]


# -- one parser and one RootSystem per type, shared by every main() call ----------


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *args], env=fresh_env(),
                          capture_output=True, timeout=300)


def test_pinned_bases_in_one_cold_optimized_process():
    # every base cold in one python -O process, so the Demazure run memo fills
    # across types before each later solve reads it; no assert there, -O strips it
    code = ("import contextlib, hashlib, io, json, sys\n"
            "from siflag.cli import main\n"
            "out = []\n"
            "for type_name, lam in json.loads(sys.argv[1]):\n"
            "    buf = io.StringIO()\n"
            "    with contextlib.redirect_stdout(buf):\n"
            "        code = main(['weylchar', '--type', type_name, '--lambda', lam, '--w', 'e',\n"
            "                     '--format', 'json'])\n"
            "    out.append((code, hashlib.sha256(buf.getvalue().encode()).hexdigest()))\n"
            "print(json.dumps(out))\n")
    cases = sorted(PINNED_BASES)
    proc = subprocess.run([sys.executable, "-O", "-c", code, json.dumps(cases)],
                          env=fresh_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, PINNED_BASES[case]] for case in cases]


WARM_COLD_ARGVS = [
    ["verify", "--type", "B2", "--suite", "nmconn", "--max-weight", "1"],
    ["weylchar", "--type", "B2", "--lambda", "1,0"],
    ["verify", "--type", "B2", "--suite", "fdif", "--max-weight", "1"],
    ["weylchar", "--type", "G2", "--lambda", "0,1", "--format", "json"],
    ["emac", "--type", "A2", "--gamma=-1,0", "--format", "json"],
    ["roots", "--type", "B", "--rank", "2"],
]


def test_warm_cli_calls_match_cold_processes(capsysbinary):
    cold = {}
    for argv in WARM_COLD_ARGVS:
        proc = _python("import sys; from siflag.cli import main; sys.exit(main(sys.argv[1:]))",
                       *argv)
        cold[tuple(argv)] = (proc.returncode, proc.stdout)
    for _ in range(2):
        for argv in WARM_COLD_ARGVS:
            code = main(argv)
            assert (code, capsysbinary.readouterr().out) == cold[tuple(argv)], argv
    rs = parse_args(["roots", "--type", "B2"]).rs
    assert parse_args(["roots", "--type", "B", "--rank", "2"]).rs is rs
    assert parse_args(["roots", "--type", "b", "--rank", "2"]).rs is rs
    # the library constructor hands out the same instance
    assert from_name("B2") is rs


def test_verify_jobs_2_cold_process_matches_warm_run(tmp_path):
    # --jobs 2 in a fresh interpreter, every cache cold, writes the report that
    # the same command writes here once this process's caches are warm
    argv = ["verify", "--suite", "fdif", "--type", "C2", "--max-weight", "1", "--trunc", "10",
            "--jobs", "2"]
    cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
    proc = _python("import sys; from siflag.cli import main; sys.exit(main(sys.argv[1:]))",
                   *argv, "--out", str(cold))
    assert proc.returncode == 0, proc.stderr
    for _ in range(2):  # the second call reads the caches the first one filled
        assert main([*argv, "--out", str(warm)]) == 0
        assert warm.read_bytes() == cold.read_bytes()
    payload = json.loads(cold.read_bytes())
    assert payload["n_cases"] > 0 and payload["n_failed"] == 0


def test_reused_parser_keeps_each_error(capsys):
    assert main(["weylchar", "--type", "A1", "--lambda", "1"]) == 0
    capsys.readouterr()
    for argv, code, err in (
            (["weylchar", "--type", "A1", "--lambda", "1", "--trunc", "3"], 2,
             "--trunc is read only with --global"),
            (["weylchar", "--type", "A1"], 2, "the following arguments are required: --lambda")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        assert err in capsys.readouterr().err
    for argv, message in ((["verify", "--type", "A1", "--jobs", "0"], "--jobs must be >= 1"),
                          (["roots", "--type", "Z2"], "unsupported root system Z2")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == message
    assert main(["weylchar", "--type", "A1", "--lambda", "1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)[0] == {"coeff": "1", "q": 0, "wt": [1]}


def test_help_is_the_same_on_every_call():
    # a fresh process, so its first call is the one that builds the parser
    proc = _python(
        "import contextlib, io, sys\n"
        "from siflag.cli import main\n"
        "for argv in (['--help'], ['verify', '--help']):\n"
        "    outs = []\n"
        "    for _ in range(2):\n"
        "        buf = io.StringIO()\n"
        "        with contextlib.redirect_stdout(buf):\n"
        "            try:\n"
        "                main(argv)\n"
        "            except SystemExit as exc:\n"
        "                assert exc.code == 0, exc.code\n"
        "        outs.append(buf.getvalue())\n"
        "    assert outs[0] == outs[1] and outs[0].startswith('usage: siflag'), outs\n")
    assert proc.returncode == 0, proc.stderr.decode()


def test_library_and_cli_share_one_root_system():
    rs = from_name("B2")
    assert build_root_system("B", 2) is rs
    assert parse_args(["roots", "--type", "b", "--rank", "2"]).rs is rs
    private = RootSystem("B", 2)
    assert private is not rs and private._tables is None


def test_cli_case_reuses_the_root_systems_built_at_set_up():
    # the benchmark child's order: from_name for each type, then cli.main cases
    proc = _python(
        "import contextlib, gc, io\n"
        "from siflag import cli\n"
        "from siflag.rootdata import RootSystem, from_name\n"
        "set_up = {name: from_name(name) for name in ('B2', 'G2')}\n"
        "built = []\n"
        "init = RootSystem.__init__\n"
        "RootSystem.__init__ = lambda self, *a: (built.append(a), init(self, *a))[1]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', '--type', 'B2', '--suite', 'fdif', '--max-weight', '1']) == 0\n"
        "assert not built, built\n"
        "assert set_up['B2']._tables is not None and set_up['G2']._tables is None\n"
        "kinds = sorted(o.key for o in gc.get_objects() if isinstance(o, RootSystem))\n"
        "assert kinds == [('B', 2), ('G', 2)], kinds\n")
    assert proc.returncode == 0, proc.stderr.decode()


def test_importing_the_cli_builds_no_parser_or_root_system():
    # what import builds lands in the benchmark's set-up time, not in a case
    proc = _python(
        "import argparse, gc\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: (built.append(1), init(self, *a, **k))[1]\n"
        "from siflag import cli, rootdata\n"
        "from siflag.rootdata import RootSystem\n"
        "assert not built, 'an ArgumentParser was built at import'\n"
        "assert cli._parser.cache_info().currsize == 0 and not rootdata._SHARED\n"
        "assert not [o for o in gc.get_objects() if isinstance(o, RootSystem)]\n"
        "cli.parse_args(['roots', '--type', 'A1'])\n"
        "assert built and list(rootdata._SHARED) == [('A', 1)]\n")
    assert proc.returncode == 0, proc.stderr.decode()
