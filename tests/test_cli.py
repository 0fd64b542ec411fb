"""CLI integration: commands, JSON contract, exit codes."""

import argparse
import json
import os
import pathlib
import subprocess
import sys

import pytest

import shabound
from shabound import report
from shabound.cli import build_parser, main
from shabound.search import SearchConstraints, evaluate_row, fiber, tate_family


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_fixture(capsys):
    code, out, _ = run(
        capsys,
        "analyze", "--curve", "[0,-1,1,0,0]", "--point", '["0/1","0/1"]', "--p", "5", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["codomain_disc"] == str(-(11**5))
    assert data["sets"]["s1"] == [] and data["sets"]["s2"] == ["11"]
    assert data["m_phi"] == "0" and data["m_phihat"] == "0"
    assert data["sandwich_phi"] == {"lower": "0", "upper": "0"}
    assert data["sandwich_dual"] == {"lower": "0", "upper": "2"}
    assert data["bounds"]["advisory"] is True


def test_analyze_json_round_trips(capsys):
    code, out, _ = run(
        capsys,
        "analyze", "--curve", "[0,-1,1,0,0]", "--point", '["0/1","0/1"]', "--p", "5", "--json",
    )
    assert report.dumps(json.loads(out)) == out


def test_analyze_text_mode_same_data(capsys):
    code, out, _ = run(
        capsys, "analyze", "--curve", "[0,-1,1,0,0]", "--point", '["0/1","0/1"]', "--p", "5",
    )
    assert code == 0
    assert "codomain_disc: -161051" in out


def test_analyze_second_kernel(capsys):
    code, out, _ = run(
        capsys,
        "analyze", "--curve", "[0,-1,1,0,0]", "--point", '["0/1","0/1"]', "--p", "5",
        "--second-kernel", '["0/1","-1/1","1/1"]', "--json",
    )
    assert code == 0
    sk = json.loads(out)["second_kernel"]
    assert sk["codomain"] == ["0", "-1", "1", "-10", "-20"]


def test_analyze_bad_point_exit_2(capsys):
    code, _, err = run(
        capsys, "analyze", "--curve", "[0,-1,1,0,0]", "--point", '["2/1","0/1"]', "--p", "5",
    )
    assert code == 2


def test_analyze_wrong_order_exit_2(capsys):
    # (0,0) has order 5, not 7
    code, _, err = run(
        capsys, "analyze", "--curve", "[0,-1,1,0,0]", "--point", '["0/1","0/1"]', "--p", "7",
    )
    assert code == 2
    assert "order" in err


def test_analyze_incomplete_exit_3(capsys):
    # a curve whose cofactor exceeds the primality working range, whatever the rho budget
    fam = tate_family(5)
    b = 10**40 + 177
    curve = json.dumps([str(a) for a in fam.ainvs_at(b)])
    code, _, err = run(capsys, "analyze", "--curve", curve, "--point", '["0/1","0/1"]', "--p", "5")
    assert code == 3
    assert err.startswith("error: incomplete factorization: unresolved cofactor ")


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_bad_factor_budget_env_exit_2(value):
    # arith reads the budget at import, so a fresh interpreter; even bounds,
    # which factors nothing, reports it in one line instead of a traceback
    env = dict(os.environ, SHABOUND_FACTOR_BUDGET=value,
               PYTHONPATH=str(pathlib.Path(shabound.__file__).parent.parent))
    argv = [sys.executable, "-m", "shabound.cli", "bounds", "--budget", "5,1,3,1", "--json"]
    out = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.splitlines() == [
        f"error: SHABOUND_FACTOR_BUDGET must be a nonnegative integer, got {value!r}"
    ]
    env["SHABOUND_FACTOR_BUDGET"] = "0"
    assert subprocess.run(argv, capture_output=True, env=env).returncode == 0


def test_the_cli_loads_neither_dataclasses_nor_the_process_pool():
    # every command pays for the cli's imports in a fresh interpreter, and
    # search for its module's: the scan forks its workers with os.fork
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(shabound.__file__).parent.parent))
    new = "print(sorted({'dataclasses', 'concurrent.futures', 'multiprocessing'} & (set(sys.modules) - before)))\n"
    code = f"import sys\nbefore = set(sys.modules)\nimport shabound.cli\n{new}import shabound.search\n{new}"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (out.returncode, out.stdout, out.stderr) == (0, "[]\n[]\n", "")


def test_matrix_fixture(capsys):
    code, out, _ = run(capsys, "matrix", "--p", "5", "--s1", "2,3", "--s2", "11,31", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == "2"
    assert data["entries"] == [["1", "3"], ["1", "4"]]


def test_matrix_empty_s1(capsys):
    code, out, _ = run(capsys, "matrix", "--p", "5", "--s1", "", "--s2", "11", "--json")
    assert code == 0
    assert json.loads(out)["rank"] == "0"


def test_matrix_bad_s2_exit_2(capsys):
    code, _, _ = run(capsys, "matrix", "--p", "5", "--s1", "2", "--s2", "7", "--json")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["matrix", "--p", "5", "--s1", "-3", "--s2", "11"],
        ["sandwich", "--p", "5", "--s1", "4", "--s2", "11"],
        ["sandwich", "--p", "5", "--s1", "3,3", "--s2", "11"],
    ],
)
def test_prime_lists_reject_nonprimes_and_repeats_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error: s1: ")


@pytest.mark.parametrize("command", ["matrix", "sandwich"])
@pytest.mark.parametrize("p", ["-5", "0", "1", "2", "4", "9"])
def test_matrix_and_sandwich_reject_a_modulus_that_is_not_an_odd_prime(capsys, command, p):
    # p = 2 used to give an answer, and -5 and 2 leaked internal messages
    for s1, s2 in (("", ""), ("3", ""), ("3", "11")):
        code, out, err = run(capsys, command, "--p", p, "--s1", s1, "--s2", s2, "--json")
        assert (code, out) == (2, ""), (s1, s2)
        assert err == f"error: modulus {p} is not an odd prime\n", (s1, s2)


@pytest.mark.parametrize("command", ["matrix", "sandwich"])
@pytest.mark.parametrize(
    "s1, s2, message",
    [
        ("5", "11", "p = 5 may not appear in S1 or S2"),
        ("2", "5", "p = 5 may not appear in S1 or S2"),
        ("11", "11", "S1 and S2 overlap: [11]"),
    ],
)
def test_matrix_and_sandwich_reject_the_same_prime_sets(capsys, command, s1, s2, message):
    # both commands check the sets where their one character table is built
    code, out, err = run(capsys, command, "--p", "5", "--s1", s1, "--s2", s2, "--json")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_bounds_budget(capsys):
    cases = [
        ("5,1,3,1", {"sha_guarantee": "1", "m_threshold": "100"}),
        ("7,2,3,2", {"d_max": "24"}),
    ]
    for spec, want in cases:
        code, out, _ = run(capsys, "bounds", "--budget", spec, "--json")
        assert code == 0
        data = json.loads(out)
        assert {k: data[k] for k in want} == want, spec


def test_bounds_budget_composite_p_exit_2(capsys):
    for spec in ("6,1,1,1", "9,1,1,1"):
        code, out, err = run(capsys, "bounds", "--budget", spec, "--json")
        assert code == 2 and out == "", spec
        assert "p must be a prime > 3" in err, spec


def test_bounds_fields(capsys):
    code, out, _ = run(
        capsys, "bounds", "--d", "4", "--cp", "0", "--s1", "5", "--s2", "1",
        "--m", "0", "--mhat", "0", "--sum", "11", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["selmer_lower"] == "2" and data["selmer_upper"] == "11"
    assert data["sha_from_sum"] == "5"


def test_bounds_odd_d_exit_2(capsys):
    # an odd degree, then negative set sizes and ranks (the shared input check)
    cases = [
        ["--d", "3"],
        ["--d", "4", "--m", "-3", "--s1", "-2"],
        ["--d", "4", "--s2", "-1"],
        ["--d", "4", "--mhat", "-1"],
        ["--d", "1", "--real-embedding", "--no-zeta-p", "--m", "-1"],
    ]
    for argv in cases:
        code, out, err = run(capsys, "bounds", *argv, "--json")
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:"), argv


def test_sandwich_command(capsys):
    code, out, _ = run(capsys, "sandwich", "--p", "5", "--s1", "11", "--s2", "", "--json")
    assert code == 0
    data = json.loads(out)
    assert (data["lower_dim"], data["upper_dim"]) == ("0", "2")
    # whitespace around a list's entries is allowed
    assert run(capsys, "sandwich", "--p", "5", "--s1", " 11 , 2", "--s2", " 31 ", "--json") == (
        run(capsys, "sandwich", "--p", "5", "--s1", "11,2", "--s2", "31", "--json")
    )


def test_search_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 5, "scan_budget": 4, "parameter_box": 10, "verify_dual": False}))
    code, out, _ = run(capsys, "search", "--config", str(cfg), "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == 4
    assert any(row["b"] == "1" for row in data["rows"])  # the b=1 fixture row


def test_search_bad_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 5, "bogus_key": 1}))
    code, _, _ = run(capsys, "search", "--config", str(cfg))
    assert code == 2
    code2, _, _ = run(capsys, "search", "--config", str(tmp_path / "missing.json"))
    assert code2 == 2


def test_search_progress_at_every_jobs(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 5, "scan_budget": 60, "verify_dual": False}))
    for jobs in ("1", "2"):
        code, _, err = run(capsys, "search", "--config", str(cfg), "--jobs", jobs, "--json")
        assert code == 0
        assert err == "scan: 50/60 fibers\n", jobs


@pytest.mark.parametrize("bad", [
    {"force_s1": 41},
    {"force_s2": "11"},
    {"verify_dual": "false"},
    {"verify_dual": 0},
    {"scan_budget": -5},
    {"parameter_box": -5},
    {"omega_max": -1},
    {"force_s1": [5]},
])
def test_search_config_validation_exit_2(tmp_path, capsys, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 5, "scan_budget": 4, "verify_dual": False, **bad}))
    code, out, err = run(capsys, "search", "--config", str(cfg), "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_search_jobs_below_1_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 5, "scan_budget": 4, "verify_dual": False}))
    for jobs in ("0", "-2"):
        code, out, err = run(capsys, "search", "--config", str(cfg), "--jobs", jobs)
        assert (code, out) == (2, "")
        assert "jobs" in err


def test_search_records_an_internal_error_and_exits_1(tmp_path, capsys, monkeypatch):
    # an exception that is no ShaboundError (a bug) in one fiber becomes an
    # internal_error row: the scan goes on, writes the full report and exits
    # 1, with the same bytes at every --jobs.  The pool's workers are forked
    # from this process, so they run the patched fiber too
    from shabound import search

    real = search.fiber

    def fragile(family, b):
        if b % 7 == 0:
            raise ZeroDivisionError(f"boom at {b}")
        return real(family, b)

    monkeypatch.setattr(search, "fiber", fragile)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 5, "scan_budget": 40, "verify_dual": False}))
    outs = []
    for jobs in ("1", "2"):  # 40 fibers are three chunks: --jobs 2 starts the pool
        code, out, err = run(capsys, "search", "--config", str(cfg), "--jobs", jobs, "--json")
        assert code == 1, jobs
        data = json.loads(out)
        assert data["errors"] == [
            {"b": str(b), "error": "internal_error", "detail": f"ZeroDivisionError: boom at {b}"}
            for b in (7, -7, 14, -14)
        ], jobs
        assert len(data["rows"]) + sum(int(v) for v in data["skipped"].values()) == 36, jobs
        if jobs == "1":  # a forked worker's stderr is not captured here
            assert err.count("Traceback") == 4 and "ZeroDivisionError: boom at -14" in err
        outs.append(out)
    assert outs[0] == outs[1]


def test_analyze_agrees_with_scan_row(capsys):
    # one per-curve pipeline: the analyze payload and the scan row of a fiber
    # carry the same sets, ranks, sandwiches and advisory bounds
    shared = ("hypothesis_ok", "selmer_lower", "selmer_upper", "rank_upper", "sum_lower", "sha_lower")
    for p, b in [(5, -21), (5, 2), (5, 13), (7, 3), (7, -4)]:
        fib = fiber(tate_family(p), b)
        code, out, _ = run(
            capsys, "analyze", "--p", str(p), "--json",
            "--curve", json.dumps([str(a) for a in fib.curve.ainvs()]),
            "--point", json.dumps([str(c) for c in fib.point]),
        )
        assert code == 0
        data = json.loads(out)
        row = json.loads(report.dumps(evaluate_row(SearchConstraints(p, verify_dual=False), b)))
        assert "error" not in row, (p, b)
        assert data["sets"]["s1"] == row["s1"] and data["sets"]["s2"] == row["s2"]
        assert (data["m_phi"], data["m_phihat"]) == (row["m_phi"], row["m_phihat"])
        for key in ("sandwich_phi", "sandwich_dual"):
            assert [data[key]["lower"], data[key]["upper"]] == row[key], (p, b, key)
        bounds = dict(data["bounds"], hypothesis_ok=not data["bounds"]["advisory"])
        assert {k: bounds[k] for k in shared} == row["advisory_bounds"], (p, b)


CURVE_11A3 = ["--curve", "[0,-1,1,0,0]", "--point", '["0/1","0/1"]']


@pytest.mark.parametrize("argv, config, message", [
    (["analyze", "--curve", "[0,-1,1", "--point", '["0/1","0/1"]', "--p", "5"], None,
     "curve: invalid JSON (Expecting ',' delimiter: line 1 column 8 (char 7))"),
    (["analyze", "--curve", "[0,-1,1,0,0]", "--point", '["0/1"', "--p", "5"], None,
     "point: invalid JSON (Expecting ',' delimiter: line 1 column 7 (char 6))"),
    (["analyze", *CURVE_11A3, "--p", "5", "--second-kernel", "[1,"], None,
     "second-kernel: invalid JSON (Expecting value: line 1 column 4 (char 3))"),
    (["analyze", "--curve", "[0,-1,1,0,0]", "--point", '"O"', "--p", "5"], None,
     "point: the kernel point may not be the identity"),
    # off the curve as given, which is not minimal: reported on the user's model and text
    (["analyze", "--curve", "[4, 4, 24, -32, -128]", "--point", '["1/1","0/1"]', "--p", "5"], None,
     'point ["1/1","0/1"] is not on the curve [4, 4, 24, -32, -128]'),
    (["analyze", *CURVE_11A3, "--p", "11"], None, "p must be 5 or 7"),
    (["analyze", *CURVE_11A3, "--p", "5", "--second-kernel", '{"h": [0, -1, 1]}'], None,
     "second-kernel: expected a JSON array of coefficients, low degree first"),
    (["analyze", *CURVE_11A3, "--p", "5", "--second-kernel", '["0/1","-1/1","2/1"]'], None,
     "kernel polynomial must be monic of degree 2"),
    (["analyze", *CURVE_11A3, "--p", "5", "--second-kernel", '["1/1","1/1"]'], None,
     "kernel polynomial must be monic of degree 2"),
    (["bounds", "--budget", "5,1,3"], None, "budget: expected p,k,n,D"),
    (["bounds"], None, "bounds: provide --budget p,k,n,D or field invariants via --d/--cp"),
    (["search"], '{"p": 5,', "config: invalid JSON (Expecting property name enclosed in double quotes: "
     "line 1 column 9 (char 8))"),
    (["search"], "[5]", "config: expected a JSON object"),
    (["search"], '{"scan_budget": 4}', "config: missing key 'p'"),
    (["search"], '{"p": 5, "force_s1": [41, 41]}', "force_s1: repeated prime 41 in [41, 41]"),
    # a negative forced value is not prime, and is_prime is never asked about it
    (["search"], '{"p": 5, "force_s1": [-41]}', "forced value -41 is not prime"),
    (["search"], '{"p": 5, "force_s2": [-41]}', "forced value -41 is not prime"),
    # p is checked against the families before a forced prime is reduced mod p
    (["search"], '{"p": 0, "force_s2": [11]}', "families are available for p in {5, 7}"),
    (["search"], '{"p": 1, "force_s2": [11]}', "families are available for p in {5, 7}"),
    # int() and Fraction() also take _ separators and non-ASCII digits
    (["analyze", "--curve", '["0","-1_0","1","0","0"]', "--point", '["0/1","0/1"]', "--p", "5"], None,
     "expected an integer (decimal string), got '-1_0'"),
    (["analyze", *CURVE_11A3[:2], "--point", '["0_0/1","0/1"]', "--p", "5"], None,
     "expected a fraction like '3/4', got '0_0/1'"),
    (["analyze", "--curve", '["\u0660","-\u0661","\u0661","\u0660","\u0660"]',
      "--point", '["\u0660/\u0661","\u0660/\u0661"]', "--p", "5"], None,
     "expected an integer (decimal string), got '\u0660'"),
    (["sandwich", "--p", "5", "--s1", "1_1", "--s2", ""], None,
     "expected a comma-separated integer list, got '1_1'"),
    (["search"], '{"p": "\u0665"}', "expected an integer (decimal string), got '\u0665'"),
    (["search"], '{"p": 5, "scan_budget": "100000000000000000000", "parameter_box": 3}',
     f"scan_budget must be at most {sys.maxsize}, got 100000000000000000000"),
], ids=[
    "curve-json", "point-json", "second-kernel-json", "point-identity", "point-off-curve", "analyze-p-11",
    "second-kernel-not-list", "second-kernel-not-monic", "second-kernel-degree",
    "budget-three-parts", "bounds-no-input", "config-json", "config-not-object", "config-no-p",
    "config-repeated-forced-prime", "config-negative-forced-s1", "config-negative-forced-s2",
    "config-p-0-forced", "config-p-1-forced",
    "int-underscore", "fraction-underscore", "int-arabic-indic", "list-underscore", "config-p-arabic-indic",
    "config-scan-budget-above-maxsize",
])
def test_input_errors_exit_2_with_their_message(tmp_path, capsys, argv, config, message):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(config)
        argv = [*argv, "--config", str(path)]
    code, out, err = run(capsys, *argv, "--json")
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


BOUNDS_ARGS = {
    "--d": "4", "--cp": "1", "--s1": "5", "--s2": "4", "--m": "2", "--mhat": "3", "--sum": "11", "--rank": "0",
}
# each integer option within an invocation that exits 0 as written
INT_OPTION_ARGV = {
    "analyze --p": ["analyze", *CURVE_11A3, "--p", "5"],
    "matrix --p": ["matrix", "--p", "5", "--s1", "2,3", "--s2", "11,31"],
    "sandwich --p": ["sandwich", "--p", "5", "--s1", "11", "--s2", ""],
    **dict.fromkeys((f"bounds {opt}" for opt in BOUNDS_ARGS), ["bounds", *sum(BOUNDS_ARGS.items(), ())]),
    "search --jobs": ["search", "--config", "CONFIG", "--jobs", "1"],
}


@pytest.mark.parametrize("spelling", ["1_0", "\u0665"], ids=["underscore", "arabic-indic"])
@pytest.mark.parametrize("case", INT_OPTION_ARGV)
def test_integer_options_take_only_plain_decimal(tmp_path, capsys, case, spelling):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"p": 5, "scan_budget": 4, "verify_dual": false}')
    option = case.split()[1]
    argv = [str(cfg) if a == "CONFIG" else a for a in INT_OPTION_ARGV[case]]
    assert run(capsys, *argv, "--json")[0] == 0
    argv[argv.index(option) + 1] = spelling
    with pytest.raises(SystemExit) as exc:  # argparse's own usage error
        main([*argv, "--json"])
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    assert f"argument {option}: expected an integer (decimal string), got '{spelling}'" in out.err


def test_no_option_is_parsed_by_int():
    # int() also takes _ separators and non-ASCII digits
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert len(commands) == 5
    assert all(action.type is not int for parser in commands.values() for action in parser._actions)
