"""CLI integration: commands, JSON contract, exit codes."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import shabound
from shabound import report
from shabound.cli import main
from shabound.search import evaluate_row, fiber, tate_family


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


def test_analyze_incomplete_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("SHABOUND_FACTOR_BUDGET", "100")
    # re-evaluate the default budget lazily? arith reads env at import; pass a curve
    # whose cofactor exceeds the primality working range instead (budget-independent)
    fam = tate_family(5)
    b = 10**40 + 177
    curve = json.dumps([str(a) for a in fam.ainvs_at(b)])
    code, _, err = run(capsys, "analyze", "--curve", curve, "--point", '["0/1","0/1"]', "--p", "5")
    assert code == 3


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


def test_matrix_fixture(capsys):
    code, out, _ = run(capsys, "matrix", "--p", "5", "--s1", "2,3", "--s2", "11,31", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == "2"
    assert data["entries"] == [["1", "3"], ["4", "1"]]


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
        row = json.loads(report.dumps(evaluate_row(p, b, verify_dual=False)))
        assert "error" not in row, (p, b)
        assert data["sets"]["s1"] == row["s1"] and data["sets"]["s2"] == row["s2"]
        assert (data["m_phi"], data["m_phihat"]) == (row["m_phi"], row["m_phihat"])
        for key in ("sandwich_phi", "sandwich_dual"):
            assert [data[key]["lower"], data[key]["upper"]] == row[key], (p, b, key)
        bounds = dict(data["bounds"], hypothesis_ok=not data["bounds"]["advisory"])
        assert {k: bounds[k] for k in shared} == row["advisory_bounds"], (p, b)
