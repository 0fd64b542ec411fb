"""Golden reports: the SHA-256 of whole CLI outputs, pinned.

A refactor that must not change results keeps these bytes.  A change
that is meant to change results (a correctness fix) updates the hashes
here and says in CHANGES.md which report changed and why.
"""

import hashlib
import json

import pytest

from shabound.cli import main

SEARCHES = {
    "p5-dual-40": (
        {"p": 5, "scan_budget": 40, "verify_dual": True}, 1,
        "99dcc62f626c454381af3f06a2eb066660f5ce7a82ea1032cc0ddcdccfc7f84c",
    ),
    # the scan-p5-dual benchmark config, at both worker counts
    "p5-dual-80": (
        {"p": 5, "scan_budget": 80, "verify_dual": True}, 1,
        "d62c4c0d4e124431310818d2a8616606d561077fc97453573b90c383111b6dd1",
    ),
    "p5-dual-80-j2": (
        {"p": 5, "scan_budget": 80, "verify_dual": True}, 2,
        "d62c4c0d4e124431310818d2a8616606d561077fc97453573b90c383111b6dd1",
    ),
    "p7-60": (
        {"p": 7, "scan_budget": 60, "verify_dual": False}, 1,
        "e224b5d5184aab9c9a1488e6a5fa5b5ab8ef28f08dfda63d21fe338cd7e73bf1",
    ),
    # the p = 7 dual check: the closed-form isomorphism test on E'/<h'>,
    # and the kernel polynomial checks run modulo h'
    "p7-dual-200": (
        {"p": 7, "scan_budget": 200, "verify_dual": True}, 1,
        "8ccfbd7d1bfda133e27d8d84ee1e8de91a43af345a5bbce1262c23e66108f966",
    ),
    # the scan-p7 benchmark config: 33 fibers end as incomplete_factorization,
    # which a hint above the trial limit in Velu's factoring would change
    "p7-300": (
        {"p": 7, "scan_budget": 300, "verify_dual": False}, 1,
        "a67eaf0e234ca93cfd66f5cd62cd87e82c37ce172e378f59f2f081cdebadbfff",
    ),
    "forced-41-11-60-j2": (
        {"p": 5, "force_s1": [41], "force_s2": [11], "omega_max": 6,
         "scan_budget": 60, "verify_dual": False}, 2,
        "66dd14441746b4cd69c50d7e934daa765b6f4ad037bb3d7c78b6e3450ab5e11f",
    ),
    # the dual check on fibers the omega filter drops (28 of 100): it runs
    # on them too, and the report does not depend on the worker count
    "forced-41-11-dual-100": (
        {"p": 5, "force_s1": [41], "force_s2": [11], "omega_max": 6,
         "scan_budget": 100, "verify_dual": True}, 1,
        "9729b527008f97cc414a83e6d55cf7b5ead28c59a37cfbb4d3357ed6fb61f93b",
    ),
    "forced-41-11-dual-100-j2": (
        {"p": 5, "force_s1": [41], "force_s2": [11], "omega_max": 6,
         "scan_budget": 100, "verify_dual": True}, 2,
        "9729b527008f97cc414a83e6d55cf7b5ead28c59a37cfbb4d3357ed6fb61f93b",
    ),
    # the search-p5-forced-j2 benchmark config: 42 fibers end as
    # incomplete_factorization, cofactors q^5 >= 2^128 that factor leaves unresolved
    "forced-41-11-300-j2": (
        {"p": 5, "force_s1": [41], "force_s2": [11], "omega_max": 6,
         "scan_budget": 300, "verify_dual": False}, 2,
        "d03565da974b6fcd56572f9fd7d0162fd90e69b12b506eb5635e3d6491a1d4b8",
    ),
}

# text output (no --json): render_text renders the parsed JSON of report.dumps
TEXT_OUTPUTS = {
    "search-p5-dual-40": (
        None, "d3dae660b2775a8a608331a235279fd2c66d2fb77173376a961496699fd7b343",
    ),
    "analyze-11a3-second-kernel": (
        ["analyze", "--curve", "[0,-1,1,0,0]", "--point", '["0/1","0/1"]', "--p", "5",
         "--second-kernel", '["0/1","-1/1","1/1"]'],
        "4d9b121b99834311c36e4fbcc5db09c3a2700dc0e2cb3acb750ad068a505e7bb",
    ),
    "bounds-budget": (
        ["bounds", "--budget", "5,1,3,1"],
        "e87fad34fe7eabb78cf4299977c0d5925a8001a89efefa5845b2a277b4e62a09",
    ),
    # a Fraction, bools and lists of strings, printed as text
    "bounds-formulas": (
        ["bounds", "--d", "4", "--cp", "1", "--s1", "6", "--s2", "2", "--m", "3", "--mhat", "1",
         "--sum", "9"],
        "ccd0fe56bbec6e3caaedf72271dbac5d235975b422c28d119fbd41826616ab16",
    ),
    "bounds-formulas-advisory": (
        ["bounds", "--d", "4", "--cp", "1", "--s1", "6", "--s2", "2", "--m", "3", "--mhat", "1",
         "--sum", "9", "--real-embedding", "--no-zeta-p"],
        "697299ee66dc18fefe7efff0dfc28624beff651b0273a5320bf3f6c527ef0fa1",
    ),
    "sandwich": (
        ["sandwich", "--p", "5", "--s1", "2,3", "--s2", "11,31"],
        "f3f0a8ce58f6a498210fddef4d72614259b71fb6771eed46ae947c6eea5bb557",
    ),
    "matrix": (
        ["matrix", "--p", "5", "--s1", "2,3", "--s2", "11,31"],
        "32d309c442f40901ba519c58b63dce37338130942933e56c87b757b59aee53bb",
    ),
}

# --json output of the commands that take no config
JSON_OUTPUTS = {
    # 11a3 under u = 2, r = -4, s = -2: the kernel point reaches the
    # classifier through the transformation to the minimal model
    "analyze-11a3-rescaled": (
        ["analyze", "--curve", "[4,4,24,-32,-128]", "--point", '["0/1","-8/1"]', "--p", "5"],
        "de29106a07d0dcdfe72a45a4cf6163fc3403c6ac86408a5cdfe73fe990610535",
    ),
    # p inside the sorted support (2, 3, 7, 11, 13); dimensions 2 and 4
    "sandwich-p7-inside": (
        ["sandwich", "--p", "7", "--s1", "2,3,11,13", "--s2", "29"],
        "548653e7c63a59244204b87f0c27607258340417b24b677079f4bf0d1b236994",
    ),
    "matrix-p7": (
        ["matrix", "--p", "7", "--s1", "2,3,11,13", "--s2", "29"],
        "4d5d55677653281676e5e4e73abb18eaad1b1c84af203307047a1e32b78bc78f",
    ),
}

ANALYZE_11A3_SECOND_KERNEL = "fea5a44fa1886e5d857e774aceb957660c8d67d71dca048e7e216a9ca4f434a1"
# 11a1 with the dual kernel of 11a3 -> 11a1 as the second kernel: its
# coefficients have denominator 5, so the kernel checks rescale by D = 5
ANALYZE_11A1_DUAL_KERNEL = "d21bb045c0beb07e5b203b0920b2d1145bc00b8259f30e91620a9599d5dce3eb"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_search_report_bytes_pinned(name, tmp_path, capsys):
    cfg, jobs, want = SEARCHES[name]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["search", "--config", str(path), "--jobs", str(jobs), "--json"]) == 0
    assert _sha(capsys.readouterr().out) == want


def test_analyze_11a3_second_kernel_bytes_pinned(capsys):
    code = main([
        "analyze", "--curve", "[0,-1,1,0,0]", "--point", '["0/1","0/1"]', "--p", "5",
        "--second-kernel", '["0/1","-1/1","1/1"]', "--json",
    ])
    assert code == 0
    assert _sha(capsys.readouterr().out) == ANALYZE_11A3_SECOND_KERNEL


def test_analyze_11a1_rational_second_kernel_bytes_pinned(capsys):
    code = main([
        "analyze", "--curve", "[0,-1,1,-10,-20]", "--point", '["5/1","5/1"]', "--p", "5",
        "--second-kernel", '["-29/5","1/1","1/1"]', "--json",
    ])
    assert code == 0
    assert _sha(capsys.readouterr().out) == ANALYZE_11A1_DUAL_KERNEL


@pytest.mark.parametrize("name", sorted(TEXT_OUTPUTS))
def test_text_output_bytes_pinned(name, tmp_path, capsys):
    argv, want = TEXT_OUTPUTS[name]
    if argv is None:  # the p5-dual-40 search config
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(SEARCHES["p5-dual-40"][0]))
        argv = ["search", "--config", str(path), "--jobs", "1"]
    assert main(argv) == 0
    assert _sha(capsys.readouterr().out) == want


@pytest.mark.parametrize("name", sorted(JSON_OUTPUTS))
def test_json_output_bytes_pinned(name, capsys):
    argv, want = JSON_OUTPUTS[name]
    assert main([*argv, "--json"]) == 0
    assert _sha(capsys.readouterr().out) == want


@pytest.mark.parametrize("name", ["forced-41-11-300-j2", "p5-dual-40"])
def test_search_bytes_do_not_depend_on_the_hash_seed(name, tmp_path):
    # the factoring tables, the character tables and the local pass keep
    # dicts; none of their iteration orders may reach the report.  Fresh
    # interpreters under two hash seeds, the pool included at --jobs 2
    import os
    import pathlib
    import subprocess
    import sys

    import shabound

    cfg, jobs, want = SEARCHES[name]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = [sys.executable, "-m", "shabound.cli", "search", "--config", str(path), "--jobs", str(jobs), "--json"]
    src = str(pathlib.Path(shabound.__file__).parent.parent)
    for seed in ("0", "12345"):
        out = subprocess.run(argv, capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed))
        assert out.returncode == 0, out.stderr
        assert _sha(out.stdout) == want, seed
