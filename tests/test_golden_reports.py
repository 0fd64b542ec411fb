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
    "p7-60": (
        {"p": 7, "scan_budget": 60, "verify_dual": False}, 1,
        "e224b5d5184aab9c9a1488e6a5fa5b5ab8ef28f08dfda63d21fe338cd7e73bf1",
    ),
    "forced-41-11-60-j2": (
        {"p": 5, "force_s1": [41], "force_s2": [11], "omega_max": 6,
         "scan_budget": 60, "verify_dual": False}, 2,
        "66dd14441746b4cd69c50d7e934daa765b6f4ad037bb3d7c78b6e3450ab5e11f",
    ),
}

ANALYZE_11A3_SECOND_KERNEL = "fea5a44fa1886e5d857e774aceb957660c8d67d71dca048e7e216a9ca4f434a1"


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
