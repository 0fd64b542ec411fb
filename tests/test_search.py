"""Family scan: derived factor polynomials, CRT forcing, filtering, ranking."""

import pytest

from shabound import report
from shabound.errors import DegenerateFiber, InputError, UnreachableCusp
from shabound.search import (
    SearchConstraints,
    construct_parameter,
    evaluate_row,
    fiber,
    scan,
    tate_family,
)


def test_family_p5_derivation():
    fam = tate_family(5)
    by_role = {fp.role: fp for fp in fam.factor_polys}
    assert by_role["S1"].coeffs == (0, 1) and by_role["S1"].multiplicity == 5
    assert by_role["S2"].coeffs == (-1, -11, 1)  # b^2 - 11b - 1


def test_family_p7_derivation():
    fam = tate_family(7)
    roles = sorted((fp.role, fp.coeffs) for fp in fam.factor_polys)
    assert ("S2", (1, 5, -8, 1)) in roles  # the cubic cusp factor
    assert sum(1 for r, _ in roles if r == "S1") == 2  # d^7 and (d-1)^7


def test_family_rejects_other_p():
    with pytest.raises(InputError):
        tate_family(11)


def test_fiber_fixture_and_degenerate():
    fam = tate_family(5)
    fib = fiber(fam, 1)
    assert fib.curve.ainvs() == (0, -1, -1, 0, 0)
    assert fib.disc_factorization.factors == ((11, 1),)
    with pytest.raises(DegenerateFiber):
        fiber(fam, 0)


def test_construct_parameter_fixture():
    fam = tate_family(5)
    c = SearchConstraints(5, force_s1=(41,), force_s2=(11,))
    b0, modulus = construct_parameter(fam, c)
    assert (b0, modulus) == (287, 451)
    assert 0 <= b0 < modulus  # least nonnegative representative


def test_cusp_factors_always_split_at_one_mod_p():
    # the S2 cusp polynomials are abelian (cyclotomic subfields), so every
    # ell = 1 mod p admits a root; forced S2 congruences always exist
    from shabound import polys
    from shabound.arith import is_prime

    for p in (5, 7):
        fam = tate_family(p)
        s2 = [fp for fp in fam.factor_polys if fp.role == "S2"]
        for ell in [l for l in range(p + 1, 500) if is_prime(l) and l % p == 1]:
            assert any(polys.roots_modq(list(fp.coeffs), ell) for fp in s2)


def test_construct_parameter_unreachable_without_s2_factor():
    from dataclasses import replace

    fam = tate_family(5)
    crippled = replace(
        fam, factor_polys=tuple(fp for fp in fam.factor_polys if fp.role != "S2")
    )
    with pytest.raises(UnreachableCusp):
        construct_parameter(crippled, SearchConstraints(5, force_s2=(11,)))


def test_constraints_validation():
    with pytest.raises(InputError):
        SearchConstraints(5, force_s1=(11,), force_s2=(11,))
    with pytest.raises(InputError):
        SearchConstraints(5, force_s2=(7,))  # 7 != 1 mod 5
    with pytest.raises(InputError):
        SearchConstraints(5, force_s1=(4,))
    with pytest.raises(InputError):
        SearchConstraints(5, force_s1=(5,))  # p is always excluded as above_p_overlap
    for key in ("scan_budget", "parameter_box", "omega_max"):
        with pytest.raises(InputError):
            SearchConstraints(5, **{key: -1})
    with pytest.raises(InputError):
        scan(tate_family(5), SearchConstraints(5, scan_budget=0), jobs=0)


def test_regression_fiber_large_sets():
    # pinned fixture: fiber with |S1| + |S2| >= 4
    row = evaluate_row(5, -21)
    assert row["s1"] == [3, 7]
    assert row["s2"] == [11, 61]
    assert row["m_phi"] == 1
    assert row["dual_swap_verified"]


def test_evaluate_row_p7():
    row = evaluate_row(7, 3)
    assert row["s1"] == [2, 3] and row["s2"] == [29]
    assert row["dual_swap_verified"]


def test_scan_small_deterministic_and_ranked():
    fam = tate_family(5)
    c = SearchConstraints(5, scan_budget=20, parameter_box=50, verify_dual=False)
    r1 = scan(fam, c, jobs=1)
    r2 = scan(fam, c, jobs=2)
    assert report.dumps(r1) == report.dumps(r2)
    proxies = [row["selmer_sum_proxy"] for row in r1["rows"]]
    assert proxies == sorted(proxies, reverse=True)


def test_scan_empty_budget():
    fam = tate_family(5)
    r = scan(fam, SearchConstraints(5, scan_budget=0), jobs=1)
    assert r["rows"] == []


def test_scan_omega_filter():
    fam = tate_family(5)
    r = scan(fam, SearchConstraints(5, scan_budget=5, omega_max=0, verify_dual=False), jobs=1)
    assert r["rows"] == [] and r["skipped"]["filtered_omega"] == 5


def test_scan_forced_contains_crt_solution():
    fam = tate_family(5)
    c = SearchConstraints(5, force_s1=(41,), force_s2=(11,), scan_budget=3)
    r = scan(fam, c, jobs=1)
    bs = [row["b"] for row in r["rows"]]
    assert 287 in bs
    for row in r["rows"]:
        assert row["disc"] % 41 == 0 and row["disc"] % 11 == 0
        assert "forcing_failed" not in row or row["forcing_failed"]


def test_other_shabound_error_becomes_error_row(monkeypatch):
    from shabound import descent
    from shabound.errors import HypothesisViolated

    def fail(*args, **kwargs):
        raise HypothesisViolated("injected")

    monkeypatch.setattr(descent, "classify_primes", fail)
    row = evaluate_row(5, 2)
    assert row["error"] == "HypothesisViolated" and row["detail"] == "injected"
    assert row["curve"] and "s1" not in row  # fields filled before the failure stay
    r = scan(tate_family(5), SearchConstraints(5, scan_budget=4, verify_dual=False), jobs=1)
    assert r["rows"] == [] and [e["error"] for e in r["errors"]] == ["HypothesisViolated"] * 4


def test_s2_prime_not_one_mod_p_becomes_error_row(monkeypatch):
    from shabound import descent

    # both classifiers forced to say S2: every split prime lands there, also 2 (not 1 mod 5) at b = 2
    monkeypatch.setattr(descent, "reduce_point", lambda e, pt, q: None)
    monkeypatch.setattr(descent, "valuation_ratio_set", lambda p, v, v_image: descent.S2)
    row = evaluate_row(5, 2)
    assert row["error"] == "classifier_disagreement"
    assert row["detail"] == "S2 prime 2 is not 1 mod 5"


@pytest.mark.parametrize("jobs", [1, 2])
def test_forced_prime_missing_becomes_error_row(monkeypatch, jobs):
    from shabound import search

    # a broken CRT step: the scan walks 1, -1, 2, -2 with 41 and 11 still forced
    monkeypatch.setattr(search, "construct_parameter", lambda family, c: (0, 1))
    c = SearchConstraints(5, force_s1=(41,), force_s2=(11,), scan_budget=4, verify_dual=False)
    r = scan(tate_family(5), c, jobs=jobs)
    assert r["rows"] == [] and [e["b"] for e in r["errors"]] == [1, -1, 2, -2]
    for row in r["errors"]:
        assert row["error"] == "forced_prime_missing"
        assert row["detail"] == "forced prime 41 does not divide the discriminant"


def test_reports_unchanged_when_asserts_are_stripped():
    # python -O strips assert statements; no runtime invariant may live in one
    import os
    import pathlib
    import subprocess
    import sys

    import shabound

    configs = [SearchConstraints(5, scan_budget=40), SearchConstraints(7, scan_budget=20)]
    expected = "".join(report.dumps(scan(tate_family(c.p), c)) for c in configs)
    probe = (
        "import sys\n"
        "from shabound import report\n"
        "from shabound.search import SearchConstraints, scan, tate_family\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit('asserts are not stripped')\n"
        f"for c in {configs!r}:\n"
        "    sys.stdout.write(report.dumps(scan(tate_family(c.p), c)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(shabound.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-O", "-c", probe], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout == expected


def test_jobs_start_at_most_one_worker_per_chunk(monkeypatch):
    # a fork pool starts every worker at the first submit, so the scan asks
    # for no more workers than there are chunks of 16 fibers; the stand-in
    # pool maps in process, so no process starts here
    from shabound import search

    requested = []

    class InlinePool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(search.concurrent.futures, "ProcessPoolExecutor", InlinePool)
    fam = tate_family(5)
    c = SearchConstraints(5, scan_budget=40, verify_dual=True)
    serial = report.dumps(scan(fam, c, jobs=1))
    assert requested == []
    assert report.dumps(scan(fam, c, jobs=64)) == serial
    assert requested == [3]
    short = SearchConstraints(5, scan_budget=16, verify_dual=False)
    assert report.dumps(scan(fam, short, jobs=64)) == report.dumps(scan(fam, short, jobs=1))
    assert requested == [3]  # one chunk: no pool at all
    scan(fam, SearchConstraints(5, scan_budget=17, verify_dual=False), jobs=2)
    assert requested == [3, 2]
