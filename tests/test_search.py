"""Family scan: derived factor polynomials, CRT forcing, filtering, ranking."""

import pytest

from shabound import report
from shabound.errors import DegenerateFiber, InputError, UnreachableCusp
from shabound.search import (
    FilterResult,
    SearchConstraints,
    almost_prime_filter,
    construct_parameter,
    evaluate_row,
    fiber,
    scan,
    tate_family,
)


def test_family_p5_derivation():
    fam = tate_family(5)
    assert fam.disc_const == 1
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


def test_almost_prime_filter():
    fr = almost_prime_filter([6, 30, 7, -1, 210], 2)
    assert fr == FilterResult((6, 7, -1), ())
    with pytest.raises(InputError):
        almost_prime_filter([0], 1)


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
    from shabound import search
    from shabound.errors import HypothesisViolated

    def fail(*args, **kwargs):
        raise HypothesisViolated("injected")

    monkeypatch.setattr(search, "classify_primes", fail)
    row = evaluate_row(5, 2)
    assert row["error"] == "HypothesisViolated" and row["detail"] == "injected"
    assert row["curve"] and "s1" not in row  # fields filled before the failure stay
    r = scan(tate_family(5), SearchConstraints(5, scan_budget=4, verify_dual=False), jobs=1)
    assert r["rows"] == [] and [e["error"] for e in r["errors"]] == ["HypothesisViolated"] * 4
