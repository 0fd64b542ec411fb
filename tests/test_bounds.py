"""Bound-formula arithmetic and the construction budget chain."""

from fractions import Fraction

import pytest

from shabound.bounds import (
    FieldInvariants,
    bound_report,
    cassels_interval,
    hypothesis_status,
    rank_upper,
    selmer_interval,
    sha_from_sum,
    sha_lower_matrix,
    sum_lower,
    theorem_budget,
)
from shabound.errors import InputError

F4 = FieldInvariants(4, 0, True, True)
FQ = FieldInvariants(1, 0, False, False)


def test_field_invariants_validation():
    with pytest.raises(InputError):
        FieldInvariants(3, 0, True, True)  # odd degree cannot be totally imaginary
    with pytest.raises(InputError):
        FieldInvariants(0, 0, False, False)


def test_hypothesis_status():
    assert hypothesis_status(F4) == (True, [])
    ok, reasons = hypothesis_status(FQ)
    assert not ok and len(reasons) == 2


def test_selmer_interval_fixtures():
    assert selmer_interval(F4, 5, 1, 0) == (2, 11)
    assert selmer_interval(F4, 0, 0, 0) == (-2, 6)
    assert selmer_interval(F4, 3, 0, 3) == (1, 6)


def test_rank_upper_fixtures():
    assert rank_upper(F4, 0, 0, 0, 0) == 11
    # direct substitution: 1+1+0+12-1-1-1 (the formula, as stated)
    assert rank_upper(F4, 1, 1, 1, 1) == 11
    assert rank_upper(F4, 10, 10, 10, 10) == 11


def test_cassels_interval_fixtures():
    assert cassels_interval(F4, 0, 0, 5) == (-4, 14)
    assert cassels_interval(F4, 3, 0, 3) == (-9, 9)
    lo, hi = cassels_interval(F4, 2, 7, 1)
    assert hi - lo == 2 * (2 * 4 + 1)


def test_sum_lower_fixture():
    assert sum_lower(F4, 20, 1) == 6


def test_sha_from_sum_fixtures():
    assert sha_from_sum(11, 0) == 5
    assert sha_from_sum(1, 0) == 0
    assert sha_from_sum(12, 1) == 5
    assert sha_from_sum(0, 5) == 0  # clamped


def test_sha_lower_matrix():
    # -min(0,2) - 12 - 1 + 20, per the stated formula
    raw, clamped = sha_lower_matrix(F4, 0, 2, 40, 0)
    assert raw == 7 and clamped == 7
    raw2, clamped2 = sha_lower_matrix(F4, 5, 5, 1, 0)
    assert raw2 == Fraction(-35, 2) and clamped2 == 0


def test_theorem_budget_fixture():
    tb = theorem_budget(5, 1, 3, 1)
    assert tb.m_threshold == 100
    assert tb.d_max == 8
    assert tb.s2_max == 24
    assert tb.sha_guarantee == 1
    for p in (3, 6, 9):  # p must be a prime > 3
        with pytest.raises(InputError):
            theorem_budget(p, 1, 1, 1)
    with pytest.raises(InputError):
        theorem_budget(5, 0, 1, 1)


def test_bound_report_advisory_mode():
    br = bound_report(FQ, 2, 1, 1, 0)
    assert not br.hypothesis_ok
    assert br.rank_upper == 2 + 1 + 0 + 3 - 1 - 0 - 1
    assert br.cassels_interval[1] - br.cassels_interval[0] == 2 * (2 * 1 + 1)
    assert br.sha_lower == max(0, -1 + 1)  # exercised, exact value pinned below
    assert br.sha_lower_raw == Fraction(-1 - 3 - 1) + Fraction(1, 2)


def test_bound_report_evaluates_the_formulas():
    # the report equals the formulas term by term, over Q too, where it only flags the hypotheses
    for f in (F4, FQ):
        for s1, s2, m, m_hat in [(0, 0, 0, 0), (5, 1, 0, 0), (2, 7, 1, 3), (20, 1, 4, 4)]:
            br = bound_report(f, s1, s2, m, m_hat)
            assert (br.hypothesis_ok, list(br.hypothesis_reasons)) == hypothesis_status(f)
            assert (br.selmer_lower, br.selmer_upper) == selmer_interval(f, s1, s2, m)
            assert br.rank_upper == rank_upper(f, s1, s2, m, m_hat)
            assert br.cassels_interval == cassels_interval(f, s1, s2, br.selmer_upper)
            assert br.sum_lower == sum_lower(f, s1, s2)
            assert (br.sha_lower_raw, br.sha_lower) == sha_lower_matrix(f, s1, s2, m, m_hat)


def test_negative_inputs_rejected_everywhere():
    with pytest.raises(InputError):
        bound_report(FQ, 2, 1, -1, 0)  # flags the hypotheses, but checks the inputs
    for call in (
        lambda: bound_report(F4, -2, 0, 0, 0),
        lambda: bound_report(F4, 0, -1, 0, 0),
        lambda: bound_report(F4, 0, 0, 0, -1),
        lambda: sha_from_sum(-1, 0),
    ):
        with pytest.raises(InputError):
            call()


def test_bound_report_is_cached_and_rejects_bad_input_every_time():
    # every scan fiber asks over the same field; an input error is raised,
    # not cached, on each call
    bound_report.cache_clear()
    first = bound_report(FQ, 2, 1, 1, 0)
    assert bound_report(FQ, 2, 1, 1, 0) is first
    for _ in range(3):
        with pytest.raises(InputError):
            bound_report(FQ, 2, 1, -1, 0)
    info = bound_report.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 4, 1)


def test_sha_lower_is_zero_on_every_phi_matrix_over_q():
    """sha_lower is 0 whenever m and m-hat are the ranks of the curve's own phi-matrices.

    m_phi is the rank of a matrix with #S2 rows and #S1 columns, and
    m_phihat that of a matrix with at most #S1 rows and #S2 columns, so
    each is at most min(#S1, #S2) and m + m-hat <= 2 min(#S1, #S2).
    sha_lower_matrix takes twice the bound as
    2(-min(#S1, #S2) - 3d - 1) + m + m-hat, which is then at most
    -2(3d + 1) < 0, and its ceiling clamps to 0 for every degree d.  The
    formula is meant for the ranks of a larger matrix from another
    isogeny of the network (theorem_budget's m_threshold > s2_max); the
    scan rows and analyze give it the phi-matrices, on which it cannot
    be positive.  Checked on the kept rows of three pinned scans and on
    random S-sets through analyze_classified.
    """
    import hashlib
    import random
    from types import SimpleNamespace

    from test_golden_reports import SEARCHES

    from shabound import report
    from shabound.arith import is_prime
    from shabound.descent import analyze_classified
    from shabound.search import SearchConstraints, scan

    for name in ("p5-dual-80", "p7-300", "forced-41-11-300-j2"):
        cfg, _, digest = SEARCHES[name]
        r = scan(SearchConstraints(**cfg), jobs=1)
        assert hashlib.sha256(report.dumps(r).encode()).hexdigest() == digest, name
        assert r["rows"], name
        for row in r["rows"]:
            assert row["m_phi"] + row["m_phihat"] <= 2 * min(len(row["s1"]), len(row["s2"])), (name, row["b"])
            assert row["advisory_bounds"]["sha_lower"] == 0, (name, row["b"])
    rng = random.Random(2026)
    primes = [q for q in range(2, 600) if is_prime(q)]
    positive_ranks = 0
    for i in range(2000):
        p = (5, 7)[i % 2]
        s1 = sorted(rng.sample([q for q in primes if q != p], rng.randrange(0, 6)))
        s2 = sorted(set(rng.sample([q for q in primes if q % p == 1], rng.randrange(0, 6))) - set(s1))
        an = analyze_classified(SimpleNamespace(isogeny=SimpleNamespace(p=p), sets=SimpleNamespace(s1=tuple(s1), s2=tuple(s2))))
        assert an.m_phi + an.m_phihat <= 2 * min(len(s1), len(s2)), (p, s1, s2)
        assert an.bounds.sha_lower == 0 and an.bounds.sha_lower_raw <= -4, (p, s1, s2)
        positive_ranks += an.m_phi + an.m_phihat > 0
    assert positive_ranks > 1000
