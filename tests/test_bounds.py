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
from shabound.errors import HypothesisViolated, InputError

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
    # under the hypotheses the report equals the public formulas, term by term
    for s1, s2, m, m_hat in [(0, 0, 0, 0), (5, 1, 0, 0), (2, 7, 1, 3), (20, 1, 4, 4)]:
        br = bound_report(F4, s1, s2, m, m_hat)
        assert br.hypothesis_ok and br.hypothesis_reasons == ()
        assert (br.selmer_lower, br.selmer_upper) == selmer_interval(F4, s1, s2, m)
        assert br.rank_upper == rank_upper(F4, s1, s2, m, m_hat)
        assert br.cassels_interval == cassels_interval(F4, s1, s2, br.selmer_upper)
        assert br.sum_lower == sum_lower(F4, s1, s2)
        assert (br.sha_lower_raw, br.sha_lower) == sha_lower_matrix(F4, s1, s2, m, m_hat)


def test_negative_inputs_rejected_everywhere():
    with pytest.raises(InputError):
        bound_report(FQ, 2, 1, -1, 0)  # flags the hypotheses, but checks the inputs
    for call in (
        lambda: bound_report(F4, -2, 0, 0, 0),
        lambda: bound_report(F4, 0, -1, 0, 0),
        lambda: bound_report(F4, 0, 0, 0, -1),
        lambda: selmer_interval(F4, 0, 0, -3),
        lambda: selmer_interval(F4, s1=-1, s2=0, m=0),
        lambda: rank_upper(F4, 0, 0, 0, -1),
        lambda: cassels_interval(F4, 0, -1, 0),
        lambda: sum_lower(F4, -1, 0),
        lambda: sha_lower_matrix(F4, 0, 0, -1, 0),
        lambda: sha_from_sum(-1, 0),
    ):
        with pytest.raises(InputError):
            call()
    # the hypotheses are still required by the public formulas
    with pytest.raises(HypothesisViolated):
        rank_upper(FQ, 0, 0, 0, 0)


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
