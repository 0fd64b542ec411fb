"""The scan's dual check: Velu's integral model of E'/<h'>, tested against E in closed form.

elliptic.isomorphic_to_minimal must agree with the check by minimal
models (conftest's oracles, which factor and minimalize) on whole fiber
ranges, and decide rescalings and twists, j = 0 and j = 1728 included.
The p = 7 scan corpus (conftest's corpus_p7) runs the whole dual path on 1000 fibers.
"""

from conftest import oracle_dual_round_trip, oracle_isomorphic

from shabound import report
from shabound.descent import classify_primes
from shabound.elliptic import invariants, isomorphic_to_minimal, minimal_model
from shabound.errors import ShaboundError
from shabound.isogeny import scaled_dual_kernel, velu_model_from_scaled_kernel
from shabound.search import _verify_dual_swap, fiber, tate_family


def _classified(p, bs):
    fam = tate_family(p)
    for b in bs:
        try:
            fib = fiber(fam, b)
            yield b, classify_primes(fib.curve, fib.point, p, fib.disc_factorization)
        except ShaboundError:  # degenerate or unfactored fibers never reach the dual check
            continue


def test_closed_form_agrees_with_the_minimal_model_oracle():
    ranges = {5: range(1, 201), 7: range(2, 121)}
    for p, bs in ranges.items():
        checked = 0
        for b, cls in _classified(p, [s * b for b in bs for s in (1, -1)]):
            iso = cls.isogeny
            back = velu_model_from_scaled_kernel(iso.codomain, *scaled_dual_kernel(iso), p)
            hints = (*cls.disc_factorization.primes, p)
            # E is the round trip's target, E' a curve it is not isomorphic to
            assert isomorphic_to_minimal(back, cls.curve) == oracle_isomorphic(back, cls.curve, hints), (p, b)
            assert isomorphic_to_minimal(back, iso.codomain) == oracle_isomorphic(back, iso.codomain, hints), (p, b)
            assert _verify_dual_swap(cls) == oracle_dual_round_trip(cls), (p, b)
            assert isomorphic_to_minimal(back, cls.curve) and not isomorphic_to_minimal(back, iso.codomain)
            checked += 1
        assert checked >= {5: 400, 7: 200}[p], (p, checked)


def _rescaled(e, u):
    """The model x = u^-2 x', y = u^-3 y' of e: a_i -> u^i a_i."""
    return invariants(*(a * u**w for a, w in zip(e.ainvs(), (1, 2, 3, 4, 6))))


def _short(c4, c6):
    """y^2 = x^3 - 27 c4 x - 54 c6, whose invariants are 6^4 c4 and 6^6 c6."""
    return invariants(0, 0, 0, -27 * c4, -54 * c6)


def _decide(e, emin):
    verdict = isomorphic_to_minimal(e, emin)
    assert verdict == oracle_isomorphic(e, emin), (e.ainvs(), emin.ainvs())
    return verdict


def test_integer_rescalings_are_accepted():
    for ainvs in ((0, -1, 1, -10, -20), (0, -1, 1, 0, 0), (1, 0, 1, 4, -6)):
        e = invariants(*ainvs)
        assert minimal_model(e)[0] == e
        for u in (1, 2, 3):
            assert _decide(_rescaled(e, u), e), (ainvs, u)
        assert _decide(_short(e.c4, e.c6), e)  # u = 6 with a change of origin


def test_twists_are_rejected():
    e = invariants(0, -1, 1, -10, -20)  # 11a1
    assert not _decide(_short(e.c4, -e.c6), e)  # the quadratic twist by -1: Delta''/Delta = 6^12
    assert not _decide(_short(4 * e.c4, -8 * e.c6), e)  # by -2


def test_j0_and_j1728_twists_are_decided_without_special_cases():
    # j = 0: y^2 = x^3 + k, isomorphic for k / k' a sixth power
    e0 = minimal_model(invariants(0, 0, 0, 0, 1))[0]
    assert e0.c4 == 0
    assert _decide(_rescaled(e0, 2), e0)
    for k in (2, -1, -64, 3):  # sextic, and quadratic twists by -1 (Delta''/Delta = 1, 2^12)
        assert not _decide(invariants(0, 0, 0, 0, k), e0), k
    # j = 1728: y^2 = x^3 - D x, isomorphic for D a fourth power
    e1728 = minimal_model(invariants(0, 0, 0, -1, 0))[0]
    assert e1728.c6 == 0
    assert _decide(invariants(0, 0, 0, -16, 0), e1728)
    for big_d in (4, -4, -1, 2):  # quartic twists
        assert not _decide(invariants(0, 0, 0, -big_d, 0), e1728), big_d


def test_a_fractional_discriminant_ratio_is_rejected():
    e11a1, e11a3 = invariants(0, -1, 1, -10, -20), invariants(0, -1, 1, 0, 0)
    assert e11a1.disc % e11a3.disc == 0 and e11a3.disc % e11a1.disc != 0
    assert not _decide(e11a3, e11a1)  # Delta''/Delta = 1/11^4


def test_p7_corpus_verifies_the_dual_on_every_kept_fiber(corpus_p7):
    r = corpus_p7[0]
    # the incomplete_factorization count is not pinned: the codomain's hints will change it
    assert r["errors"] == []
    assert len(r["rows"]) + sum(r["skipped"].values()) == 1000
    assert len(r["rows"]) >= 700
    assert all(row["dual_swap_verified"] is True for row in r["rows"])


def test_p7_corpus_is_identical_across_worker_counts(corpus_p7):
    assert report.dumps(corpus_p7[0]) == report.dumps(corpus_p7[1])
