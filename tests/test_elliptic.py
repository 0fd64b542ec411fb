"""Weierstrass models: invariants, group law, minimal models, reduction."""

import random
from fractions import Fraction

import pytest
from conftest import add_points, apply_transform, multiple

from shabound import elliptic
from shabound.arith import Incomplete, factor, require_complete, valuation
from shabound.elliptic import (
    ADDITIVE,
    GOOD,
    NONSPLIT,
    SPLIT,
    Transformation,
    _split_by_tangent_slopes,
    has_order,
    invariants,
    kernel_multiples,
    minimal_model,
    on_curve,
    reduce_point,
    reduction_at,
    singular_point,
    transform_point,
)
from shabound.errors import DegenerateFiber, IncompleteFactorization, InputError, SingularModel
from shabound.isogeny import velu_quotient
from shabound.search import fiber, tate_family

Q = Fraction

E11A3 = invariants(0, -1, 1, 0, 0)
# rank-positive 5-torsion family fiber (b = 5): extra independent point (2, 12)
E_B5 = invariants(-4, -5, -5, 0, 0)


def test_invariants_fixture():
    assert (E11A3.b2, E11A3.c4, E11A3.c6, E11A3.disc) == (-4, 16, -152, -11)
    assert E11A3.j == Q(-4096, 11)


def test_singular_input_rejected():
    with pytest.raises(SingularModel):
        invariants(0, 0, 0, 0, 0)


def test_group_law_fixtures():
    p0 = (Q(0), Q(0))
    assert on_curve(E11A3, p0)
    assert add_points(E11A3, p0, p0) == (Q(1), Q(-1))
    assert add_points(E11A3, (Q(1), Q(-1)), (Q(1), Q(0))) is None  # a point and its negative
    assert multiple(E11A3, 5, p0) is None
    assert has_order(E11A3, p0, 5)
    assert kernel_multiples(E11A3, p0, 5) == [p0, (Q(1), Q(-1))]
    assert kernel_multiples(E11A3, p0, 3) is None and not has_order(E11A3, p0, 7)
    assert kernel_multiples(E11A3, None, 5) is None


def test_group_law_rejects_points_off_the_curve():
    # the public entry points check the curve equation once; the steps inside do not
    p0, off = (Q(0), Q(0)), (Q(1), Q(1))
    assert not on_curve(E11A3, off)
    calls = (
        lambda: add_points(E11A3, off, p0),
        lambda: add_points(E11A3, p0, off),
        lambda: add_points(E11A3, None, off),
        lambda: kernel_multiples(E11A3, off, 5),
        lambda: kernel_multiples(E11A3, off, 7),
        lambda: velu_quotient(E11A3, off, 5),
        lambda: has_order(E11A3, off, 5),
    )
    for call in calls:
        with pytest.raises(InputError):
            call()


def _fraction_equation(e, pt):
    x, y = Q(pt[0]), Q(pt[1])
    return y * y + e.a1 * x * y + e.a3 * y == x**3 + e.a2 * x * x + e.a4 * x + e.a6


def test_on_curve_and_reduce_point_over_z_match_the_fraction_formulas():
    # integral points take the int path, the others the Fraction one; 37a1
    # has the point (0, 0) of infinite order, whose 5th multiple is (1/4, -5/8)
    e37 = invariants(0, 0, 1, -1, 0)
    points = [(e37, multiple(e37, n, (Q(0), Q(0)))) for n in range(1, 8)]
    points += [(E_B5, multiple(E_B5, n, (Q(2), Q(12)))) for n in (1, 2, 3)]
    points += [(E11A3, (0, 0)), (E11A3, (Q(1), Q(-1)))]
    cases = {(integral, on): 0 for integral in (True, False) for on in (True, False)}
    for e, pt in points:
        for dx, dy in ((0, 0), (0, 1), (1, 0), (0, Q(1, 3)), (Q(1, 2), 0)):
            moved = (pt[0] + dx, pt[1] + dy)
            want = _fraction_equation(e, moved)
            assert on_curve(e, moved) == want, (e.ainvs(), moved)
            if not want:
                with pytest.raises(InputError):
                    kernel_multiples(e, moved, 5)
            x, y = Q(moved[0]), Q(moved[1])
            cases[x.denominator == y.denominator == 1, want] += 1
            for q in (2, 3, 5, 7, 11, 13):
                want_red = None
                if x.denominator % q and y.denominator % q:
                    want_red = tuple(c.numerator * pow(c.denominator, -1, q) % q for c in (x, y))
                assert reduce_point(e, moved, q) == want_red, (e.ainvs(), moved, q)
    assert min(cases.values()) >= 3, cases


def test_integral_kernel_walk_matches_the_fraction_group_law():
    # kernel_multiples steps over Z; the Fraction group law must give the same points
    corpus = [(5, s * b) for b in range(1, 41) for s in (1, -1)]
    corpus += [(7, s * b) for b in range(1, 21) for s in (1, -1)]
    walked = 0
    for p, b in corpus:
        try:
            fib = fiber(tate_family(p), b)
        except DegenerateFiber:
            continue
        e, pt = fib.curve, fib.point
        reps = kernel_multiples(e, pt, p)
        assert reps == [multiple(e, k, pt) for k in range(1, (p + 1) // 2)], (p, b)
        assert all(type(c) is int for q in reps for c in q)
        assert multiple(e, p, pt) is None
        assert kernel_multiples(e, pt, 12 - p) is None  # 5 <-> 7: wrong order
        walked += 1
    assert walked == 119


def test_integral_kernel_walk_rejects_points_of_infinite_order():
    # 37a1: P = (0, 0) generates E(Q); P..4P are integral, 5P = (1/4, -5/8)
    e = invariants(0, 0, 1, -1, 0)
    pt = (Q(0), Q(0))
    five_p = multiple(e, 5, pt)
    assert five_p == (Q(1, 4), Q(-5, 8))
    assert [multiple(e, k, pt) for k in range(1, 5)] == [(0, 0), (1, 0), (-1, -1), (2, -3)]
    assert kernel_multiples(e, pt, 11) is None  # the step 4P -> 5P is an inexact division
    assert kernel_multiples(e, five_p, 5) is None  # a non-integral point has no odd order
    assert kernel_multiples(e, pt, 5) is None and kernel_multiples(e, pt, 7) is None
    assert elliptic._integral_step(e, (2, -3), (0, 0)) is None
    assert elliptic._integral_step(e, (0, 0), (0, -1)) is None  # P + (-P) = O


def test_group_law_associativity_random():
    rng = random.Random(2)
    p0 = (Q(0), Q(0))
    q0 = (Q(2), Q(12))
    assert on_curve(E_B5, q0)
    pts = [
        add_points(E_B5, multiple(E_B5, i, p0), multiple(E_B5, j, q0))
        for i in range(5)
        for j in range(-2, 3)
    ]
    for _ in range(100):
        a, b, c = (rng.choice(pts) for _ in range(3))
        left = add_points(E_B5, add_points(E_B5, a, b), c)
        right = add_points(E_B5, a, add_points(E_B5, b, c))
        assert left == right


def test_transform_round_trip():
    tr = Transformation(Q(1, 2), Q(3), Q(1), Q(-4))
    e2 = apply_transform(E_B5, tr)
    p0 = transform_point((Q(0), Q(0)), tr)
    assert on_curve(e2, p0)
    assert e2.disc * tr.u**12 == E_B5.disc


def test_minimal_model_already_minimal_is_identity():
    emin, tr, fac = minimal_model(E11A3)
    assert emin == E11A3 and tr == Transformation.identity()
    assert fac.factors == ((11, 1),)


def test_minimal_model_scaled_down():
    tr = Transformation(Q(1, 3), Q(0), Q(0), Q(0))  # blow up by u = 1/3
    big = apply_transform(E11A3, tr)
    emin, _, fac = minimal_model(big)
    assert emin.ainvs() == (0, -1, 1, 0, 0)
    assert (fac.value, fac.factors) == (-11, ((11, 1),))


def test_minimal_model_rejects_a_foreign_or_partial_factorization():
    with pytest.raises(InputError):
        minimal_model(E11A3, require_complete(factor(-13)))
    # -11 * 3^12 with the 3^12 left unsplit: the model is not minimal at 3
    big = apply_transform(E11A3, Transformation(Q(1, 3), Q(0), Q(0), Q(0)))
    with pytest.raises(IncompleteFactorization):
        minimal_model(big, Incomplete(big.disc, -1, ((11, 1),), 3**12))


def test_minimal_model_prime_power_fixture():
    e = invariants(0, 0, 0, 0, 2**12)
    emin, _, _ = minimal_model(e)
    assert emin.disc == -27 * 2**4  # = -432; u = 2 comes out


def test_minimal_model_stress():
    rng = random.Random(123)
    for _ in range(60):
        while True:
            try:
                e = invariants(*(rng.randrange(-6, 7) for _ in range(5)))
                break
            except SingularModel:
                continue
        emin, tr, fac = minimal_model(e)
        _assert_minimal_model_of(e, emin, tr, fac)
        emin2, tr2, _ = minimal_model(emin)
        assert emin2 == emin and tr2 == Transformation.identity()  # idempotent
        u = rng.choice([2, 3, 5])
        big = apply_transform(e, Transformation(Q(1, u), Q(0), Q(0), Q(0)))
        emin3, tr3, fac3 = minimal_model(big)
        _assert_minimal_model_of(big, emin3, tr3, fac3)
        assert (emin3.disc, emin3.c4, emin3.c6) == (emin.disc, emin.c4, emin.c6)


def _seeded_models():
    """The models of test_minimal_model_stress with their blow-ups, then cusps
    moved by a random integral (r, s, t), built as in
    test_singular_point_closed_form_vs_brute_force."""
    rng = random.Random(123)
    for _ in range(60):
        while True:
            try:
                e = invariants(*(rng.randrange(-6, 7) for _ in range(5)))
                break
            except SingularModel:
                continue
        yield e
        yield apply_transform(e, Transformation(Q(1, rng.choice([2, 3, 5])), Q(0), Q(0), Q(0)))
    rng = random.Random(12)
    for q in (5, 7, 11, 13):
        for _ in range(4):
            base = (0, 0, 0, q * rng.randrange(-9, 10), q * rng.randrange(1, 10))
            if invariants(*base).disc == 0:
                continue
            r, s, t = (Q(rng.randrange(-50, 51)) for _ in range(3))
            yield apply_transform(invariants(*base), Transformation(Q(1), r, s, t))


def test_integer_reduction_matches_the_fraction_transform():
    # _reduce_model runs Connell's formulas on ints; the Fraction oracle
    # applies the unique (1, r, s, t) that lands in the reduced ranges
    count = 0
    for e in _seeded_models():
        a1, a2, a3, _, _ = e.ainvs()
        s = (a1 % 2 - a1) // 2
        a2s = a2 - s * a1 - s * s
        r = ((a2s + 1) % 3 - 1 - a2s) // 3
        a3r = a3 + r * a1
        t = (a3r % 2 - a3r) // 2
        reduced = elliptic._reduce_model(e)
        assert reduced == apply_transform(e, Transformation(Q(1), Q(r), Q(s), Q(t))), e.ainvs()
        assert reduced.a1 in (0, 1) and reduced.a3 in (0, 1) and reduced.a2 in (-1, 0, 1)
        assert (reduced.c4, reduced.c6) == (e.c4, e.c6)
        count += 1
    assert count > 120


def _assert_minimal_model_of(e, emin, tr, fac):
    """The invariants minimal_model relies on without checking them at runtime."""
    assert fac == require_complete(factor(emin.disc))
    # Connell's reconstruction and the solved (u, r, s, t) land on emin
    assert (emin.c4 * tr.u**4, emin.c6 * tr.u**6) == (e.c4, e.c6)
    assert apply_transform(e, tr) == emin
    # minimal at every q >= 5: v_q(disc) < 12 or v_q(c4) < 4
    for q, v in fac.factors:
        if q >= 5:
            assert v < 12 or (emin.c4 and valuation(emin.c4, q) < 4), (e.ainvs(), q)


def test_reduction_kinds_fixture():
    # every model here is minimal at the primes asked about
    assert reduction_at(E11A3, 11) == SPLIT
    assert reduction_at(E11A3, 7) == GOOD
    # 20a-type curve (discriminant -2^8 5^2): additive at 2
    e = invariants(0, 1, 0, 4, 4)
    assert reduction_at(e, 2) == ADDITIVE
    # 15-ish curve nonsplit somewhere: y^2 + xy + y = x^3 + x^2 (disc = -15 model)
    e15 = invariants(1, 1, 1, 0, 0)
    kinds = {q: reduction_at(e15, q) for q in (3, 5)}
    assert set(kinds.values()) <= {SPLIT, NONSPLIT}
    with pytest.raises(InputError):
        reduction_at(E11A3, 12)


def test_split_detection_matches_tangent_slopes():
    # for q >= 5 the -c6 quadratic-residue test must agree with slope counting
    rng = random.Random(77)
    checked = 0
    while checked < 50:
        try:
            e = invariants(*(rng.randrange(-8, 9) for _ in range(5)))
        except SingularModel:
            continue
        emin, _, _ = minimal_model(e)
        for q in (5, 7, 11, 13):
            kind = reduction_at(emin, q)
            if kind in (SPLIT, NONSPLIT):
                assert (kind == SPLIT) == _split_by_tangent_slopes(emin, q), (emin.ainvs(), q)
                checked += 1


def test_singular_point_and_point_reduction():
    assert singular_point(E11A3, 11) == (8, 5)
    assert reduce_point(E11A3, (Q(0), Q(0)), 11) == (0, 0)
    # a point with 11 in the denominator reduces to infinity
    assert reduce_point(E11A3, (Q(1, 121), Q(1, 1331)), 11) is None


def _singular_points_brute(e, q):
    a1, a2, a3, a4, a6 = e.ainvs()
    return [
        (x, y)
        for x in range(q)
        for y in range(q)
        if (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % q == 0
        and (a1 * y - 3 * x * x - 2 * a2 * x - a4) % q == 0
        and (2 * y + a1 * x + a3) % q == 0
    ]


def test_singular_point_closed_form_vs_brute_force():
    # nodes from random models with q | disc; cusps from y^2 = x^3 + q(Ax + B)
    # moved by a random integral (r, s, t), so that a1, a2, a3 are nonzero too
    rng = random.Random(12)
    primes = [q for q in range(5, 44) if all(q % d for d in range(2, q))]
    nodes = cusps = 0
    for q in primes:
        found = 0
        while found < 12:
            if found % 3 == 0:
                base = (0, 0, 0, q * rng.randrange(-9, 10), q * rng.randrange(1, 10))
                if invariants(*base).disc == 0:
                    continue
                r, s, t = (Q(rng.randrange(-50, 51)) for _ in range(3))
                e = apply_transform(invariants(*base), Transformation(Q(1), r, s, t))
            else:
                try:
                    e = invariants(*(rng.randrange(-5 * q, 5 * q) for _ in range(5)))
                except SingularModel:
                    continue
                if e.disc % q:
                    continue
            found += 1
            assert [singular_point(e, q)] == _singular_points_brute(e, q), (e.ainvs(), q)
            if e.c4 % q:
                nodes += 1
            else:
                cusps += 1
    assert nodes >= 50 and cusps >= 50
