"""Weierstrass models: invariants, group law, minimal models, reduction."""

import random
from fractions import Fraction

import pytest

from shabound.arith import require_complete, factor
from shabound.elliptic import (
    ADDITIVE,
    GOOD,
    NONSPLIT,
    SPLIT,
    Transformation,
    add_points,
    apply_transform,
    has_order,
    invariants,
    minimal_disc_factorization,
    minimal_model,
    multiply_point,
    negate,
    on_curve,
    reduce_point,
    reduction_at,
    singular_point,
    transform_point,
)
from shabound.errors import InputError, SingularModel

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
    assert multiply_point(E11A3, 2, p0) == (Q(1), Q(-1))
    assert multiply_point(E11A3, 5, p0) is None
    assert has_order(E11A3, p0, 5)
    assert negate(E11A3, (Q(1), Q(-1))) == (Q(1), Q(0))


def test_group_law_rejects_points_off_the_curve():
    # the public entry points check the curve equation once; the steps inside do not
    p0, off = (Q(0), Q(0)), (Q(1), Q(1))
    assert not on_curve(E11A3, off)
    calls = (
        lambda: add_points(E11A3, off, p0),
        lambda: add_points(E11A3, p0, off),
        lambda: add_points(E11A3, None, off),
        lambda: multiply_point(E11A3, 5, off),
        lambda: multiply_point(E11A3, -2, off),
        lambda: multiply_point(E11A3, 0, off),
        lambda: has_order(E11A3, off, 5),
    )
    for call in calls:
        with pytest.raises(InputError):
            call()


def test_group_law_associativity_random():
    rng = random.Random(2)
    p0 = (Q(0), Q(0))
    q0 = (Q(2), Q(12))
    assert on_curve(E_B5, q0)
    pts = [
        add_points(E_B5, multiply_point(E_B5, i, p0), multiply_point(E_B5, j, q0))
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
    emin, tr = minimal_model(E11A3)
    assert emin == E11A3 and tr.is_identity()


def test_minimal_model_scaled_down():
    tr = Transformation(Q(1, 3), Q(0), Q(0), Q(0))  # blow up by u = 1/3
    big = apply_transform(E11A3, tr)
    emin, back = minimal_model(big)
    assert emin.ainvs() == (0, -1, 1, 0, 0)
    fac = require_complete(factor(big.disc))
    assert minimal_disc_factorization(fac, back).factors == ((11, 1),)


def test_minimal_model_prime_power_fixture():
    e = invariants(0, 0, 0, 0, 2**12)
    emin, _ = minimal_model(e)
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
        emin, tr = minimal_model(e)
        emin2, tr2 = minimal_model(emin)
        assert emin2 == emin and tr2.is_identity()  # idempotent
        u = rng.choice([2, 3, 5])
        big = apply_transform(e, Transformation(Q(1, u), Q(0), Q(0), Q(0)))
        emin3, _ = minimal_model(big)
        assert (emin3.disc, emin3.c4, emin3.c6) == (emin.disc, emin.c4, emin.c6)


def test_reduction_kinds_fixture():
    assert reduction_at(E11A3, 11).kind == SPLIT
    assert reduction_at(E11A3, 7).kind == GOOD
    # 20a-type curve: additive at 2
    e = invariants(0, 1, 0, 4, 4)
    assert reduction_at(e, 2).kind == ADDITIVE
    # 15-ish curve nonsplit somewhere: y^2 + xy + y = x^3 + x^2 (disc = -15 model)
    e15 = invariants(1, 1, 1, 0, 0)
    kinds = {q: reduction_at(e15, q).kind for q in (3, 5)}
    assert set(kinds.values()) <= {SPLIT, NONSPLIT}


def test_split_detection_matches_tangent_slopes():
    # for q >= 5 the -c6 quadratic-residue test must agree with slope counting
    rng = random.Random(77)
    checked = 0
    while checked < 50:
        try:
            e = invariants(*(rng.randrange(-8, 9) for _ in range(5)))
        except SingularModel:
            continue
        for q in (5, 7, 11, 13):
            red = reduction_at(e, q)
            if red.kind in (SPLIT, NONSPLIT):
                checked += 1  # reduction_at itself cross-asserts the two tests


def test_singular_point_and_point_reduction():
    assert singular_point(E11A3, 11) == (8, 5)
    assert reduce_point(E11A3, (Q(0), Q(0)), 11) == (0, 0)
    # a point with 11 in the denominator reduces to infinity
    assert reduce_point(E11A3, (Q(1, 121), Q(1, 1331)), 11) is None
