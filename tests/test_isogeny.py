"""Velu quotients, division polynomials, dual kernel recovery."""

import random
from fractions import Fraction

import pytest

from shabound import polys
from shabound.elliptic import add_points, invariants, multiply_point, on_curve
from shabound.errors import InputError
from shabound.isogeny import (
    division_poly_x,
    dual_kernel_poly,
    push_point,
    velu_quotient,
    velu_quotient_from_kernel_poly,
)

Q = Fraction

E11A3 = invariants(0, -1, 1, 0, 0)
E_B5 = invariants(-4, -5, -5, 0, 0)
P0 = (Q(0), Q(0))


def test_division_poly_degree_and_roots():
    f5 = division_poly_x(E11A3, 5)
    assert len(f5) - 1 == 12  # (p^2 - 1) / 2
    # the x-coordinates of the 5-torsion points 1P..2P are roots
    for i in (1, 2):
        x = multiply_point(E11A3, i, P0)[0]
        assert polys.qeval(list(f5), x) == 0


def test_velu_fixture_11a():
    iso = velu_quotient(E11A3, P0, 5)
    assert iso.codomain.ainvs() == (0, -1, 1, -10, -20)
    assert iso.codomain.disc == -(11**5)
    assert iso.kernel_x_poly == (Q(0), Q(-1), Q(1))  # x^2 - x


def test_kernel_poly_divides_division_poly():
    iso = velu_quotient(E_B5, P0, 5)
    f5 = list(division_poly_x(E_B5, 5))
    assert polys.qdivides(list(iso.kernel_x_poly), f5)


def test_push_point_kernel_to_identity():
    iso = velu_quotient(E_B5, P0, 5)
    for i in range(1, 5):
        assert push_point(iso, multiply_point(E_B5, i, P0)) is None


def test_push_point_homomorphism_many_pairs():
    iso = velu_quotient(E_B5, P0, 5)
    q0 = (Q(2), Q(12))
    pool = [
        add_points(E_B5, multiply_point(E_B5, i, P0), multiply_point(E_B5, j, q0))
        for i in range(5)
        for j in range(-3, 4)
    ]
    rng = random.Random(42)
    for _ in range(1000):
        a, b = rng.choice(pool), rng.choice(pool)
        lhs = push_point(iso, add_points(E_B5, a, b))
        rhs = add_points(iso.codomain, push_point(iso, a), push_point(iso, b))
        assert lhs == rhs
        assert on_curve(iso.codomain, lhs)


def test_quotient_from_kernel_poly_matches_point_route():
    iso = velu_quotient(E_B5, P0, 5)
    iso2 = velu_quotient_from_kernel_poly(E_B5, iso.kernel_x_poly, 5)
    assert iso2.codomain == iso.codomain


def test_quotient_rejects_bad_kernel_poly():
    with pytest.raises(InputError):
        velu_quotient_from_kernel_poly(E_B5, (Q(1), Q(0), Q(1)), 5)


def test_dual_kernel_round_trip():
    iso = velu_quotient(E11A3, P0, 5)
    h = dual_kernel_poly(iso)
    f5 = list(division_poly_x(iso.codomain, 5))
    assert polys.qdivides(list(h), f5)
    iso_dual = velu_quotient_from_kernel_poly(iso.codomain, h, 5)
    back = iso_dual.codomain
    # composition phi-hat o phi is multiplication by 5: same curve up to iso
    assert (back.c4, back.c6, back.disc) == (E11A3.c4, E11A3.c6, E11A3.disc)


def test_dual_kernel_round_trip_other_fiber():
    iso = velu_quotient(E_B5, P0, 5)
    h = dual_kernel_poly(iso)
    iso_dual = velu_quotient_from_kernel_poly(iso.codomain, h, 5)
    assert (iso_dual.codomain.c4, iso_dual.codomain.disc) == (E_B5.c4, E_B5.disc)
    # valuations swap: v_11 pattern S1 <-> S2 is checked at the descent level


def test_wrong_order_point_rejected():
    with pytest.raises(InputError):
        velu_quotient(E_B5, (Q(2), Q(12)), 5)


def test_isogeny_module_is_sympy_free():
    import inspect
    import os
    import subprocess
    import sys

    from shabound import isogeny

    assert "sympy" not in inspect.getsource(isogeny)
    probe = "import sys, shabound.isogeny; print(any(m.split('.')[0] == 'sympy' for m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(isogeny.__file__)))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
