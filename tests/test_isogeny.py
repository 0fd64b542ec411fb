"""Velu quotients, division polynomials, dual kernel recovery."""

import random
from fractions import Fraction

import pytest
from conftest import multiple

from shabound import elliptic, polys
from shabound.arith import factor
from shabound.elliptic import add_points, has_order, invariants, kernel_multiples, on_curve
from shabound.errors import InputError
from shabound.isogeny import (
    division_poly_x,
    dual_kernel_poly,
    push_point,
    velu_quotient,
    velu_quotient_from_kernel_poly,
)
from shabound.search import fiber, tate_family

Q = Fraction

E11A3 = invariants(0, -1, 1, 0, 0)
E_B5 = invariants(-4, -5, -5, 0, 0)
P0 = (Q(0), Q(0))


def test_division_poly_degree_and_roots():
    f5 = division_poly_x(E11A3, 5)
    assert len(f5) - 1 == 12  # (p^2 - 1) / 2
    # the x-coordinates of the 5-torsion points 1P..2P are roots
    for i in (1, 2):
        x = multiple(E11A3, i, P0)[0]
        assert polys.qeval(list(f5), x) == 0


def test_velu_fixture_11a():
    iso = velu_quotient(E11A3, P0, 5)
    assert iso.codomain.ainvs() == (0, -1, 1, -10, -20)
    assert iso.codomain.disc == -(11**5)
    assert iso.kernel_x_poly == (Q(0), Q(-1), Q(1))  # x^2 - x


def test_kernel_poly_divides_division_poly():
    # velu_quotient relies on this without checking it; keep it checked on a fiber corpus
    corpus = [(5, b) for b in range(-20, 21) if b] + [(7, b) for b in (2, 3, -1, -2, 4)]
    for p, b in corpus:
        fib = fiber(tate_family(p), b)
        iso = velu_quotient(fib.curve, fib.point, p)
        assert polys.qdivides(list(iso.kernel_x_poly), division_poly_x(fib.curve, p)), (p, b)


def test_push_point_kernel_to_identity():
    iso = velu_quotient(E_B5, P0, 5)
    for i in range(1, 5):
        assert push_point(iso, multiple(E_B5, i, P0)) is None


def test_push_point_homomorphism_many_pairs():
    iso = velu_quotient(E_B5, P0, 5)
    q0 = (Q(2), Q(12))
    pool = [
        add_points(E_B5, multiple(E_B5, i, P0), multiple(E_B5, j, q0))
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


def test_codomain_carries_its_discriminant_factorization():
    # both Velu entry points, and the dual built from dual_kernel_poly
    fibers = [(5, s * b) for b in range(1, 21) for s in (1, -1)] + [(7, b) for b in (2, -2, 3, -3)]
    for p, b in fibers:
        fib = fiber(tate_family(p), b)
        iso = velu_quotient(fib.curve, fib.point, p)
        iso_k = velu_quotient_from_kernel_poly(fib.curve, iso.kernel_x_poly, p)
        iso_dual = velu_quotient_from_kernel_poly(iso.codomain, dual_kernel_poly(iso), p)
        for it in (iso, iso_k, iso_dual):
            assert it.codomain_disc_factorization == factor(it.codomain.disc), (p, b)


def test_wrong_order_point_rejected():
    with pytest.raises(InputError):
        velu_quotient(E_B5, (Q(2), Q(12)), 5)


def test_velu_quotient_walks_the_kernel_once(monkeypatch):
    # P -> ((p+1)/2)P is the order check and the kernel: (p-1)/2 chord-tangent steps
    calls = [0]
    step = elliptic.add_unchecked

    def counted(*args):
        calls[0] += 1
        return step(*args)

    monkeypatch.setattr(elliptic, "add_unchecked", counted)
    fib = fiber(tate_family(7), 2)
    for e, pt, p in ((E11A3, P0, 5), (fib.curve, fib.point, 7)):
        calls[0] = 0
        velu_quotient(e, pt, p)
        assert calls[0] == (p - 1) // 2, p


def test_kernel_walk_needs_exact_order_and_odd_p():
    # (0, 0) on 11a3 has order 5, which divides 15: not of exact order 15
    assert not has_order(E11A3, P0, 15)
    assert kernel_multiples(E11A3, P0, 15) is None
    with pytest.raises(InputError, match="exact order 15"):
        velu_quotient(E11A3, P0, 15)
    for p in (1, 2, 4):
        for call in (has_order, kernel_multiples, velu_quotient):
            with pytest.raises(InputError):
                call(E11A3, P0, p)


def test_isogeny_module_is_sympy_free():
    # the whole package: sympy is a test oracle only, never a runtime dependency
    import os
    import pathlib
    import subprocess
    import sys

    import shabound

    package = pathlib.Path(shabound.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert any(f.name == "isogeny.py" for f in sources)
    for f in sources:
        assert "sympy" not in f.read_text(), f.name
    probe = (
        "import sys, shabound.cli\n"
        "from shabound.search import tate_family\n"
        "tate_family(5), tate_family(7)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
