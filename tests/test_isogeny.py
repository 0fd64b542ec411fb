"""Velu quotients, division polynomials, dual kernel recovery."""

import dataclasses
import random
from fractions import Fraction

import pytest
import sympy
from conftest import add_points, multiple, push_point

from shabound import elliptic, polys
from shabound.arith import factor
from shabound.elliptic import has_order, invariants, kernel_multiples, on_curve
from shabound.descent import classify_primes
from shabound.errors import InputError
from shabound.isogeny import (
    division_poly_x,
    dual_kernel_poly,
    velu_quotient,
    velu_quotient_from_kernel_poly,
)
from shabound.search import fiber, tate_family

Q = Fraction

E11A3 = invariants(0, -1, 1, 0, 0)
E_B5 = invariants(-4, -5, -5, 0, 0)
P0 = (Q(0), Q(0))


def _divides(g, f):
    """True iff g divides f over Q, by sympy."""
    x = sympy.symbols("x")
    g, f = (sympy.Poly([sympy.Rational(c) for c in reversed(a)], x) for a in (g, f))
    return sympy.rem(f, g).is_zero


def test_division_poly_degree_and_roots():
    f5 = division_poly_x(E11A3, 5)
    assert len(f5) - 1 == 12  # (p^2 - 1) / 2
    # the x-coordinates of the 5-torsion points 1P..2P are roots
    for i in (1, 2):
        x = multiple(E11A3, i, P0)[0]
        assert polys.evaluate(f5, x) == 0


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
        assert _divides(iso.kernel_x_poly, division_poly_x(fib.curve, p)), (p, b)


def test_push_point_kernel_to_identity():
    iso = velu_quotient(E_B5, P0, 5)
    for i in range(1, 5):
        assert push_point(iso, P0, multiple(E_B5, i, P0)) is None


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
        lhs = push_point(iso, P0, add_points(E_B5, a, b))
        rhs = add_points(iso.codomain, push_point(iso, P0, a), push_point(iso, P0, b))
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
    assert _divides(h, division_poly_x(iso.codomain, 5))
    iso_dual = velu_quotient_from_kernel_poly(iso.codomain, h, 5)
    back = iso_dual.codomain
    # composition phi-hat o phi is multiplication by 5: same curve up to iso
    assert (back.c4, back.c6, back.disc) == (E11A3.c4, E11A3.c6, E11A3.disc)


def test_dual_kernel_rejects_a_bad_kernel_poly():
    # a typed error, which a scan records as an error row
    iso = velu_quotient(E_B5, P0, 5)
    for bad in ((1, 0, 1), (Q(1, 3), 0, 1), (0, 1, 2)):
        with pytest.raises(InputError):
            dual_kernel_poly(dataclasses.replace(iso, kernel_x_poly=bad))


def test_dual_check_stays_in_integers(monkeypatch):
    # dual_kernel_poly and the dual's Velu step run over Z: Fractions only
    # at the edges.  At b = 2 Velu's codomain is minimal and the check makes
    # 7 products at p = 5 and at p = 7; p = 5, b = -32 and p = 7, b = 5 need
    # a change of model, which moves the dual kernel by its power sums (20
    # and 35 products)
    calls = [0]
    mul, rmul = Fraction.__mul__, Fraction.__rmul__

    def counted(op):
        def wrapped(a, b):
            calls[0] += 1
            return op(a, b)
        return wrapped

    for p, b, bound in ((5, 2, 10), (7, 2, 10), (5, -32, 25), (7, 5, 40)):
        fib = fiber(tate_family(p), b)
        iso = classify_primes(fib.curve, fib.point, p, fib.disc_factorization).isogeny
        assert (iso.to_minimal.u == 1) == (b == 2), (p, b)
        monkeypatch.setattr(Fraction, "__mul__", counted(mul))
        monkeypatch.setattr(Fraction, "__rmul__", counted(rmul))
        calls[0] = 0
        velu_quotient_from_kernel_poly(iso.codomain, dual_kernel_poly(iso), p)
        monkeypatch.undo()
        assert 0 < calls[0] < bound, (p, b, calls[0])


def test_velu_from_a_point_stays_in_integers(monkeypatch):
    # the on-curve check of an integral point, the kernel walk, the kernel
    # polynomial and Velu's t and w run over Z: at b = 2, where Velu's
    # codomain is minimal, no Fraction products at all at p = 5 and at p = 7
    calls = [0]
    mul, rmul = Fraction.__mul__, Fraction.__rmul__

    def counted(op):
        def wrapped(a, b):
            calls[0] += 1
            return op(a, b)
        return wrapped

    for p in (5, 7):
        fib = fiber(tate_family(p), 2)
        monkeypatch.setattr(Fraction, "__mul__", counted(mul))
        monkeypatch.setattr(Fraction, "__rmul__", counted(rmul))
        calls[0] = 0
        iso = velu_quotient(fib.curve, fib.point, p, fib.disc_factorization.primes)
        assert calls[0] == 0, (p, calls[0])
        assert Fraction(1, 2) * 3 == Fraction(3, 2) and calls[0] == 1  # the counter counts
        monkeypatch.undo()
        assert iso.to_minimal.u == 1
        assert all(type(c) is Fraction for c in iso.kernel_x_poly)


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


def test_composite_p_is_not_a_factoring_hint():
    # 54b3 has a point of order 9, so a 9-isogeny; a hint of 9 would enter
    # the codomain discriminant's factorization as a "prime" unless 3 is hinted too
    e = invariants(1, -1, 1, -14, 29)
    for hints in ((), factor(e.disc).primes):
        iso = velu_quotient(e, (Q(3), Q(1)), 9, hints)
        assert iso.codomain.ainvs() == (1, -1, 1, -29, -53)
        assert iso.codomain_disc_factorization == factor(iso.codomain.disc)
        assert iso.kernel_x_poly == (-81, 90, 0, -10, 1)


def test_wrong_order_point_rejected():
    with pytest.raises(InputError):
        velu_quotient(E_B5, (Q(2), Q(12)), 5)


def test_velu_quotient_walks_the_kernel_once(monkeypatch):
    # P -> ((p+1)/2)P is the order check and the kernel: (p-1)/2 integer chord-tangent steps
    calls = [0]
    step = elliptic._integral_step

    def counted(*args):
        calls[0] += 1
        return step(*args)

    monkeypatch.setattr(elliptic, "_integral_step", counted)
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
