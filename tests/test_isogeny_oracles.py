"""Sympy-resultant oracles for the dual kernel and the doubling closure.

The library computes both in Q[z]/(A) with traces and Newton's
identities.  The oracles below take the long way round, by bivariate
resultants and root extraction in sympy, and must agree exactly.
"""

from fractions import Fraction

import pytest
import sympy

from shabound import polys
from shabound.descent import classify_primes
from shabound.elliptic import invariants
from shabound.errors import InputError
from shabound.isogeny import (
    _compose_affine,
    _stable_under_doubling,
    division_poly_x,
    dual_kernel_poly,
    velu_quotient,
    velu_quotient_from_kernel_poly,
)
from shabound.search import fiber, tate_family

Q = Fraction


# ------------------------------------------------------------------ oracles

def _roots_of(h):
    """Rational roots of a monic polynomial that splits over Q."""
    x = sympy.symbols("x")
    poly = sympy.Poly([sympy.Rational(c) for c in reversed(h)], x)
    out = []
    for r, mult in sympy.roots(poly).items():
        if not r.is_rational:
            raise InputError("kernel polynomial does not split over Q")
        out.extend([Q(str(r))] * mult)
    return sorted(out)


def _monic(g):
    """A sympy polynomial as a monic Fraction list, low degree first."""
    return polys.qmonic([Q(str(c)) for c in reversed(g.all_coeffs())])


def _monic_radical(g):
    """Monic squarefree part g / gcd(g, g'), with sympy's gcd."""
    return _monic(sympy.quo(g, sympy.gcd(g, g.diff())))


def oracle_stable_under_doubling(e, h):
    """Radical of Res_z(h(z), X * den(z) - num(z)) equals h, x(2Q) = num/den."""
    x, z = sympy.symbols("x z")
    b2, b4, b6, b8 = e.b2, e.b4, e.b6, e.b8
    num = z**4 - b4 * z**2 - 2 * b6 * z - b8
    den = 4 * z**3 + b2 * z**2 + 2 * b4 * z + b6
    hz = sum(sympy.Rational(c) * z**i for i, c in enumerate(h))
    res = sympy.Poly(sympy.resultant(sympy.Poly(hz, z), sympy.Poly(x * den - num, z), z), x)
    hh = polys.qmonic([Q(c) for c in h])
    return _monic_radical(res) == hh or _monic(res) == hh


def oracle_dual_kernel_poly(iso):
    """Radical of Res_z(A(z), X * h(z)^2 - N(z)), N from the kernel roots."""
    e, p = iso.domain, iso.p
    h = [Q(c) for c in iso.kernel_x_poly]
    a_poly = polys.qexact_div(polys.qmonic(division_poly_x(e, p)), h)
    roots = _roots_of(h)
    b2, b4, b6 = e.b2, e.b4, e.b6
    n_poly = polys.qmul([Q(0), Q(1)], polys.qmul(h, h))
    for xq in roots:
        hq = polys.qexact_div(h, [-xq, Q(1)])
        tq = 6 * xq * xq + b2 * xq + b4
        uq = 4 * xq**3 + b2 * xq * xq + 2 * b4 * xq + b6
        n_poly = polys.qadd(n_poly, polys.qscale(polys.qmul(hq, h), tq))
        n_poly = polys.qadd(n_poly, polys.qscale(polys.qmul(hq, hq), uq))
    d_poly = polys.qmul(h, h)
    x, z = sympy.symbols("x z")
    az = sympy.Poly([sympy.Rational(c) for c in reversed(a_poly)], z)
    dz = sum(sympy.Rational(c) * z**i for i, c in enumerate(d_poly))
    nz = sum(sympy.Rational(c) * z**i for i, c in enumerate(n_poly))
    res = sympy.Poly(sympy.resultant(az, sympy.Poly(x * dz - nz, z), z), x)
    return _compose_affine(_monic_radical(res), iso.to_minimal)


# -------------------------------------------------------------------- tests

def _isogenies(p, bs):
    fam = tate_family(p)
    for b in bs:
        fib = fiber(fam, b)
        yield b, classify_primes(fib.curve, fib.point, p, fib.disc_factorization).isogeny


def _check_against_oracles(iso):
    h_dual = dual_kernel_poly(iso)
    assert h_dual == oracle_dual_kernel_poly(iso)
    assert _stable_under_doubling(iso.domain, list(iso.kernel_x_poly))
    assert oracle_stable_under_doubling(iso.domain, list(iso.kernel_x_poly))
    assert _stable_under_doubling(iso.codomain, h_dual)
    assert oracle_stable_under_doubling(iso.codomain, h_dual)


def test_dual_matches_oracle_p5_scan_fibers():
    # the fibers of a default p = 5 scan of 80 fibers
    bs = [s * b for b in range(1, 41) for s in (1, -1)]
    for _, iso in _isogenies(5, bs):
        _check_against_oracles(iso)


def test_dual_matches_oracle_p7_fibers():
    for _, iso in _isogenies(7, [2, -2, 3, -3, 4, -4, 5, -5, 6, -6]):
        _check_against_oracles(iso)


def test_dual_of_kernel_poly_isogeny_matches_oracle():
    e = invariants(-4, -5, -5, 0, 0)
    iso = velu_quotient(e, (Q(0), Q(0)), 5)
    iso_k = velu_quotient_from_kernel_poly(e, iso.kernel_x_poly, 5)
    assert iso_k.kernel_points is None
    assert dual_kernel_poly(iso_k) == oracle_dual_kernel_poly(iso_k) == dual_kernel_poly(iso)


def test_dual_of_dual_is_the_kernel():
    # the dual kernel does not split over Q, which the root-based oracle
    # cannot handle; the dual of the dual is phi again, up to isomorphism
    for p, bs in ((5, [2, -3, 7]), (7, [2, -3])):
        for _, iso in _isogenies(p, bs):
            h_dual = dual_kernel_poly(iso)
            with pytest.raises(InputError):
                _roots_of(h_dual)
            iso_dual = velu_quotient_from_kernel_poly(iso.codomain, h_dual, p)
            h_back = dual_kernel_poly(iso_dual)
            # <P> again, on another model of E: rational roots, same quotient
            assert len(_roots_of(h_back)) == len(h_back) - 1
            back = velu_quotient_from_kernel_poly(iso_dual.codomain, h_back, p).codomain
            assert (back.c4, back.c6, back.disc) == (iso.codomain.c4, iso.codomain.c6, iso.codomain.disc)


def test_closure_rejects_moved_root():
    for p, bs in ((5, [1, -2, 9]), (7, [2, -3])):
        for _, iso in _isogenies(p, bs):
            h = list(iso.kernel_x_poly)
            # move one kernel root off the subgroup: (x - x0) -> (x - x0 - 1)
            x0 = iso.kernel_points[0][0]
            moved = polys.qmul(polys.qexact_div(h, [-x0, Q(1)]), [-x0 - 1, Q(1)])
            assert not _stable_under_doubling(iso.domain, moved)
            assert not oracle_stable_under_doubling(iso.domain, moved)
