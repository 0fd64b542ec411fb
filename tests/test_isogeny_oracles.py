"""Sympy oracles for the dual kernel, the doubling closure and psi_n.

The library computes the first two over Z, after rescaling the variable
so that the polynomials involved are monic integral: the dual kernel by
a triangular solve on leading coefficients, the closure by Horner's
rule modulo the kernel polynomial.  The oracles below take the long way
round, by bivariate resultants and root extraction in sympy, and must
agree exactly; the division-polynomial oracle runs the classical
recursion in sympy's QQ[x].
"""

from fractions import Fraction

import pytest
import sympy

from shabound import isogeny, polys
from shabound.descent import classify_primes
from shabound.elliptic import invariants
from shabound.errors import InputError
from shabound.isogeny import (
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


def _sympy_poly(f, var):
    """A coefficient list, low degree first, as a sympy polynomial over QQ."""
    return sympy.Poly([sympy.Rational(c) for c in reversed(f)], var, domain="QQ")


def _monic(g):
    """A sympy polynomial as a monic Fraction list, low degree first."""
    coeffs = [Q(str(c)) for c in reversed(g.all_coeffs())]
    return [c / coeffs[-1] for c in coeffs]


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
    hh = [Q(c) / Q(h[-1]) for c in h]
    return _monic_radical(res) == hh or _monic(res) == hh


def oracle_dual_kernel_poly(iso):
    """Radical of Res_z(A(z), X * h(z)^2 - N(z)), N from the kernel roots."""
    e, p = iso.domain, iso.p
    x, z = sympy.symbols("x z")
    hz = _sympy_poly(iso.kernel_x_poly, z)
    az = sympy.exquo(_sympy_poly(division_poly_x(e, p), z), hz).monic()
    b2, b4, b6 = e.b2, e.b4, e.b6
    nz = z * hz**2
    for xq in _roots_of(iso.kernel_x_poly):
        hq = sympy.exquo(hz, sympy.Poly(z - sympy.Rational(xq), z))
        tq = 6 * xq * xq + b2 * xq + b4
        uq = 4 * xq**3 + b2 * xq * xq + 2 * b4 * xq + b6
        nz += hq * hz * sympy.Rational(tq) + hq**2 * sympy.Rational(uq)
    res = sympy.Poly(sympy.resultant(az, sympy.Poly(x * hz.as_expr() ** 2 - nz.as_expr(), z), z), x)
    # onto the minimal codomain model: roots x_min = (x - r) / u^2 are the roots of g(u^2 x + r)
    tr = iso.to_minimal
    g = _sympy_poly(_monic_radical(res), x)
    return _monic(sympy.Poly(g.as_expr().subs(x, sympy.Rational(tr.u) ** 2 * x + sympy.Rational(tr.r)), x))


def oracle_division_poly_x(e, n):
    """The x-part f_n of psi_n (odd n), by the classical recursion over sympy's QQ[x]."""
    x = sympy.symbols("x")
    b2, b4, b6, b8 = e.b2, e.b4, e.b6, e.b8
    t2 = sympy.Poly(4 * x**3 + b2 * x**2 + 2 * b4 * x + b6, x, domain="QQ") ** 2
    f = {
        0: sympy.Poly(0, x, domain="QQ"),
        1: sympy.Poly(1, x, domain="QQ"),
        2: sympy.Poly(1, x, domain="QQ"),
        3: sympy.Poly(3 * x**4 + b2 * x**3 + 3 * b4 * x**2 + 3 * b6 * x + b8, x, domain="QQ"),
        4: sympy.Poly(
            2 * x**6 + b2 * x**5 + 5 * b4 * x**4 + 10 * b6 * x**3 + 10 * b8 * x**2
            + (b2 * b8 - b4 * b6) * x + b4 * b8 - b6**2, x, domain="QQ",
        ),
    }
    for k in range(5, n + 1):
        m = k // 2
        if k % 2:
            a, b = f[m + 2] * f[m] ** 3, f[m - 1] * f[m + 1] ** 3
            f[k] = a * t2 - b if m % 2 == 0 else a - b * t2
        else:
            f[k] = f[m] * (f[m + 2] * f[m - 1] ** 2 - f[m - 2] * f[m + 1] ** 2)
    return [Q(str(c)) for c in reversed(f[n].all_coeffs())]


# -------------------------------------------------------------------- tests

def _stable_under_doubling(e, h):
    """The library's closure test, on h rescaled to monic integral as its callers do."""
    big_d = isogeny._denominator(h)
    return isogeny._stable_under_doubling(e, isogeny._scaled(h, big_d), big_d)


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


def _raw_dual_scaled(iso, c):
    """H(Y) = c^d h'(Y / c), h' the dual kernel on Velu's raw codomain model.

    dual_kernel_poly returns it moved onto the minimal model, whose roots
    are x_min = (x_raw - r) / u^2; this moves it back, in sympy.
    """
    y = sympy.symbols("y")
    g = _sympy_poly(dual_kernel_poly(iso), y)
    d, tr = g.degree(), iso.to_minimal
    u2, r = sympy.Rational(tr.u) ** 2, sympy.Rational(tr.r)
    big_h = sympy.Poly(sympy.expand(c**d * u2**d * g.as_expr().subs(y, (y / c - r) / u2)), y)
    coeffs = list(reversed(big_h.all_coeffs()))
    assert all(k.is_integer for k in coeffs) and coeffs[-1] == 1
    return [int(k) for k in coeffs]


def test_dual_kernel_identity_holds_on_every_coefficient():
    # dual_kernel_poly reads H off the top d + 1 coefficients of
    # sum_j H_j N_c^j h_c^(2(d-j)) = A_c; the identity holds on all of them
    cases = [(5, [s * b for b in range(1, 41) for s in (1, -1)])]
    cases.append((7, [s * b for b in range(2, 7) for s in (1, -1)]))
    moved = 0
    for p, bs in cases:
        for b, iso in _isogenies(p, bs):
            e, h = iso.domain, list(iso.kernel_x_poly)
            d, c = len(h) - 1, p * isogeny._denominator(h)
            h_c = isogeny._scaled(h, c)
            a_c = polys.exact_quo_monic([x // p for x in isogeny._scaled(division_poly_x(e, p), c)], h_c)
            n_c, hh = isogeny._velu_x_numerator(e, h_c, p, c), polys.mul(h_c, h_c)
            total = []
            for j, hj in enumerate(_raw_dual_scaled(iso, c)):
                term = [hj]
                for _ in range(j):
                    term = polys.mul(term, n_c)
                for _ in range(d - j):
                    term = polys.mul(term, hh)
                total = polys.add(total, term)
            assert total == a_c, (p, b)
            assert len(a_c) - 1 == p * d
            moved += iso.to_minimal.u != 1
    assert moved >= 2  # the change-of-model path is covered too


def test_dual_of_kernel_poly_isogeny_matches_oracle():
    e = invariants(-4, -5, -5, 0, 0)
    iso = velu_quotient(e, (Q(0), Q(0)), 5)
    iso_k = velu_quotient_from_kernel_poly(e, iso.kernel_x_poly, 5)
    assert dual_kernel_poly(iso_k) == oracle_dual_kernel_poly(iso_k) == dual_kernel_poly(iso)


def test_dual_of_dual_is_the_kernel():
    # the dual kernel does not split over Q, which the root-based oracle
    # cannot handle; the dual of the dual is phi again, up to isomorphism.
    # The dual kernels have denominator p, so dual_kernel_poly(iso_dual)
    # runs with D = p; its values are pinned as the Fraction arithmetic
    # computed them.
    pinned = {
        (5, 2): [-1, 0, 1],
        (5, -3): [-2, -1, 1],
        (5, 7): [8, -9, 1],
        (7, 2): [3, -1, -3, 1],
        (7, -3): [10472, -36, -42, 1],
    }
    for p, bs in ((5, [2, -3, 7]), (7, [2, -3])):
        for b, iso in _isogenies(p, bs):
            h_dual = dual_kernel_poly(iso)
            assert max(c.denominator for c in h_dual) == p
            with pytest.raises(InputError):
                _roots_of(h_dual)
            iso_dual = velu_quotient_from_kernel_poly(iso.codomain, h_dual, p)
            h_back = dual_kernel_poly(iso_dual)
            assert h_back == pinned[p, b]
            assert all(isinstance(c, Fraction) for c in h_back)
            # <P> again, on another model of E: rational roots, same quotient
            assert len(_roots_of(h_back)) == len(h_back) - 1
            back = velu_quotient_from_kernel_poly(iso_dual.codomain, h_back, p).codomain
            assert (back.c4, back.c6, back.disc) == (iso.codomain.c4, iso.codomain.c6, iso.codomain.disc)


def test_division_poly_matches_oracle():
    curves = [invariants(0, -1, 1, 0, 0), invariants(1, -1, 1, -3, 7), invariants(-4, -5, -5, 0, 0)]
    curves += [fiber(tate_family(p), b).curve for p, b in ((5, -3), (7, 2))]
    for e in curves:
        for n in (3, 5, 7, 9):
            psi = division_poly_x(e, n)
            assert all(type(c) is int for c in psi)
            assert psi == oracle_division_poly_x(e, n), (e.ainvs(), n)
            assert len(psi) - 1 == (n * n - 1) // 2 and psi[-1] == n


def test_closure_rejects_moved_root():
    for p, bs in ((5, [1, -2, 9]), (7, [2, -3])):
        for _, iso in _isogenies(p, bs):
            h = list(iso.kernel_x_poly)
            # move one kernel root off the subgroup: (x - x0) -> (x - x0 - 1)
            x0 = _roots_of(h)[0]
            z = sympy.symbols("z")
            hz = sympy.exquo(_sympy_poly(h, z), sympy.Poly(z - sympy.Rational(x0), z))
            moved = [Q(str(c)) for c in reversed((hz * sympy.Poly(z - sympy.Rational(x0) - 1, z)).all_coeffs())]
            assert not _stable_under_doubling(iso.domain, moved)
            assert not oracle_stable_under_doubling(iso.domain, moved)
