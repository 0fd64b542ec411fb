"""Dense polynomial helpers (rational, and the mod-q root finder), low degree first."""

import random
from fractions import Fraction

import pytest
import sympy

from shabound import polys

Q = Fraction
x = sympy.symbols("x")


def _to_sympy(f):
    return sum(sympy.Rational(c) * x**i for i, c in enumerate(f))


def _rand_poly(rng, deg, scale=10):
    return [Q(rng.randrange(-scale, scale + 1)) for _ in range(deg + 1)]


def test_divmod_and_gcd_vs_sympy():
    rng = random.Random(3)
    for _ in range(50):
        f = _rand_poly(rng, rng.randrange(1, 6))
        g = _rand_poly(rng, rng.randrange(1, 4))
        if not polys.qtrim(g):
            continue
        qq, rr = polys.qdivmod(f, g)
        assert polys.qtrim(polys.qadd(polys.qmul(qq, g), rr)) == polys.qtrim(f)
        # sympy's gcd leaves a zero remainder in both
        gcd = sympy.Poly(sympy.gcd(_to_sympy(f), _to_sympy(g)), x)
        want = [Q(str(c)) for c in reversed(gcd.all_coeffs())]
        assert polys.qdivides(want, f) and polys.qdivides(want, g)


def test_exact_division_and_divides():
    f = [Q(0), Q(-1), Q(1)]  # x^2 - x
    g = [Q(0), Q(1)]  # x
    assert polys.qdivides(g, f)
    assert polys.qexact_div(f, g) == [Q(-1), Q(1)]
    assert not polys.qdivides([Q(1), Q(1)], f)


def test_poly_from_roots_and_power_sums():
    roots = [Q(1), Q(2), Q(3)]
    f = polys.qpow_x_shift(roots)
    assert f == [Q(-6), Q(11), Q(-6), Q(1)]  # (x-1)(x-2)(x-3)
    ps = polys.power_sums(f, 3)  # p_1..p_3
    assert ps == [Q(6), Q(14), Q(36)]


def test_roots_modq():
    # b^2 - 11b - 1 mod 11 has roots 0 is wrong; check against brute force
    f = [-1, -11, 1]
    for q in (11, 5, 31, 41):
        got = polys.roots_modq(f, q)
        brute = [b for b in range(q) if (b * b - 11 * b - 1) % q == 0]
        assert got == brute
    assert polys.roots_modq(f, 11) == [1, 10]


def test_has_root_large_q():
    # x^2 + 1 has roots mod q iff q = 1 mod 4 (for odd prime q)
    for q in (10007, 10009):
        assert bool(polys.roots_modq([1, 0, 1], q)) == (q % 4 == 1)


def test_from_power_sums_inverts_power_sums():
    rng = random.Random(7)
    for _ in range(30):
        f = polys.qmonic(_rand_poly(rng, rng.randrange(1, 6)) + [Q(1)])
        assert polys.qfrom_power_sums(polys.power_sums(f, len(f) - 1)) == f


def test_invmod():
    rng = random.Random(11)
    for _ in range(30):
        m = _rand_poly(rng, rng.randrange(2, 6)) + [Q(1)]
        f = _rand_poly(rng, rng.randrange(0, 8))
        if sympy.degree(sympy.gcd(_to_sympy(f), _to_sympy(m)), x) != 0:
            continue
        assert polys.qrem(polys.qmul(f, polys.qinvmod(f, m)), m) == [Q(1)]
    with pytest.raises(ValueError):
        polys.qinvmod([Q(-1), Q(1)], [Q(-1), Q(0), Q(1)])


def test_divmod_ignores_trailing_zeros():
    f = [Q(9), Q(-10), Q(4), Q(0)]  # degree 2, stored with length 4
    assert polys.qdivmod(f, [Q(-9), Q(-9), Q(-4), Q(1)]) == ([], [Q(9), Q(-10), Q(4)])
