"""Dense polynomial helpers (over Z or Q, over Z modulo a monic, and the mod-q root finder), low degree first."""

import random
from fractions import Fraction

import pytest
import sympy

from shabound import polys
from shabound.errors import InputError

Q = Fraction
x = sympy.symbols("x")


def _to_sympy(f):
    return sympy.Poly([sympy.Rational(c) for c in reversed(f)] or [0], x)


def _from_sympy(g):
    return polys.trim([int(c) for c in reversed(g.all_coeffs())])


def _rand_poly(rng, deg, scale=10):
    return [Q(rng.randrange(-scale, scale + 1)) for _ in range(deg + 1)]


def _rand_int_poly(rng, deg, scale=10**6):
    """Random integer list with zeros and, one time in four, a trailing zero."""
    f = [rng.choice((0, rng.randrange(-scale, scale + 1))) for _ in range(deg + 1)]
    return f + [0] * (rng.random() < 0.25)


def _rand_monic(rng, deg, scale=10**6):
    return _rand_int_poly(rng, deg - 1, scale)[:deg] + [1]


def test_mul_vs_sympy():
    rng = random.Random(5)
    for _ in range(50):
        f = _rand_int_poly(rng, rng.randrange(0, 9))
        g = _rand_int_poly(rng, rng.randrange(0, 9))
        assert polys.mul(f, g) == _from_sympy(_to_sympy(f) * _to_sympy(g))
    assert polys.mul([], [1, 2]) == []


def test_divmod_and_gcd_vs_sympy():
    rng = random.Random(3)
    for _ in range(50):
        f = _rand_int_poly(rng, rng.randrange(0, 12))
        a = _rand_monic(rng, rng.randrange(1, 6))
        quot, rem = polys.divmod_monic(f, a)
        assert quot == _from_sympy(sympy.quo(_to_sympy(f), _to_sympy(a)))
        assert rem == _from_sympy(sympy.rem(_to_sympy(f), _to_sympy(a)))
        # a common monic factor w of f = w u and g = w v (v monic) is what
        # sympy's gcd finds, and it divides both exactly
        w, u, v = _rand_monic(rng, 2, 50), _rand_int_poly(rng, 3, 50), _rand_monic(rng, 3, 50)
        f, g = polys.mul(w, u), polys.mul(w, v)
        gcd = _from_sympy(sympy.gcd(_to_sympy(f), _to_sympy(g)))
        assert gcd[-1] == 1
        for h in (f, g):
            assert polys.exact_quo_monic(h, gcd) == _from_sympy(sympy.quo(_to_sympy(h), _to_sympy(gcd)))


def test_exact_division_and_divides():
    f = [0, -1, 1]  # x^2 - x
    assert polys.exact_quo_monic(f, [0, 1]) == [-1, 1]
    with pytest.raises(InputError):
        polys.exact_quo_monic(f, [1, 1])


def test_poly_from_roots_and_power_sums():
    roots = [Q(1), Q(2), Q(3)]
    f = polys.from_roots(roots)
    assert f == [Q(-6), Q(11), Q(-6), Q(1)]  # (x-1)(x-2)(x-3)
    assert all(type(c) is Q for c in f[:-1])
    # integer roots stay in Z
    g = polys.from_roots([1, 2, 3])
    assert g == f and all(type(c) is int for c in g)
    assert polys.from_roots([Q(1, 2), Q(-2, 3)]) == [Q(-1, 3), Q(1, 6), 1]
    assert polys.from_roots([]) == [1]
    ps = polys.power_sums(f, 3)  # p_1..p_3
    assert ps == [Q(6), Q(14), Q(36)]
    # over Z, and past the degree
    assert polys.power_sums([-6, 11, -6, 1], 5) == [6, 14, 36, 98, 276]


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
        f = _rand_poly(rng, rng.randrange(1, 6)) + [Q(1)]
        assert polys.qfrom_power_sums(polys.power_sums(f, len(f) - 1)) == f


def test_divmod_ignores_trailing_zeros():
    f = [9, -10, 4, 0]  # degree 2, stored with length 4
    assert polys.divmod_monic(f, [-9, -9, -4, 1]) == ([], [9, -10, 4])
