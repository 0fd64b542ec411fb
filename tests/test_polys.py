"""Dense polynomial helpers (over Z or Q, over Z modulo a monic, and the mod-q root finder), low degree first."""

import random
from fractions import Fraction

import pytest
import sympy
from conftest import poly_mul, poly_trim

from shabound import isogeny, polys
from shabound.descent import classify_primes
from shabound.search import fiber, tate_family

Q = Fraction
x = sympy.symbols("x")


def _to_sympy(f):
    return sympy.Poly([sympy.Rational(c) for c in reversed(f)] or [0], x)


def _from_sympy(g):
    return poly_trim([int(c) for c in reversed(g.all_coeffs())])


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
        assert poly_mul(f, g) == _from_sympy(_to_sympy(f) * _to_sympy(g))
    assert poly_mul([], [1, 2]) == []


def _rem(f, a):
    """The remainder of f by the monic a, from the residue ring's reduction, trimmed."""
    return poly_trim(polys.residue_ring(a)[0](f))


def test_divmod_and_gcd_vs_sympy():
    # the reduction is the remainder of division by a monic polynomial
    rng = random.Random(3)
    for _ in range(50):
        f = _rand_int_poly(rng, rng.randrange(0, 12))
        a = _rand_monic(rng, rng.randrange(1, 6))
        assert _rem(f, a) == _from_sympy(sympy.rem(_to_sympy(f), _to_sympy(a)))
        # a common monic factor w of f = w u and g = w v (v monic) is what
        # sympy's gcd finds, and it divides both exactly
        w, u, v = _rand_monic(rng, 2, 50), _rand_int_poly(rng, 3, 50), _rand_monic(rng, 3, 50)
        f, g = poly_mul(w, u), poly_mul(w, v)
        gcd = _from_sympy(sympy.gcd(_to_sympy(f), _to_sympy(g)))
        assert gcd[-1] == 1
        for h in (f, g):
            assert _rem(h, gcd) == []


def _dual_check_moduli():
    """The h_k of p = 5 and p = 7 dual checks: the rings Z[y] / (h_k) the scan builds on E'."""
    out = []
    for p, b in ((5, 2), (5, -32), (7, 2), (7, 5)):
        fib = fiber(tate_family(p), b)
        iso = classify_primes(fib.curve, fib.point, p, fib.disc_factorization).isogeny
        out.append(isogeny._integral_kernel(iso.codomain, *isogeny.scaled_dual_kernel(iso))[1])
    return out


def test_residue_ring_vs_sympy_rem():
    # residues keep deg a coefficients, zeros included; degrees 2 and 3 take
    # the written-out reduction and product, the others the loops, on small
    # numbers, on numbers up to 2^256, and on the moduli of real dual checks
    rng = random.Random(11)
    cases = [(n, 10**6) for n in (1, 2, 3, 4, 6, 5, 7)] + [(n, 2**256) for n in (2, 3, 4, 5, 7)]
    cases += [(h_k, 2**256) for h_k in _dual_check_moduli()]
    for a, scale in cases:
        if isinstance(a, int):
            a = _rand_monic(rng, a, scale)
        n = len(a) - 1
        reduce, mul = polys.residue_ring(a)
        for _ in range(20):
            f, g = _rand_int_poly(rng, rng.randrange(0, 12), scale), _rand_int_poly(rng, rng.randrange(0, 12), scale)
            want = _from_sympy(sympy.rem(_to_sympy(f) * _to_sympy(g), _to_sympy(a)))
            got = mul(reduce(f), reduce(g))
            assert len(got) == n and poly_trim(got) == want, (n, f, g)


def test_exact_division_and_divides():
    f = [0, -1, 1]  # x^2 - x
    assert polys.residue_ring([0, 1])[0](f) == [0]
    assert polys.residue_ring([1, 1])[0](f) == [2]


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


def _brute_roots(f, q):
    return [b for b in range(q) if polys.evaluate(f, b) % q == 0]


def test_roots_modq_matches_brute_force_below_2000():
    # every prime q < 2000, on the family polynomials and on seeded random
    # polynomials of degree <= 3 (repeated roots and f = 0 mod q included)
    from shabound.arith import is_prime
    from shabound.search import tate_family

    family = [list(fp.coeffs) for p in (5, 7) for fp in tate_family(p).factor_polys]
    rng = random.Random(2000)
    checked = 0
    for q in filter(is_prime, range(2, 2000)):
        cases = family + [[rng.randrange(-3 * q, 3 * q) for _ in range(rng.randrange(1, 5))] for _ in range(4)]
        cases += [[-r * r, 2 * r, -1] for r in (rng.randrange(q),)]  # -(x - r)^2
        for f in cases:
            if all(c % q == 0 for c in f):
                with pytest.raises(ValueError):
                    polys.roots_modq(f, q)
                continue
            assert polys.roots_modq(f, q) == _brute_roots(f, q), (f, q)
            checked += 1
    assert checked > 3000
    with pytest.raises(ValueError):
        polys.roots_modq([7, -14, 21], 7)


def test_has_root_large_q():
    # x^2 + 1 has roots mod q iff q = 1 mod 4 (for odd prime q)
    for q in (10007, 10009):
        assert bool(polys.roots_modq([1, 0, 1], q)) == (q % 4 == 1)


def test_divmod_ignores_trailing_zeros():
    f = [9, -10, 4, 0]  # degree 2, stored with length 4
    assert polys.residue_ring([-9, -9, -4, 1])[0](f) == [9, -10, 4]
