"""The hard-coded Tate-normal-form families against a symbolic derivation.

The oracle expands each family's discriminant in sympy, factors it into
irreducibles, and pins each factor's role by classifying a probe fiber
at a prime dividing only that factor.  It must reproduce
``search.tate_family`` exactly.
"""

from fractions import Fraction

import pytest
import sympy

from shabound import polys
from shabound.arith import is_prime
from shabound.descent import S1, S2, classify_primes
from shabound.elliptic import invariants
from shabound.errors import ClassifierDisagreement, IncompleteFactorization, SingularModel
from shabound.search import FactorPoly, FamilySpec, tate_family

Q = Fraction
b = sympy.symbols("b")


def _ainv_polys(p: int) -> tuple[tuple[int, ...], ...]:
    if p == 5:
        exprs = (1 - b, -b, -b, sympy.Integer(0), sympy.Integer(0))
    else:
        # Tate normal form for 7-torsion, parameter d: c = d^2 - d, b = d^3 - d^2
        c_expr = b**2 - b
        b_expr = b**3 - b**2
        exprs = (1 - c_expr, -b_expr, -b_expr, sympy.Integer(0), sympy.Integer(0))
    return tuple(
        tuple(int(c) for c in reversed(sympy.Poly(ex, b).all_coeffs())) for ex in exprs
    )


def _next_prime(n: int) -> int:
    n += 1
    while not is_prime(n):
        n += 1
    return n


def _probe_role(p: int, ainv_polys, fpoly_coeffs: tuple[int, ...]) -> str:
    """Classify one discriminant factor by probing an actual fiber.

    Finds a prime ell and a parameter value where only this factor
    vanishes mod ell and the reduction is split multiplicative, then asks
    the descent classifier which set ell landed in.
    """
    spec_tmp = FamilySpec(ainv_polys, ())
    ell = 2
    attempts = 0
    while attempts < 400:
        ell = _next_prime(ell)
        roots = polys.roots_modq(list(fpoly_coeffs), ell) if ell < 10**4 else []
        for b0 in roots:
            for shift in range(3):
                try:
                    e = invariants(*spec_tmp.ainvs_at(b0 + shift * ell))
                except SingularModel:
                    continue
                if e.disc % ell != 0:
                    continue
                try:
                    cls = classify_primes(e, (Q(0), Q(0)), p)
                except (ClassifierDisagreement, IncompleteFactorization):
                    continue
                if ell in cls.sets.s1:
                    return S1
                if ell in cls.sets.s2:
                    return S2
            attempts += 1
        attempts += 1
    raise AssertionError(f"could not determine the cusp role of factor {fpoly_coeffs}")


def derive_family(p: int) -> FamilySpec:
    ainv_polys = _ainv_polys(p)
    a1, a2, a3, a4, a6 = (
        sum(sympy.Integer(c) * b**i for i, c in enumerate(cs)) for cs in ainv_polys
    )
    b2 = a1**2 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3**2 + 4 * a6
    b8 = a1**2 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3**2 - a4**2
    disc = sympy.expand(-(b2**2) * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6)
    const, factors = sympy.factor_list(sympy.Poly(disc, b))
    assert const == 1  # fiber discriminants factor as the product of the factor polynomials
    fps = []
    for poly, mult in factors:
        coeffs = [int(c) for c in reversed(sympy.Poly(poly, b).all_coeffs())]
        if coeffs[-1] < 0:
            coeffs = [-c for c in coeffs]
        role = _probe_role(p, ainv_polys, tuple(coeffs))
        fps.append(FactorPoly(tuple(coeffs), int(mult), role))
    fps.sort(key=lambda f: (f.role, f.coeffs))
    return FamilySpec(ainv_polys, tuple(fps))


@pytest.mark.parametrize("p", [5, 7])
def test_family_table_matches_symbolic_derivation(p):
    assert tate_family(p) == derive_family(p)

