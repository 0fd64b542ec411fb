"""p-isogenies with rational kernel via Velu's formulas.

Two entry points: a kernel generated by a rational point of order p, or a
rational kernel x-polynomial of degree (p-1)/2 (for subgroups whose
points are irrational but Galois-stable).  Both go through one power-sum
form of Velu's formulas, and the dual kernel polynomial h' is read off
the leading coefficients of h'(X) h^(p-1) = psi_p / (p h), X = N / h^2
the x-map, so nothing here needs the roots of a kernel polynomial.
Division polynomials, the dual-kernel and closure arithmetic and Velu's
formulas run over Z, once a kernel polynomial is rescaled to a monic
integral one; Fractions appear only where a kernel polynomial or a model
comes in or goes out.
Codomains come back globally minimal, with the factorization of their
discriminant, so discriminant valuations feed the descent classifier
directly; that factorization starts from hinted primes of the domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from . import polys
from .arith import _TRIAL_LIMIT, Factorization, factor_with_hints, is_prime
from .elliptic import (
    Curve,
    Point,
    Transformation,
    invariants,
    kernel_multiples,
    minimal_model,
)
from .errors import InputError

Q = Fraction


# ----------------------------------------------------- division polynomials

def division_poly_x(e: Curve, n: int) -> list[int]:
    """For odd n: the full n-division polynomial as a polynomial in x, over Z.

    The recursion runs on the x-parts f_m, psi_m = f_m * (psi_2 if m even),
    kept in a memo for this call alone.
    """
    if n % 2 == 0:
        raise InputError("division_poly_x is for odd n")
    b2, b4, b6, b8 = e.b2, e.b4, e.b6, e.b8
    t2 = polys.mul(_psi2_squared(e), _psi2_squared(e))  # psi_2^4
    memo: dict[int, list[int]] = {
        0: [],
        1: [1],
        2: [1],
        3: [b8, 3 * b6, 3 * b4, b2, 3],
        4: [b4 * b8 - b6**2, b2 * b8 - b4 * b6, 10 * b8, 10 * b6, 5 * b4, b2, 2],
    }

    def f(k):
        if k in memo:
            return memo[k]
        m, rem = divmod(k, 2)
        if rem:
            a = polys.mul(f(m + 2), polys.mul(f(m), polys.mul(f(m), f(m))))
            b = polys.mul(f(m - 1), polys.mul(f(m + 1), polys.mul(f(m + 1), f(m + 1))))
            if m % 2 == 0:
                res = polys.sub(polys.mul(a, t2), b)
            else:
                res = polys.sub(a, polys.mul(b, t2))
        else:
            inner = polys.sub(
                polys.mul(f(m + 2), polys.mul(f(m - 1), f(m - 1))),
                polys.mul(f(m - 2), polys.mul(f(m + 1), f(m + 1))),
            )
            res = polys.mul(f(m), inner)
        memo[k] = res
        return res

    return f(n)


def _psi2_squared(e: Curve) -> list[int]:
    """psi_2^2 = 4x^3 + b2 x^2 + 2 b4 x + b6."""
    return [e.b6, 2 * e.b4, e.b2, 4]


def _scaled(f: list, c: int) -> list[int]:
    """c^deg f * f(y / c), the polynomial whose roots are c times those of f.

    Callers choose c so that each denominator divides its power of c.
    """
    deg = len(f) - 1
    return [a.numerator * (c ** (deg - i) // a.denominator) for i, a in enumerate(f)]


def _denominator(h: list[Fraction]) -> int:
    return lcm(*(a.denominator for a in h))


# ------------------------------------------------------------- isogeny data

@dataclass(frozen=True)
class IsogenyData:
    p: int
    domain: Curve
    codomain: Curve  # globally minimal
    to_minimal: Transformation  # Velu's (rational) output model -> codomain
    kernel_x_poly: tuple[Fraction, ...]  # monic, degree (p-1)/2
    codomain_disc_factorization: Factorization  # of codomain.disc, from minimal_model


def _integralize(coeffs: tuple) -> tuple[Curve, int]:
    """Scale a rational model (a1, a2, a3, a4, a6) to an integral one; returns (curve, scale d).

    The scaling is the u = 1/d change of coordinates, so points move by
    (x, y) -> (d^2 x, d^3 y).  Integer coefficients come back with d = 1
    and no Fraction arithmetic.
    """
    d = 1
    weights = (1, 2, 3, 4, 6)
    while True:
        dens = [(c * d**wt).denominator for c, wt in zip(coeffs, weights)]
        if all(den == 1 for den in dens):
            break
        d *= lcm(*dens)
    model = invariants(*(int(c * d**wt) for c, wt in zip(coeffs, weights)))
    return model, d


def _velu(
    e: Curve, p: int, kernel: tuple, h_d: list[int], big_d: int, hints: tuple[int, ...]
) -> IsogenyData:
    """Velu's codomain from the power sums of the kernel polynomial (y-free, p odd).

    h_d = D^d kernel(y / D) is the kernel polynomial made monic integral,
    so its power sums are D^k times the kernel's, and D^2 t and D^3 w are
    integers: a4 and a6 of the raw model are one Fraction each, and
    integers for an integral kernel (D = 1), which _integralize returns
    at once.  The raw codomain's discriminant is factored with the hints
    (primes of the domain's discriminant) and p first: isogenous curves
    share their bad primes.
    """
    d = len(h_d) - 1
    b2, b4, b6 = e.b2, e.b4, e.b6
    p1, p2, p3 = polys.power_sums(h_d, 3)
    d2, d3 = big_d**2, big_d**3
    t = 6 * p2 + b2 * big_d * p1 + d * b4 * d2  # D^2 t
    w = 10 * p3 + 2 * b2 * big_d * p2 + 3 * b4 * d2 * p1 + d * b6 * d3  # D^3 w
    a4, a6 = e.a4 * d2 - 5 * t, e.a6 * d3 - b2 * big_d * t - 7 * w
    if big_d != 1:
        a4, a6 = Q(a4, d2), Q(a6, d3)
    raw, scale = _integralize((e.a1, e.a2, e.a3, a4, a6))
    if is_prime(p):  # a point of order 9 also has a Velu quotient
        hints = (*hints, p)
    # hints above the trial limit would complete factorizations that factor() gives up on
    fac_raw = factor_with_hints(raw.disc, tuple(q for q in hints if q <= _TRIAL_LIMIT))
    emin, tr, fac_min = minimal_model(raw, fac_raw)
    if scale != 1:
        # raw coordinates are (scale^2 x, scale^3 y) images of the Velu output
        tr = Transformation(tr.u / scale, tr.r / scale**2, tr.s / scale, tr.t / scale**3)
    return IsogenyData(p, e, emin, tr, kernel, fac_min)


def velu_quotient(e: Curve, pt: Point, p: int, hints: tuple[int, ...] = ()) -> IsogenyData:
    """The quotient isogeny E -> E/<P> for a rational point P of odd prime order p.

    The kernel is P, ..., ((p-1)/2)P, one representative per +-pair, from
    the integer walk that also checks the order, so the kernel polynomial
    h is built in Z[x].  h divides the p-division polynomial without a
    check: these multiples have distinct x-coordinates, each a root of
    psi_p.  hints are primes of the discriminant of e (see _velu).
    """
    reps = kernel_multiples(e, pt, p)
    if reps is None:
        raise InputError(f"kernel point must have exact order {p}")
    h = polys.from_roots([x for x, _ in reps])
    return _velu(e, p, tuple(map(Q, h)), h, 1, hints)


def velu_quotient_from_kernel_poly(
    e: Curve, h: list[Fraction], p: int, hints: tuple[int, ...] = ()
) -> IsogenyData:
    """Quotient by a rational subgroup given by its kernel x-polynomial.

    h must be monic of degree (p-1)/2, divide the p-division polynomial,
    and its root set must be stable under the doubling map (subgroup
    rationality check).  Both checks and Velu's formulas run over Z after
    x = y / D, D the lcm of h's denominators, which makes
    h_D = D^d h(y / D) monic integral.  hints are primes of the
    discriminant of e (see _velu).
    """
    h = [Q(c) for c in h]
    if len(h) != (p - 1) // 2 + 1 or h[-1] != 1:
        raise InputError(f"kernel polynomial must be monic of degree {(p - 1) // 2}")
    big_d = _denominator(h)
    h_d = _scaled(h, big_d)
    if polys.divmod_monic(_scaled(division_poly_x(e, p), big_d), h_d)[1]:
        raise InputError("kernel polynomial does not divide the p-division polynomial")
    if not _stable_under_doubling(e, h_d, big_d):
        raise InputError("kernel polynomial roots are not closed under doubling")
    return _velu(e, p, tuple(h), h_d, big_d, hints)


def _stable_under_doubling(e: Curve, h_d: list[int], big_d: int) -> bool:
    """True iff x(2z) is a root of h for every root z of h, h_d = D^d h(y / D).

    With x(2z) = num(z) / den(z), that is den^d * h(num / den) = 0 mod h(z),
    d = deg h.  For a squarefree h dividing psi_p this is closure of the
    root set, since doubling is injective on x-coordinates of E[p] - {O}.
    In y = D z the same test reads sum_j h_D[j] num_D^j den_D^(d-j) = 0
    mod h_D, with num_D, den_D the rescaled num, den: all over Z.
    """
    num = polys.divmod_monic(_scaled([-e.b8, -2 * e.b6, -e.b4, 0, 1], big_d), h_d)[1]
    den = polys.divmod_monic(_scaled(_psi2_squared(e), big_d), h_d)[1]
    # Horner in homogeneous form: acc = sum_{j >= i} h_j num^(j-i) den^(d-j)
    acc, den_pow = [h_d[-1]], [1]
    for c in reversed(h_d[:-1]):
        den_pow = polys.divmod_monic(polys.mul(den_pow, den), h_d)[1]
        acc = polys.add(polys.divmod_monic(polys.mul(acc, num), h_d)[1], polys.scale(den_pow, c))
    return not acc


def dual_kernel_poly(iso: IsogenyData) -> list[Fraction]:
    """Kernel x-polynomial of the dual isogeny, on the minimal codomain model.

    The dual kernel is the image of E[p].  phi maps E[p] - ker p-to-1
    onto ker(phi-hat) - {O}, so for each root x(R) of the dual kernel
    polynomial h', X - x(R) has p simple zeros, where X = N / h^2 is the
    x-map: the x-coordinates of E[p] outside the kernel, the roots of
    A = psi_p / (p h).  Both sides being monic, h'(X) h^(p-1) = A exactly
    (the setting of Bostan, Morain, Salvy, Schost 2008).

    This runs over Z after the change of variable y = c x with c = p D,
    D the lcm of h's denominators: h_c = c^d h(y / c) and
    A_c = c^(pd) A(y / c) are then monic integral (p x is integral over Z
    at every root of psi_p), and X = N_c / (c h_c^2) with N_c monic
    integral of degree 2d + 1.  For H(Y) = c^d h'(Y / c) the identity
    reads sum_j H_j T_j = A_c, T_j = N_c^j h_c^(2(d-j)) monic of degree
    2d^2 + j, so H is integral: a triangular solve on the top d + 1
    coefficients, which need only the top d + 1 of N_c and h_c^2, gives
    it from H_d = 1 down.  The full quotient A_c is still taken, as the
    check that h divides psi_p.
    """
    e, p = iso.domain, iso.p
    h = list(iso.kernel_x_poly)
    if not h or h[-1] != 1:
        raise InputError("kernel polynomial must be monic")
    d = len(h) - 1
    c = p * _denominator(h)
    h_c = _scaled(h, c)
    a_c = polys.exact_quo_monic([x // p for x in _scaled(division_poly_x(e, p), c)], h_c)

    def top(f):  # the top d + 1 coefficients, highest first: a series in 1 / y
        return f[: -d - 2 : -1]

    n_top, hh_top = top(_velu_x_numerator(e, h_c, p, c)), top(polys.mul(h_c, h_c))
    one = [1] + [0] * d
    hh_pows = [one]
    for _ in range(d - 1):
        hh_pows.append(_mul_top(hh_pows[-1], hh_top))
    n_pow, t_tops = one, {}  # t_tops[j]: the top of T_j, j >= 1
    for j in range(1, d + 1):
        n_pow = _mul_top(n_pow, n_top)
        t_tops[j] = _mul_top(n_pow, hh_pows[d - j])
    a_top, big_h = top(a_c), [0] * d + [1]
    for j in range(d - 1, -1, -1):  # the coefficient of y^(2d^2 + j)
        big_h[j] = a_top[d - j] - sum(big_h[i] * t_tops[i][i - j] for i in range(j + 1, d + 1))
    tr = iso.to_minimal
    if tr.u == 1 and tr.r == 0:  # Velu's model is minimal: 77 of the first 80 p = 5 fibers
        return [Q(hj, c ** (d - j)) for j, hj in enumerate(big_h)]
    sums = [Q(s, c**k) for k, s in enumerate(polys.power_sums(big_h, d), 1)]
    return polys.qfrom_power_sums(_shift_power_sums(sums, tr))


def _mul_top(f: list[int], g: list[int]) -> list[int]:
    """The top len(f) coefficients of f g, highest first, from the top len(f) of f and of g."""
    return [sum(f[i] * g[k - i] for i in range(k + 1)) for k in range(len(f))]


def _velu_x_numerator(e: Curve, h_c: list[int], p: int, c: int) -> list[int]:
    """N_c with X = N_c / (c h_c^2) the Velu x-map at x = y / c (Kohel's form).

    X = p x - 2 s_1 - t(x) h'/h - T(x) (h'/h)', with s_1 the sum of the
    roots of h, t = 6x^2 + b2 x + b4 and T = 4x^3 + b2 x^2 + 2 b4 x + b6;
    N_c = c^(2d+1) X h^2 in terms of h_c, t_c = c^2 t and T_c = c^3 T.
    """
    dh, ddh = polys.deriv(h_c), polys.deriv(polys.deriv(h_c))
    lin = [2 * h_c[-2], p]  # c (p x - 2 s_1) for monic h
    out = polys.mul(lin, polys.mul(h_c, h_c))
    out = polys.sub(out, polys.mul(_scaled([e.b4, e.b2, 6], c), polys.mul(dh, h_c)))
    inner = polys.sub(polys.mul(ddh, h_c), polys.mul(dh, dh))
    return polys.sub(out, polys.mul(_scaled(_psi2_squared(e), c), inner))


def _shift_power_sums(sums: list[Fraction], tr: Transformation) -> list[Fraction]:
    """Power sums of the roots moved onto the minimal model, x_min = (x_raw - r) / u^2.

    sums holds s_1..s_d of d roots; s_k of the moved roots is
    sum_j C(k, j) (-r)^(k-j) s_j / u^(2k), with s_0 = d.
    """
    full = [len(sums), *sums]
    u2 = tr.u * tr.u
    return [
        sum(comb(k, j) * (-tr.r) ** (k - j) * full[j] for j in range(k + 1)) / u2**k
        for k in range(1, len(full))
    ]
