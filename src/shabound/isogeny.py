"""p-isogenies with rational kernel via Velu's formulas.

Two entry points: a kernel generated by a rational point of order p, or a
rational kernel x-polynomial of degree (p-1)/2 (for subgroups whose
points are irrational but Galois-stable).  Both go through one power-sum
form of Velu's formulas, and the dual kernel comes from traces in
Q[z]/(A), so nothing here needs the roots of a kernel polynomial.
Codomains come back globally minimal, with the factorization of their
discriminant, so discriminant valuations feed the descent classifier
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import polys
from .arith import Factorization
from .elliptic import (
    Curve,
    Point,
    Transformation,
    invariants,
    kernel_multiples,
    minimal_model,
    on_curve,
    transform_point,
)
from .errors import InputError

Q = Fraction


# ----------------------------------------------------- division polynomials

def division_poly_x(e: Curve, n: int) -> list[Fraction]:
    """For odd n: the full n-division polynomial as a polynomial in x.

    The recursion runs on the x-parts f_m, psi_m = f_m * (psi_2 if m even),
    kept in a memo for this call alone.
    """
    if n % 2 == 0:
        raise InputError("division_poly_x is for odd n")
    b2, b4, b6, b8 = e.b2, e.b4, e.b6, e.b8
    t_poly = [Q(b6), Q(2 * b4), Q(b2), Q(4)]  # psi_2^2 as a polynomial in x
    memo: dict[int, list[Fraction]] = {
        0: [],
        1: [Q(1)],
        2: [Q(1)],
        3: [Q(c) for c in [b8, 3 * b6, 3 * b4, b2, 3]],
        4: [Q(c) for c in [b4 * b8 - b6**2, b2 * b8 - b4 * b6, 10 * b8, 10 * b6, 5 * b4, b2, 2]],
    }

    def f(k):
        if k in memo:
            return memo[k]
        m, rem = divmod(k, 2)
        if rem:
            a = polys.qmul(f(m + 2), polys.qmul(f(m), polys.qmul(f(m), f(m))))
            b = polys.qmul(f(m - 1), polys.qmul(f(m + 1), polys.qmul(f(m + 1), f(m + 1))))
            t2 = polys.qmul(t_poly, t_poly)
            if m % 2 == 0:
                res = polys.qadd(polys.qmul(a, t2), polys.qscale(b, -1))
            else:
                res = polys.qadd(a, polys.qscale(polys.qmul(b, t2), -1))
        else:
            inner = polys.qadd(
                polys.qmul(f(m + 2), polys.qmul(f(m - 1), f(m - 1))),
                polys.qscale(polys.qmul(f(m - 2), polys.qmul(f(m + 1), f(m + 1))), -1),
            )
            res = polys.qmul(f(m), inner)
        memo[k] = res
        return res

    return f(n)


# ------------------------------------------------------------- isogeny data

@dataclass(frozen=True)
class IsogenyData:
    p: int
    domain: Curve
    codomain: Curve  # globally minimal
    to_minimal: Transformation  # Velu's (rational) output model -> codomain
    kernel_x_poly: tuple[Fraction, ...]  # monic, degree (p-1)/2
    kernel_points: tuple[tuple[Fraction, Fraction], ...] | None
    codomain_disc_factorization: Factorization  # of codomain.disc, from minimal_model


def _integralize(a1: Fraction, a2: Fraction, a3: Fraction, a4: Fraction, a6: Fraction):
    """Scale a rational model to an integral one; returns (curve, scale d).

    The scaling is the u = 1/d change of coordinates, so points move by
    (x, y) -> (d^2 x, d^3 y).
    """
    d = 1
    coeffs = (a1, a2, a3, a4, a6)
    weights = (1, 2, 3, 4, 6)
    while True:
        bad = [c for c, wt in zip(coeffs, weights) if (c * d**wt).denominator != 1]
        if not bad:
            break
        d *= lcm(*(int((c * d**wt).denominator) for c, wt in zip(coeffs, weights)))
    model = invariants(*(int(c * d**wt) for c, wt in zip(coeffs, weights)))
    return model, d


def _velu(e: Curve, p: int, h: list[Fraction], kernel_points) -> IsogenyData:
    """Velu's codomain from the power sums of the kernel polynomial h (y-free, p odd)."""
    d = len(h) - 1
    p1, p2, p3 = polys.power_sums(h, 3)
    t = 6 * p2 + e.b2 * p1 + d * e.b4
    w = 10 * p3 + 2 * e.b2 * p2 + 3 * e.b4 * p1 + d * e.b6
    raw, scale = _integralize(Q(e.a1), Q(e.a2), Q(e.a3), e.a4 - 5 * t, e.a6 - e.b2 * t - 7 * w)
    emin, tr, fac_min = minimal_model(raw)
    if scale != 1:
        # raw coordinates are (scale^2 x, scale^3 y) images of the Velu output
        tr = Transformation(tr.u / scale, tr.r / scale**2, tr.s / scale, tr.t / scale**3)
    return IsogenyData(p, e, emin, tr, tuple(h), kernel_points, fac_min)


def velu_quotient(e: Curve, pt: Point, p: int) -> IsogenyData:
    """The quotient isogeny E -> E/<P> for a rational point P of odd prime order p.

    The kernel is P, ..., ((p-1)/2)P, one representative per +-pair, from
    the walk that also checks the order.  h divides the p-division
    polynomial without a check: these multiples have distinct
    x-coordinates, each a root of psi_p.
    """
    reps = kernel_multiples(e, pt, p)
    if reps is None:
        raise InputError(f"kernel point must have exact order {p}")
    h = polys.qpow_x_shift([r[0] for r in reps])
    return _velu(e, p, h, tuple(reps))


def velu_quotient_from_kernel_poly(e: Curve, h: list[Fraction], p: int) -> IsogenyData:
    """Quotient by a rational subgroup given by its kernel x-polynomial.

    h must be monic of degree (p-1)/2, divide the p-division polynomial,
    and its root set must be stable under the doubling map (subgroup
    rationality check).
    """
    h = [Q(c) for c in h]
    if len(h) != (p - 1) // 2 + 1 or h[-1] != 1:
        raise InputError(f"kernel polynomial must be monic of degree {(p - 1) // 2}")
    if not polys.qdivides(h, division_poly_x(e, p)):
        raise InputError("kernel polynomial does not divide the p-division polynomial")
    if not _stable_under_doubling(e, h):
        raise InputError("kernel polynomial roots are not closed under doubling")
    return _velu(e, p, h, None)


def _stable_under_doubling(e: Curve, h: list[Fraction]) -> bool:
    """True iff x(2z) is a root of h for every root z of h.

    With x(2z) = num(z) / den(z), that is den^d * h(num / den) = 0 mod h(z),
    d = deg h.  For a squarefree h dividing psi_p this is closure of the
    root set, since doubling is injective on x-coordinates of E[p] - {O}.
    """
    b2, b4, b6, b8 = e.b2, e.b4, e.b6, e.b8
    num = polys.qrem([Q(-b8), Q(-2 * b6), Q(-b4), Q(0), Q(1)], h)
    den = polys.qrem([Q(b6), Q(2 * b4), Q(b2), Q(4)], h)
    # Horner in homogeneous form: acc = sum_{j >= i} h_j num^(j-i) den^(d-j)
    acc, den_pow = [h[-1]], [Q(1)]
    for c in reversed(h[:-1]):
        den_pow = polys.qrem(polys.qmul(den_pow, den), h)
        acc = polys.qadd(polys.qrem(polys.qmul(acc, num), h), polys.qscale(den_pow, c))
    return not acc


def push_point(iso: IsogenyData, pt: Point) -> Point:
    """Image of a rational point of the domain on the (minimal) codomain."""
    if not on_curve(iso.domain, pt):
        raise InputError(f"point {pt} is not on the isogeny domain")
    if pt is None:
        return None
    if polys.qeval(list(iso.kernel_x_poly), Q(pt[0])) == 0:
        return None
    if iso.kernel_points is None:
        raise InputError("push_point needs a kernel given by rational points")
    e = iso.domain
    a1, a3 = e.a1, e.a3
    a2, a4 = e.a2, e.a4
    x, y = Q(pt[0]), Q(pt[1])
    xx, yy = x, y
    for xq, yq in iso.kernel_points:
        gx = 3 * xq * xq + 2 * a2 * xq + a4 - a1 * yq
        gy = -2 * yq - a1 * xq - a3
        tq = 2 * gx - a1 * gy
        uq = gy * gy
        dxi = x - xq
        xx += tq / dxi + uq / dxi**2
        yy -= (
            uq * (2 * y + a1 * x + a3) / dxi**3
            + tq * (a1 * dxi + y - yq) / dxi**2
            + (a1 * uq - gx * gy) / dxi**2
        )
    image_raw = (xx, yy)
    return transform_point(image_raw, iso.to_minimal)


def dual_kernel_poly(iso: IsogenyData) -> list[Fraction]:
    """Kernel x-polynomial of the dual isogeny, on the minimal codomain model.

    The dual kernel is the image of E[p].  Its x-coordinates are the
    values of the x-map X = N / h^2 at the roots of A = psi_p / h, the
    x-coordinates of E[p] outside the kernel, each taken p times.  So
    their power sums are s_k = Tr(X^k) / p, with the trace of Q[z]/(A)
    read off A's own power sums, and Newton's identities turn s_1..s_d
    into the monic kernel polynomial (Bostan, Morain, Salvy, Schost 2008).
    """
    e, p = iso.domain, iso.p
    h = list(iso.kernel_x_poly)
    a_poly = polys.qexact_div(polys.qmonic(division_poly_x(e, p)), h)
    n = len(a_poly) - 1
    traces = [Q(n)] + polys.power_sums(a_poly, n - 1)  # Tr(z^i), i < n
    d_inv = polys.qinvmod(polys.qmul(h, h), a_poly)
    x_map = polys.qrem(polys.qmul(_velu_x_numerator(e, h, p), d_inv), a_poly)  # X = N / h^2 mod A
    sums, x_pow = [], [Q(1)]
    for _ in range(len(h) - 1):
        x_pow = polys.qrem(polys.qmul(x_pow, x_map), a_poly)
        sums.append(sum((c * t for c, t in zip(x_pow, traces)), Q(0)) / p)
    # move onto the minimal codomain model: x_min = (x_raw - r) / u^2
    return _compose_affine(polys.qfrom_power_sums(sums), iso.to_minimal)


def _velu_x_numerator(e: Curve, h: list[Fraction], p: int) -> list[Fraction]:
    """N with X = N / h^2 the Velu x-map, from h alone (Kohel's form).

    X = p x - 2 s_1 - t(x) h'/h - T(x) (h'/h)', with s_1 the sum of the
    roots, t = 6x^2 + b2 x + b4 and T = 4x^3 + b2 x^2 + 2 b4 x + b6.
    """
    b2, b4, b6 = e.b2, e.b4, e.b6
    dh, ddh = polys.qderiv(h), polys.qderiv(polys.qderiv(h))
    lin = [2 * h[-2], Q(p)]  # p x - 2 s_1 for monic h
    out = polys.qmul(lin, polys.qmul(h, h))
    out = polys.qadd(out, polys.qscale(polys.qmul([Q(b4), Q(b2), Q(6)], polys.qmul(dh, h)), -1))
    big_t = [Q(b6), Q(2 * b4), Q(b2), Q(4)]
    inner = polys.qadd(polys.qmul(ddh, h), polys.qscale(polys.qmul(dh, dh), -1))
    return polys.qadd(out, polys.qscale(polys.qmul(big_t, inner), -1))


def _compose_affine(h: list[Fraction], tr: Transformation) -> list[Fraction]:
    """Monic polynomial whose roots are (roots(h) - r) / u^2."""
    u2, r = tr.u**2, tr.r
    # h(u^2 X + r), renormalized monic
    out = [Q(0)]
    xpow = [Q(1)]
    shift = [r, u2]
    for c in h:
        out = polys.qadd(out, polys.qscale(xpow, c))
        xpow = polys.qmul(xpow, shift)
    return polys.qmonic(out)
