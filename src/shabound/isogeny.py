"""p-isogenies with rational kernel via Velu's formulas.

Two entry points: a kernel generated by a rational point of order p, or a
rational kernel x-polynomial of degree (p-1)/2 (for subgroups whose
points are irrational but Galois-stable).  Both go through one power-sum
form of Velu's formulas, the sums read off a kernel walk's x-coordinates
or, by Newton's identities, off a kernel polynomial.  The dual kernel
polynomial h' is read off the leading coefficients of
h'(X) h^(p-1) = psi_p / (p h), the top of the x-map X = N / h^2 coming
from the same power sums, so nothing here needs the roots of a kernel
polynomial.  One division-polynomial recursion, run from a cached
plan of products for each n, serves every ring: series in 1 / x
truncated to the few leading coefficients the dual kernel reads, and
Z[x] / (h) for the kernel checks.  Those run in one pass over that
ring: psi_p mod h must vanish, then the closure test under doubling
reads psi_2^2, psi_2^4 and psi_3 off the same recursion's registers.
Both checks run only where a kernel polynomial enters (a caller's, or
the dual kernel on E'), and with Velu's formulas over Z on one rescaled
pair (_integral_kernel:
a_i -> D^i a_i and h -> D^(2d) h(y / D^2), D the lcm of h's
denominators, 1 for a kernel point).  So the dual check stays in Z, the
solve giving h' as the ints (H, kappa).  The changes of model that
minimal_model returns are ints too.  Fractions appear only where a
caller's kernel polynomial comes in (its to_minimal carries D back) or
a kernel polynomial goes out, as in dual_kernel_poly's return.
Codomains come back globally minimal, with the factorization of their
discriminant, so discriminant valuations feed the descent classifier
directly; that factorization starts from hinted primes of the domain.
velu_model_from_scaled_kernel skips both for a caller that needs the
codomain only up to isomorphism: the dual check.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, partial
from fractions import Fraction
from math import gcd, lcm

from . import polys
from .arith import _TRIAL_LIMIT, factor_with_hints, is_prime
from .elliptic import (
    Curve,
    Point,
    Transformation,
    invariants,
    kernel_multiples,
    minimal_model,
    scaled,
)
from .errors import InputError

Q = Fraction


# ----------------------------------------------------- division polynomials

def division_poly_x(e: Curve, n: int, ring, base: list | None = None) -> list[int]:
    """For odd n >= 3: the n-division polynomial as a polynomial in x, over Z.

    One recursion on the x-parts f_m, psi_m = f_m * (psi_2 if m even), in
    ring, a pair (map from Z[x], product there) such as list and the full
    product for Z[x] itself, or:
    - polys.residue_ring(h), h monic over Z: Z[x] / (h) as in Schoof's
      algorithm (Math. Comp. 1985), giving psi_n mod h as deg h
      coefficients;
    - _series_ring(K), series in 1 / x truncated to K terms, giving the top
      K coefficients of psi_n, highest first.  Each step multiplies, or
      subtracts two terms of one degree whose difference keeps a nonzero
      leading coefficient (f_k leads with k, or k / 2 for even k), so the
      truncation is exact.
    The steps come from _division_plan(n), run on registers that start as
    _division_base(e, ring); base is that list, for a caller that reads
    its psi_2^2, psi_2^4 and f_3 too.
    """
    if n % 2 == 0 or n < 3:
        raise InputError(f"division_poly_x is for odd n >= 3, got {n}")
    steps, out = _division_plan(n)
    mul = ring[1]
    regs = _division_base(e, ring) if base is None else list(base)
    for a, b, minus in steps:
        regs.append([x - y for x, y in zip(regs[a], regs[b])] if minus else mul(regs[a], regs[b]))
    return regs[out]


def _division_base(e: Curve, ring) -> list:
    """The recursion's first registers in ring: psi_2^2 = 4x^3 + b2 x^2 + 2 b4 x + b6,
    psi_2^4, f_3 = psi_3 and f_4 = psi_4 / psi_2."""
    embed, mul = ring
    b2, b4, b6, b8 = e.b2, e.b4, e.b6, e.b8
    psi2_sq = embed([b6, 2 * b4, b2, 4])
    return [
        psi2_sq,
        mul(psi2_sq, psi2_sq),
        embed([b8, 3 * b6, 3 * b4, b2, 3]),
        embed([b4 * b8 - b6**2, b2 * b8 - b4 * b6, 10 * b8, 10 * b6, 5 * b4, b2, 2]),
    ]


@lru_cache(maxsize=None)
def _division_plan(n: int) -> tuple[tuple[tuple[int, int, bool], ...], int]:
    """The recursion to f_n as steps (a, b, minus) on a register list, and
    the register that ends up holding f_n.

    A step appends regs[a] - regs[b] if minus, else regs[a] * regs[b].
    Registers 0-3 are _division_base's psi_2^2, psi_2^4, f_3, f_4.  On the
    x-parts the recursion reads
        f_(2m+1) = f_(m+2) f_m^3 t - f_(m-1) f_(m+1)^3       (m even),
        f_(2m+1) = f_(m+2) f_m^3 - f_(m-1) f_(m+1)^3 t       (m odd),
        f_(2m) = f_m (f_(m+2) f_(m-1)^2 - f_(m-2) f_(m+1)^2),
    t = psi_2^4.  A product of several factors is built one factor at a
    time, t first and then by index, and each partial product is made
    once, so powers and partial products are shared between steps
    (t f_4 and f_3^3 at n = 7).  f_1 = f_2 = 1 enter no product.
    """
    regs: dict[tuple[int, ...], int] = {(0,): 1, (3,): 2, (4,): 3}  # factors -> register; 0 is psi_2^4
    steps: list[tuple[int, int, bool]] = []

    def step(a: int, b: int, minus: bool) -> int:
        steps.append((a, b, minus))
        return len(steps) + 3

    def product(factors: tuple[int, ...]) -> int:
        key = tuple(sorted(k for k in factors if k not in (1, 2)))
        if key not in regs:
            if len(key) == 1:
                m = key[0] // 2
                if key[0] % 2:
                    t_lead, t_rest = ((0,), ()) if m % 2 == 0 else ((), (0,))
                    lead, rest = product((m + 2, m, m, m, *t_lead)), product((m - 1, m + 1, m + 1, m + 1, *t_rest))
                    regs[key] = step(lead, rest, True)
                else:
                    inner = step(product((m + 2, m - 1, m - 1)), product((m - 2, m + 1, m + 1)), True)
                    regs[key] = step(product((m,)), inner, False)
            else:
                regs[key] = step(product(key[:-1]), product(key[-1:]), False)
        return regs[key]

    out = product((n,))
    return tuple(steps), out


def _integral_kernel(e: Curve, big_h: list[int], kappa: int) -> tuple[Curve, list[int]]:
    """For h(y) = kappa^-d H(kappa y), H monic integral: the model scaled by
    a_i -> D^i a_i and h_D = D^(2d) h(y / D^2), D the lcm of h's denominators.

    The scaled model's x-coordinates are D^2 x, so h_D, monic integral,
    cuts out on it the points h cuts out on e.  This is the one rescaling
    of a kernel polynomial: the kernel checks and Velu's formulas run on
    this pair, made without a Fraction.  For a kernel of E[p], D is a
    power of p, since p x is integral at every root of psi_p.
    """
    d = len(big_h) - 1
    dens = [kappa ** (d - j) for j in range(d + 1)]
    big_d = lcm(*(b // gcd(a, b) for a, b in zip(big_h, dens)))
    if big_d != 1:
        e = scaled(e, big_d)
    return e, [a * big_d ** (2 * (d - j)) // b for j, (a, b) in enumerate(zip(big_h, dens))]


def _scaled(f: list, c: int) -> list[int]:
    """c^deg f * f(y / c), the polynomial whose roots are c times those of f.

    Callers choose c so that each denominator divides its power of c.
    """
    deg = len(f) - 1
    return [a.numerator * (c ** (deg - i) // a.denominator) for i, a in enumerate(f)]


def _denominator(h: list[Fraction]) -> int:
    return lcm(*(a.denominator for a in h))


# ------------------------------------------------------------- isogeny data

class IsogenyData(namedtuple("IsogenyData", [
    "p",  # int
    "domain",  # Curve
    "codomain",  # Curve, globally minimal
    "to_minimal",  # Transformation, Velu's output model -> codomain; ints from a kernel point
    "kernel_x_poly",  # tuple, monic, degree (p-1)/2; ints from a kernel point, else Fractions
    "codomain_disc_factorization",  # Factorization of codomain.disc, from minimal_model
])):
    """A p-isogeny with its minimal codomain; its kernel_x_poly divides psi_p of its domain.

    _velu is the one constructor, reached from the kernel_multiples walk
    (velu_quotient) or after the checks of velu_model_from_scaled_kernel
    (velu_quotient_from_kernel_poly), so the divisibility was proved where
    the kernel came in.
    """

    __slots__ = ()


def _velu_model(e: Curve, d: int, p1: int, p2: int, p3: int) -> Curve:
    """Velu's codomain of e / G on the integral model e, from the first three
    power sums p1, p2, p3 of the d kernel x-coordinates, one per +-pair of G - {O}.

    The formula is y-free (p odd).  The sums are integers, whether read off
    a kernel walk's integer x-coordinates or, by Newton's identities, off a
    monic integral kernel polynomial, so t and w, and the model, are integral.
    """
    b2, b4, b6 = e.b2, e.b4, e.b6
    t = 6 * p2 + b2 * p1 + d * b4
    w = 10 * p3 + 2 * b2 * p2 + 3 * b4 * p1 + d * b6
    return invariants(e.a1, e.a2, e.a3, e.a4 - 5 * t, e.a6 - b2 * t - 7 * w)


def _velu(e: Curve, p: int, kernel: tuple, raw: Curve, big_d: int, hints: tuple[int, ...]) -> IsogenyData:
    """Velu's codomain of e / <kernel> made globally minimal, with its discriminant factored.

    raw is Velu's integral model on the pair of _integral_kernel at scale
    big_d (on e itself for a kernel point, D = 1).  Its discriminant is
    factored with the hints (primes of the domain's discriminant) and p
    first: isogenous curves share their bad primes, and D is a power of p.
    """
    if is_prime(p):  # a point of order 9 also has a Velu quotient
        hints = (*hints, p)
    # hints above the trial limit would complete factorizations that factor() gives up on
    fac_raw = factor_with_hints(raw.disc, tuple(q for q in hints if q <= _TRIAL_LIMIT))
    emin, tr, fac_min = minimal_model(raw, fac_raw)
    if big_d != 1:
        # raw coordinates are (D^2 x, D^3 y) images of Velu's model on e
        tr = Transformation(Q(tr.u, big_d), Q(tr.r, big_d**2), Q(tr.s, big_d), Q(tr.t, big_d**3))
    return IsogenyData(p, e, emin, tr, kernel, fac_min)


def velu_quotient(e: Curve, pt: Point, p: int, hints: tuple[int, ...] = ()) -> IsogenyData:
    """The quotient isogeny E -> E/<P> for a rational point P of odd prime order p.

    The kernel is P, ..., ((p-1)/2)P, one representative per +-pair, from
    the integer walk that also checks the order; Velu's power sums are
    read off its x-coordinates, and the kernel polynomial h, built from
    them in Z[x], is kept as ints.  h divides the p-division polynomial
    without a check: these multiples have distinct x-coordinates, each a
    root of psi_p.  hints are primes of the discriminant of e (see _velu).
    """
    reps = kernel_multiples(e, pt, p)
    if reps is None:
        raise InputError(f"kernel point must have exact order {p}")
    xs = [x for x, _ in reps]
    raw = _velu_model(e, len(xs), sum(xs), sum(x * x for x in xs), sum(x**3 for x in xs))
    return _velu(e, p, tuple(polys.from_roots(xs)), raw, 1, hints)


def velu_quotient_from_kernel_poly(
    e: Curve, h: list[Fraction], p: int, hints: tuple[int, ...] = ()
) -> IsogenyData:
    """Quotient by a rational subgroup given by its kernel x-polynomial.

    h must be monic of degree (p-1)/2, divide the p-division polynomial,
    and its root set must be stable under the doubling map (subgroup
    rationality check); both checks, and Velu's formulas, run over Z on
    the integral pair of _integral_kernel.  hints are primes of the
    discriminant of e (see _velu).
    """
    h = [Q(c) for c in h]
    big_d = _denominator(h)
    raw = velu_model_from_scaled_kernel(e, _scaled(h, big_d), big_d, p)
    return _velu(e, p, tuple(h), raw, big_d, hints)


def velu_model_from_scaled_kernel(e: Curve, big_h: list[int], kappa: int, p: int) -> Curve:
    """An integral model of E / <h>, h(y) = kappa^-d H(kappa y): Velu's formulas on
    the pair (e_k, h_D) of _integral_kernel, from h_D's power sums, once h passes the
    kernel checks in one pass over Z[y] / (h_D).  The recursion's registers there
    (_division_base) are made once; psi_p mod h_D must vanish, and then the closure
    test under doubling reads psi_2^2, psi_2^4 and f_3 off the same registers.  No
    Fraction, factorization or minimal model: the dual check, which needs the codomain
    only up to isomorphism, stops here; velu_quotient_from_kernel_poly goes on to _velu.
    """
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        raise InputError(f"p must be an odd integer >= 3, got {p}")
    if len(big_h) != (p - 1) // 2 + 1 or big_h[-1] != 1:
        raise InputError(f"kernel polynomial must be monic of degree {(p - 1) // 2}")
    e_k, h_k = _integral_kernel(e, big_h, kappa)
    ring = polys.residue_ring(h_k)
    base = _division_base(e_k, ring)
    if any(division_poly_x(e_k, p, ring, base)):
        raise InputError("kernel polynomial does not divide the p-division polynomial")
    if not _stable_under_doubling(h_k, ring, base):
        raise InputError("kernel polynomial roots are not closed under doubling")
    return _velu_model(e_k, len(h_k) - 1, *polys.power_sums(h_k, 3))


def _stable_under_doubling(h: list[int], ring, base: list) -> bool:
    """True iff x(2z) is a root of h for every root z of h, h monic integral.

    x(2z) = z - psi_3 / psi_2^2 = num / den, num = z psi_2^2 - f_3 and
    den = psi_2^2, so closure is den^d h(num / den) = 0 mod h(z), d = deg h,
    over Z in ring = polys.residue_ring(h), from the registers base of the
    psi_p recursion there (_division_base: psi_2^2, psi_2^4 = den^2, f_3).
    For a squarefree h dividing psi_p this is closure of the root set,
    since doubling is injective on x-coordinates of E[p] - {O}.
    """
    mul = ring[1]
    den, den_pow, f3 = base[0], base[1], base[2]
    top = den[-1]  # y den = [0, *den] - top h mod h
    num = [a - top * c - b for a, c, b in zip([0, *den], h, f3)]
    # Horner in homogeneous form: acc = sum_{j >= i} h_j num^(j-i) den^(d-j), from h_d = 1
    d = len(h) - 1
    acc = [a + h[d - 1] * b for a, b in zip(num, den)]
    for i in range(d - 2, -1, -1):
        acc = [a + h[i] * b for a, b in zip(mul(acc, num), den_pow)]
        if i:
            den_pow = mul(den_pow, den)
    return not any(acc)


def dual_kernel_poly(iso: IsogenyData) -> list[Fraction]:
    """Kernel x-polynomial h' of the dual isogeny, on the minimal codomain model.

    h'_j = H_j / kappa^(d-j) for the ints (H, kappa) of scaled_dual_kernel,
    whose solve reads the x-map from Velu's power sums; the dual check
    stays in Z, and this return is where the dual path makes Fractions.
    """
    big_h, kappa = scaled_dual_kernel(iso)
    return [Q(hj, kappa ** (len(big_h) - 1 - j)) for j, hj in enumerate(big_h)]


def scaled_dual_kernel(iso: IsogenyData) -> tuple[list[int], int]:
    """(H, kappa) with H(Y) = kappa^d h'(Y / kappa) monic integral, h' the
    dual kernel polynomial on the minimal codomain model.

    The dual kernel is the image of E[p].  phi maps E[p] - ker p-to-1
    onto ker(phi-hat) - {O}, so for each root x(R) of h', X - x(R) has p
    simple zeros, where X = N / h^2 is the x-map: the x-coordinates of
    E[p] outside the kernel, the roots of A = psi_p / (p h).  Both sides
    being monic, h'(X) h^(p-1) = A exactly (the setting of Bostan, Morain,
    Salvy, Schost 2008).

    This runs over Z after the change of variable y = c x with c = p D,
    D the lcm of h's denominators: h_c = c^d h(y / c) and
    A_c = c^(pd) A(y / c) are then monic integral (p x is integral over Z
    at every root of psi_p), and X = N_c / (c h_c^2) with N_c monic
    integral of degree 2d + 1.  For H(Y) = c^d h'(Y / c) the identity
    reads sum_j H_j T_j = A_c, T_j = N_c^j h_c^(2(d-j)) monic of degree
    2d^2 + j, so H is integral: a triangular solve on the top d + 1
    coefficients, which need only the top d + 1 of N_c and h_c^2, gives
    it from H_d = 1 down; it reads T_j only at its top j + 1, so the
    products that make T_j stop there.  The top of A_c is the top of psi_p
    (truncated recursion), rescaled and divided by p h_c as a series in
    1 / y, in one loop; that of N_c is c X as a series in 1 / y (_x_map_top)
    times that of h_c^2.
    That h is monic and divides psi_p is not checked here: an IsogenyData
    carries a proved kernel, and a forged one gives an h' that fails the
    checks of the dual's own entry point.

    The solve runs on the minimal model directly: x_min = (X - r) / u^2
    there, so X_min = N' / (kappa h_c^2) with N' = N_c - c r h_c^2 (c X - c r
    times h_c^2) and kappa = c u^2, and the same solve gives
    H_j = kappa^(d-j) h'_min,j.  For a kernel from a point Velu's model is
    integral, so u and r are ints (Silverman AEC VII.1.3(d)), and an integral
    Fraction u or r is taken as an int: then the solve makes no Fraction.
    """
    e, p = iso.domain, iso.p
    h = iso.kernel_x_poly
    d = len(h) - 1
    c = p * _denominator(h)
    h_c = _scaled(h, c)
    h_top = h_c[::-1]  # all d + 1 coefficients of h_c, highest first
    # the top d + 1 coefficients of A_c = (psi_c / p) / h_c, h_c monic: series in 1 / y
    a_top, scale = [], 1
    for a in division_poly_x(e, p, _series_ring(d + 1)):
        a = a * scale // p
        for i in range(1, len(a_top) + 1):
            a -= h_top[i] * a_top[-i]
        a_top.append(a)
        scale *= c
    tr = iso.to_minimal
    u = tr.u.numerator if tr.u.denominator == 1 else tr.u
    r = tr.r.numerator if tr.r.denominator == 1 else tr.r
    hh = _mul_top(h_top, h_top)
    n_top = _mul_top(_x_map_top(e, h_c, c, r, d + 1), hh)  # top(N'), N' = (c X - c r) h_c^2
    # t_tops[j]: the top j + 1 coefficients of T_j = N'^j h_c^(2(d-j)); N'^1 and
    # h_c^2 are taken as they are, so no product has a factor one
    n_pows = [None, n_top]
    for _ in range(d - 1):
        n_pows.append(_mul_top(n_pows[-1], n_top))
    t_tops, hh_pow = [None] * d + [n_pows[d]], hh
    for j in range(d - 1, 0, -1):
        t_tops[j] = _mul_top(n_pows[j][: j + 1], hh_pow)
        if j > 1:
            hh_pow = _mul_top(hh_pow[:j], hh)
    big_h = [0] * d + [1]
    for j in range(d - 1, -1, -1):  # the coefficient of y^(2d^2 + j)
        acc = a_top[d - j]
        for i in range(j + 1, d + 1):
            acc -= big_h[i] * t_tops[i][i - j]
        big_h[j] = acc
    return big_h, c * u**2


def _series_ring(k: int):
    """Series in 1 / x truncated to k terms, for division_poly_x: the embedding
    of Z[x] (_top) and the product there (_mul_top)."""
    return partial(_top, k=k), _mul_top


def _top(f: list[int], k: int) -> list[int]:
    """The top k coefficients of f, highest first, zeros below its constant term: f as a series in 1 / x."""
    return (f[::-1] + [0] * k)[:k]


def _mul_top(f: list[int], g: list[int]) -> list[int]:
    """The top len(f) coefficients of f g, highest first, from the top len(f) of f and of g.

    Lengths 3 and 4, the series of the p = 5 and p = 7 dual solve, are written out.
    """
    n = len(f)
    if n == 3:
        f0, f1, f2 = f
        g0, g1, g2 = g[:3]
        return [f0 * g0, f1 * g0 + f0 * g1, f2 * g0 + f1 * g1 + f0 * g2]
    if n == 4:
        f0, f1, f2, f3 = f
        g0, g1, g2, g3 = g[:4]
        return [f0 * g0, f1 * g0 + f0 * g1, f2 * g0 + f1 * g1 + f0 * g2, f3 * g0 + f2 * g1 + f1 * g2 + f0 * g3]
    b = g[0]
    out = [a * b for a in f]
    for j in range(1, n):
        b = g[j]
        if b:
            for i in range(j, n):
                out[i] += f[i - j] * b
    return out


def _x_map_top(e: Curve, h_c: list[int], c: int, r, k: int) -> list:
    """The top k terms of c (X - r) = y - c r + sum_j E_j y^-j, Velu's x-map at x = y / c
    as a series in 1 / y, highest first.

    X = x + sum over the roots x_Q of h of t_Q / (x - x_Q) + u_Q / (x - x_Q)^2,
    t_Q = 6 x_Q^2 + b2 x_Q + b4, u_Q = psi_2^2(x_Q) (Velu 1971, p odd), so
    E_j = (4j+2) S_{j+1} + j b2 c S_j + (2j-1) b4 c^2 S_{j-1} + (j-1) b6 c^3 S_{j-2},
    S_i the power sums of h_c (S_0 = d): integers, h_c being monic integral.
    """
    s = [0, len(h_c) - 1, *polys.power_sums(h_c, k - 1)]  # s[i + 1] = S_i
    b2, b4, b6 = e.b2 * c, e.b4 * c * c, e.b6 * c**3
    out = [1, -c * r]
    for j in range(1, k - 1):
        out.append((4 * j + 2) * s[j + 2] + j * b2 * s[j + 1] + (2 * j - 1) * b4 * s[j] + (j - 1) * b6 * s[j - 1])
    return out
