"""Long-Weierstrass elliptic curve models over Q.

Exact invariants, the kernel walk of a point of odd order, globally
minimal models (Laska-Kraus-Connell), and the reduction type at every
prime with the node of a split one.  No floating point anywhere:
coefficients are ints, and so are the changes of model between integral
models; points are pairs of Fractions or of ints, and the kernel walk
runs over Z (a point of odd order on an integral model is integral).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .arith import Factorization, exact_root, factor, is_prime, require_complete, valuation
from .errors import InputError, ShaboundError, SingularModel

Q = Fraction

# a point is None (infinity) or an exact affine pair
Point = tuple[Fraction | int, Fraction | int] | None


class Curve(namedtuple("Curve", "a1 a2 a3 a4 a6 b2 b4 b6 b8 c4 c6 disc")):
    """A model with its invariants; build it with invariants(), which computes them
    once, or with scaled() from another model.

    A named tuple of ints.  b2 to disc are functions of the a-invariants,
    so two curves are equal, and hash alike, exactly when their
    a-invariants agree; a curve prints by its a-invariants alone.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "Curve(a1={}, a2={}, a3={}, a4={}, a6={})".format(*self[:5])

    def ainvs(self) -> tuple[int, int, int, int, int]:
        return self[:5]


def invariants(a1: int, a2: int, a3: int, a4: int, a6: int) -> Curve:
    """Build a curve from long Weierstrass coefficients; rejects singular models."""
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4, c6 = b2 * b2 - 24 * b4, -(b2**3) + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    if disc == 0:
        raise SingularModel(f"discriminant 0 for {(a1, a2, a3, a4, a6)}")
    return Curve(a1, a2, a3, a4, a6, b2, b4, b6, b8, c4, c6, disc)


def scaled(e: Curve, u: int) -> Curve:
    """The model with a_i -> u^i a_i (x -> u^2 x, y -> u^3 y): each invariant
    scales by u to its weight, so none is recomputed."""
    u2 = u * u
    u3, u4 = u2 * u, u2 * u2
    u6 = u3 * u3
    return Curve(e.a1 * u, e.a2 * u2, e.a3 * u3, e.a4 * u4, e.a6 * u6, e.b2 * u2, e.b4 * u4, e.b6 * u6,
                 e.b8 * u4 * u4, e.c4 * u4, e.c6 * u6, e.disc * u6 * u6)


def on_curve(e: Curve, pt: Point) -> bool:
    """The curve equation at pt."""
    if pt is None:
        return True
    x, y = pt
    return y * y + e.a1 * x * y + e.a3 * y == x**3 + e.a2 * x * x + e.a4 * x + e.a6


def _require_on_curve(e: Curve, pt: Point) -> None:
    if not on_curve(e, pt):
        raise InputError(f"point {pt} is not on the curve {e.ainvs()}")


def _integral_step(e: Curve, p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int] | None:
    """P + Q for integral points, over Z; None if the sum is O or not integral.

    With lambda = num / den, x3 = (num^2 + a1 num den - (a2 + x1 + x2) den^2) / den^2
    is an exact division exactly when the sum is integral.  Then y3, a
    rational root of a monic integer quadratic, is an integer too, so
    y3 = -num (x3 - x1) / den - a1 x3 - y1 - a3 divides exactly.
    """
    (x1, y1), (x2, y2) = p, q
    a1, a2, a3, a4, _ = e.ainvs()
    if x1 == x2:
        if y1 + y2 + a1 * x2 + a3 == 0:
            return None
        num, den = 3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1, 2 * y1 + a1 * x1 + a3
    else:
        num, den = y2 - y1, x2 - x1
    x3, rem = divmod(num * (num + a1 * den) - (a2 + x1 + x2) * den * den, den * den)
    if rem:
        return None
    return (x3, -(num * (x3 - x1) // den) - a1 * x3 - y1 - a3)


def kernel_multiples(e: Curve, pt: Point, p: int) -> list[tuple[int, int]] | None:
    """P, 2P, ..., ((p-1)/2)P, as integer pairs, if P has exact order p, else None.

    One walk is both the order check and the kernel: it steps on to
    ((p+1)/2)P and asks for x(((p+1)/2)P) = x(((p-1)/2)P), that is pP = O,
    with no multiple up to (p+1)/2 equal to O.  Every proper divisor of p
    is below (p+1)/2, so the order is exactly p.  A point of odd order on
    an integral model has integer coordinates (Silverman, The Arithmetic
    of Elliptic Curves, Thm VII.3.4), so the walk runs over Z and a
    non-integral P or multiple means the order is not p.  P is checked
    against the curve equation once; p must be an odd integer >= 3.
    """
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        raise InputError(f"p must be an odd integer >= 3, got {p}")
    _require_on_curve(e, pt)
    if pt is None:
        return None
    x, y = pt
    if x.denominator != 1 or y.denominator != 1:
        return None
    first = (x.numerator, y.numerator)
    multiples = [first]
    for _ in range((p - 1) // 2):
        step = _integral_step(e, multiples[-1], first)
        if step is None:
            return None
        multiples.append(step)
    last = multiples.pop()
    return multiples if last[0] == multiples[-1][0] else None


def has_order(e: Curve, pt: Point, p: int) -> bool:
    """True iff pt has exact order p (p an odd integer >= 3)."""
    return kernel_multiples(e, pt, p) is not None


# ------------------------------------------------------------- transforms

class Transformation(namedtuple("Transformation", "u r s t")):
    """Coordinate change x = u^2 x' + r, y = u^3 y' + s u^2 x' + t.

    Ints between integral models (minimal_model); Fractions from a rescaled kernel.
    """

    __slots__ = ()

    @staticmethod
    def identity() -> "Transformation":
        return _IDENTITY


_IDENTITY = Transformation(1, 0, 0, 0)


def transform_point(pt: Point, tr: Transformation) -> Point:
    """Image of a point of E on the transformed model E'."""
    if pt is None or tr is _IDENTITY:
        return pt
    x, y = Q(pt[0]), Q(pt[1])
    u, r, s, t = tr.u, tr.r, tr.s, tr.t
    nx = (x - r) / u**2
    ny = (y - s * (x - r) - t) / u**3
    return (nx, ny)


# ---------------------------------------------------------- minimal model

def _kraus_ok_2(c4: int, c6: int) -> bool:
    """Kraus's condition at 2 for (c4, c6) to come from an integral model."""
    if c6 % 4 == 3:  # c6 = -1 mod 4
        return True
    return c4 % 16 == 0 and c6 % 32 in (0, 8)


def _kraus_ok_3(c6: int) -> bool:
    """Kraus's condition at 3: v_3(c6) != 2."""
    return c6 % 27 not in (9, 18)


def _curve_from_c4c6(c4: int, c6: int) -> Curve:
    """Connell's reconstruction of an integral model from admissible (c4, c6)."""
    b2 = (-c6) % 12
    if b2 % 4 not in (0, 1):
        raise ShaboundError(f"(c4, c6) = ({c4}, {c6}) fails the mod-12 normalization")
    num_b4 = b2 * b2 - c4
    if num_b4 % 24:
        raise ShaboundError("b4 not integral: (c4, c6) not admissible")
    b4 = num_b4 // 24
    num_b6 = -(b2**3) + 36 * b2 * b4 - c6
    if num_b6 % 216:
        raise ShaboundError("b6 not integral: (c4, c6) not admissible")
    b6 = num_b6 // 216
    a1 = b2 % 2
    a2 = (b2 - a1) // 4
    a3 = b6 % 2
    a6 = (b6 - a3) // 4
    if (b4 - a1 * a3) % 2:
        raise ShaboundError("b4 parity obstruction: (c4, c6) not admissible")
    a4 = (b4 - a1 * a3) // 2
    return invariants(a1, a2, a3, a4, a6)


def _reduce_model(e: Curve) -> Curve:
    """Normalize by (r, s, t) to a1, a3 in {0,1} and a2 in {-1,0,1}.

    With u = 1 and integers r, s, t, Connell's formulas for the new
    a-invariants run on ints.
    """
    a1, a2, a3, a4, a6 = e.ainvs()
    s = -(a1 // 2)
    r = -((a2 - s * a1 - s * s + 1) // 3)
    t = -((a3 + r * a1) // 2)
    return invariants(
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
    )


def _transform_between(e: Curve, emin: Curve, u: int) -> Transformation:
    """The (u, r, s, t) carrying e to emin; solved from the a-invariant relations.

    For integral e and emin and an integer u > 0, r, s and t are integers
    (Silverman AEC VII.1.3(d)): each division is exact and gives an int,
    and one with a remainder would give a Fraction, not a wrong int.
    """

    def exact(num, den):
        return num // den if num % den == 0 else Q(num, den)

    s = exact(u * emin.a1 - e.a1, 2)
    r = exact(u**2 * emin.a2 - e.a2 + s * e.a1 + s * s, 3)
    t = exact(u**3 * emin.a3 - e.a3 - r * e.a1, 2)
    return Transformation(u, r, s, t)


def minimal_model(
    e: Curve, disc_factorization: Factorization | None = None
) -> tuple[Curve, Transformation, Factorization]:
    """Globally minimal model over Q, the transformation reaching it, and
    the factorization of its discriminant.

    Needs the full factorization of the discriminant (computed here when
    not supplied); an exhausted factor budget, or a supplied partial
    factorization, raises IncompleteFactorization.
    """
    c4, c6, disc = e.c4, e.c6, e.disc
    if disc_factorization is None:
        disc_factorization = factor(disc)
    elif disc_factorization.value != disc:
        raise InputError(
            f"factorization of {disc_factorization.value} given for the discriminant {disc}"
        )
    disc_factorization = require_complete(disc_factorization)
    u = 1
    min_factors = []  # (q, v_q of the minimal discriminant)
    for q, eq in disc_factorization.factors:
        dq = 0
        if eq >= 12:
            dq = min(
                valuation(c4, q) // 4 if c4 else eq,
                valuation(c6, q) // 6 if c6 else eq,
                eq // 12,
            )
            if q == 2:
                while dq > 0 and not _kraus_ok_2(c4 // 2 ** (4 * dq), c6 // 2 ** (6 * dq)):
                    dq -= 1
            elif q == 3:
                while dq > 0 and not _kraus_ok_3(c6 // 3 ** (6 * dq)):
                    dq -= 1
            u *= q**dq
        if eq > 12 * dq:
            min_factors.append((q, eq - 12 * dq))
    if u == 1:
        return e, Transformation.identity(), disc_factorization
    emin = _reduce_model(_curve_from_c4c6(c4 // u**4, c6 // u**6))
    fac_min = Factorization(emin.disc, disc_factorization.sign, tuple(min_factors))
    return emin, _transform_between(e, emin, u), fac_min


def isomorphic_to_minimal(e: Curve, emin: Curve) -> bool:
    """True iff the integral model e is isomorphic over Q to the globally minimal emin.

    An integral model reaches the minimal one by a change of coordinates
    with u an integer, so Delta(e) = u^12 Delta(emin) with u > 0 (the sign
    of u changes no invariant), and e is isomorphic to emin exactly when
    c4(e) = u^4 c4(emin) and c6(e) = u^6 c6(emin).  No case is special:
    at j = 0 and j = 1728 a twist that keeps j changes c6 or c4 by a
    factor that is no sixth or fourth power in Q.
    """
    m, rem = divmod(e.disc, emin.disc)
    u = exact_root(m, 12) if m > 0 and not rem else None
    return u is not None and (e.c4, e.c6) == (u**4 * emin.c4, u**6 * emin.c6)


# ------------------------------------------------------------- reduction

GOOD = "good"
SPLIT = "split_multiplicative"
NONSPLIT = "nonsplit_multiplicative"
ADDITIVE = "additive"


def reduction_at(e: Curve, q: int) -> tuple[str, tuple[int, int] | None]:
    """Reduction type at the prime q of a model that is minimal at q, and
    at a split prime the node of the reduced model.

    The kind is read off this model as given; a model that is not minimal
    at q may look additive there.  For q >= 5 a multiplicative prime is
    split iff -c6 is a square mod q.  Its node is then read from c4 and
    c6: x0 is the double root of 4x^3 + b2 x^2 + 2 b4 x + b6, which in
    X = 36x + 3 b2 is X^3 - 27 c4 X - 54 c6 up to a unit, with double root
    -3 c6 / c4; so x0 = -(c6 + b2 c4) / (12 c4) and y0 = -(a1 x0 + a3) / 2.
    For q <= 3 one search over the q^2 residue pairs finds the singular
    point, and the tangent slopes there decide: after moving it to the
    origin the quadratic part is y^2 + a1 x y - (3 x0 + a2) x^2, so the
    slopes are the roots of z^2 + a1 z - (3 x0 + a2), split iff rational.
    """
    if not is_prime(q):
        raise InputError(f"{q} is not prime")
    if e.disc % q:
        return GOOD, None
    if e.c4 % q == 0:
        return ADDITIVE, None
    a1, a2, a3, a4, a6 = e.ainvs()
    if q >= 5:
        if pow(-e.c6 % q, (q - 1) // 2, q) != 1:
            return NONSPLIT, None
        x0 = -(e.c6 + e.b2 * e.c4) * pow(12 * e.c4, -1, q) % q
        return SPLIT, (x0, -(a1 * x0 + a3) * (q + 1) // 2 % q)
    for x0 in range(q):
        for y0 in range(q):
            if (
                (y0 * y0 + a1 * x0 * y0 + a3 * y0 - x0**3 - a2 * x0 * x0 - a4 * x0 - a6) % q == 0
                and (a1 * y0 - 3 * x0 * x0 - 2 * a2 * x0 - a4) % q == 0
                and (2 * y0 + a1 * x0 + a3) % q == 0
            ):
                if any((z * z + a1 * z - 3 * x0 - a2) % q == 0 for z in range(q)):
                    return SPLIT, (x0, y0)
                return NONSPLIT, None
    raise ShaboundError(f"no singular point found mod {q}")

