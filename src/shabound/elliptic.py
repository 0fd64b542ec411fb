"""Long-Weierstrass elliptic curve models over Q.

Exact invariants, the kernel walk of a point of odd order, globally
minimal models (Laska-Kraus-Connell), reduction-type classification at
every prime and singular points of reduced models.  No floating point
anywhere: coefficients are ints, and points are pairs of Fractions.
The kernel walk runs over Z (a point of odd order on an integral model
is integral), and so do on_curve and reduce_point at an integral point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import polys
from .arith import Factorization, factor, is_prime, require_complete, valuation
from .errors import InputError, ShaboundError, SingularModel

Q = Fraction

# a point is None (infinity) or an exact affine pair
Point = tuple[Fraction, Fraction] | None


@dataclass(frozen=True)
class Curve:
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    @cached_property
    def b2(self) -> int:
        return self.a1**2 + 4 * self.a2

    @cached_property
    def b4(self) -> int:
        return 2 * self.a4 + self.a1 * self.a3

    @cached_property
    def b6(self) -> int:
        return self.a3**2 + 4 * self.a6

    @cached_property
    def b8(self) -> int:
        return (
            self.a1**2 * self.a6
            + 4 * self.a2 * self.a6
            - self.a1 * self.a3 * self.a4
            + self.a2 * self.a3**2
            - self.a4**2
        )

    @cached_property
    def c4(self) -> int:
        return self.b2**2 - 24 * self.b4

    @cached_property
    def c6(self) -> int:
        return -self.b2**3 + 36 * self.b2 * self.b4 - 216 * self.b6

    @cached_property
    def disc(self) -> int:
        b2, b4, b6, b8 = self.b2, self.b4, self.b6, self.b8
        return -b2**2 * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6

    @property
    def j(self) -> Fraction:
        return Q(self.c4**3, self.disc)

    def ainvs(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)


def invariants(a1: int, a2: int, a3: int, a4: int, a6: int) -> Curve:
    """Build a curve from long Weierstrass coefficients; rejects singular models."""
    e = Curve(a1, a2, a3, a4, a6)
    if e.disc == 0:
        raise SingularModel(f"discriminant 0 for {e.ainvs()}")
    return e


def on_curve(e: Curve, pt: Point) -> bool:
    """The curve equation at pt, over Z when both coordinates are integral."""
    if pt is None:
        return True
    x, y = pt
    if x.denominator == 1 == y.denominator:
        x, y = x.numerator, y.numerator
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
    x, y = Q(pt[0]), Q(pt[1])
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

@dataclass(frozen=True)
class Transformation:
    """Coordinate change x = u^2 x' + r, y = u^3 y' + s u^2 x' + t."""

    u: Fraction
    r: Fraction
    s: Fraction
    t: Fraction

    @staticmethod
    def identity() -> "Transformation":
        return _IDENTITY


_IDENTITY = Transformation(Q(1), Q(0), Q(0), Q(0))


def transform_point(pt: Point, tr: Transformation) -> Point:
    """Image of a point of E on the transformed model E'."""
    if pt is None:
        return None
    x, y = Q(pt[0]), Q(pt[1])
    if tr is _IDENTITY:
        return (x, y)
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
    """The (u, r, s, t) carrying e to emin; solved from the a-invariant relations."""
    s = (u * emin.a1 - e.a1) / Q(2)
    r = (u**2 * emin.a2 - e.a2 + s * e.a1 + s * s) / Q(3)
    t = (u**3 * emin.a3 - e.a3 - r * e.a1) / Q(2)
    return Transformation(Q(u), r, s, t)


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


# ------------------------------------------------------------- reduction

GOOD = "good"
SPLIT = "split_multiplicative"
NONSPLIT = "nonsplit_multiplicative"
ADDITIVE = "additive"


def _split_by_tangent_slopes(e: Curve, q: int) -> bool:
    """Split iff the tangent slopes at the node are rational over F_q.

    After translating the singular point to the origin the quadratic part
    is y^2 + a1 x y - (3 x0 + a2) x^2, so the slopes satisfy
    z^2 + a1 z - (3 x0 + a2) = 0.
    """
    x0, _ = singular_point(e, q)
    f = [-(3 * x0 + e.a2) % q, e.a1 % q, 1]
    return bool(polys.roots_modq(f, q))


def reduction_at(e: Curve, q: int) -> str:
    """Reduction type at the prime q of a model that is minimal at q.

    The kind is read off this model as given; a model that is not minimal
    at q may look additive there.  For q >= 5 a multiplicative prime is
    split iff -c6 is a square mod q; for q <= 3 the tangent slopes decide.
    """
    if not is_prime(q):
        raise InputError(f"{q} is not prime")
    if e.disc % q:
        return GOOD
    if e.c4 % q == 0:
        return ADDITIVE
    if q >= 5:
        split = pow(-e.c6 % q, (q - 1) // 2, q) == 1
    else:
        split = _split_by_tangent_slopes(e, q)
    return SPLIT if split else NONSPLIT


def singular_point(e: Curve, q: int) -> tuple[int, int]:
    """The unique singular point of the reduced minimal model mod q.

    The caller is expected to pass a q-minimal model with bad reduction;
    good reduction is rejected.
    """
    if e.disc % q != 0:
        raise InputError(f"good reduction at {q}: no singular point")
    if q <= 3:
        a1, a2, a3, a4, a6 = e.ainvs()
        for x in range(q):
            for y in range(q):
                eqn = (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % q
                fx = (a1 * y - 3 * x * x - 2 * a2 * x - a4) % q
                fy = (2 * y + a1 * x + a3) % q
                if eqn == 0 and fx == 0 and fy == 0:
                    return (x, y)
        raise ShaboundError(f"no singular point found mod {q}")
    # q >= 5: x0 is the multiple root of 4x^3 + b2 x^2 + 2 b4 x + b6 mod q.  In
    # X = 36x + 3 b2 that cubic is X^3 - 27 c4 X - 54 c6 up to a unit, whose
    # multiple root is -3 c6 / c4 at a node and 0 at a cusp (q | c4).
    big_x0 = 0 if e.c4 % q == 0 else -3 * e.c6 * pow(e.c4, -1, q)
    x0 = (big_x0 - 3 * e.b2) * pow(36, -1, q) % q
    y0 = -(e.a1 * x0 + e.a3) * pow(2, -1, q) % q
    return (x0, y0)


def reduce_point(e: Curve, pt: Point, q: int) -> tuple[int, int] | None:
    """Reduce a rational point mod q; None is the point at infinity."""
    if pt is None:
        return None
    x, y = pt
    if x.denominator == 1 == y.denominator:
        return (x.numerator % q, y.numerator % q)
    if x.denominator % q == 0 or y.denominator % q == 0:
        return None
    return (
        x.numerator * pow(x.denominator, -1, q) % q,
        y.numerator * pow(y.denominator, -1, q) % q,
    )
