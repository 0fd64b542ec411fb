"""Small dense univariate polynomial helpers.

Coefficients low-degree-first.  Two layers: evaluation, the polynomial
with given roots and power sums, which work over Z or Q alike (the type
of the coefficients passed in is the type that comes out; the tests hold
the full product), and arithmetic in Z[y] / (a)
for a monic a, which keeps Fraction normalization out of the
division-polynomial and closure checks.

Last, the root finder over F_q behind the CRT congruences, polynomial
in log q.  Degrees here never exceed a few dozen, so dense lists and
the schoolbook product are the right tool.  The residue rings of degree
2 and 3, all that the p = 5 and p = 7 kernel checks build, have their
reduction and product written out; other degrees take the loops.
"""

from __future__ import annotations


# ------------------------------------------------------------ over Z or Q

def evaluate(f, x):
    """f(x) by Horner's rule."""
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def from_roots(roots) -> list:
    """Monic polynomial with the given roots; integer roots give integer coefficients."""
    out = [1]
    for r in roots:  # out * (x - r): out one degree up, minus r * out
        out = [a - r * b for a, b in zip([0, *out], [*out, 0])]
    return out


def power_sums(f, k: int) -> list:
    """Power sums p_1..p_k of the roots of monic f, via Newton's identities.

    With f = y^d + a_(d-1) y^(d-1) + ... + a_0, p_n = -n a_(d-n) (n <= d)
    minus the sum of a_(d-i) p_(n-i) over 1 <= i <= min(n - 1, d).  Integer
    coefficients give integer power sums.
    """
    d = len(f) - 1
    top = f[::-1]  # top[i] = a_(d-i)
    p = []
    for n in range(1, k + 1):
        acc = -n * top[n] if n <= d else 0
        for i in range(1, min(n, d + 1)):
            acc -= top[i] * p[n - i - 1]
        p.append(acc)
    return p


# ----------------------------------------------------------------- over Z

def residue_ring(a: list[int]):
    """Reduction into Z[y] / (a) and the product there, for a monic a over Z.

    A residue is the list of its deg a coefficients, zeros included.  The
    reduction subtracts multiples of a from the top down, so it stays in
    Z.  For deg a = 2 and 3, the ring degrees of the p = 5 and p = 7
    kernel checks, both are written out: the reduction by Horner's rule,
    r -> y r + c with the y^n term replaced, and the product coefficient
    by coefficient with its terms of degree n and up folded in.  Other
    degrees take the schoolbook product and then subtract from the top
    down, in place.
    """
    n = len(a) - 1
    if n == 2:  # y^2 = -a1 y - a0
        a0, a1 = a[:2]

        def reduce(f):
            r0 = r1 = 0
            for c in reversed(f):
                r0, r1 = c - a0 * r1, r0 - a1 * r1
            return [r0, r1]

        def product(f, g):
            f0, f1 = f
            g0, g1 = g
            c2 = f1 * g1
            return [f0 * g0 - a0 * c2, f0 * g1 + f1 * g0 - a1 * c2]

    elif n == 3:  # y^3 = -a2 y^2 - a1 y - a0; a product folds its y^4 term c4, then its y^3 term c3
        a0, a1, a2 = a[:3]

        def reduce(f):
            r0 = r1 = r2 = 0
            for c in reversed(f):
                r0, r1, r2 = c - a0 * r2, r0 - a1 * r2, r1 - a2 * r2
            return [r0, r1, r2]

        def product(f, g):
            f0, f1, f2 = f
            g0, g1, g2 = g
            c4 = f2 * g2
            c3 = f1 * g2 + f2 * g1 - a2 * c4
            return [
                f0 * g0 - a0 * c3,
                f0 * g1 + f1 * g0 - a0 * c4 - a1 * c3,
                f0 * g2 + f1 * g1 + f2 * g0 - a1 * c4 - a2 * c3,
            ]

    else:
        low, pad = a[:n], [0] * (n - 1)

        def fold(r):  # in place, from the top: r_(k+n) y^(k+n) = -r_(k+n) y^k low(y) mod a
            for k in range(len(r) - n - 1, -1, -1):
                c = r[k + n]
                if c:
                    for i, ai in enumerate(low, k):
                        r[i] -= c * ai
            del r[n:]
            return r

        def reduce(f):
            return fold([*f, *[0] * (n - len(f))])

        def product(f, g):  # the schoolbook product, folded
            y = g[0]
            out = [x * y for x in f]
            out += pad
            for j in range(1, n):
                y = g[j]
                if y:
                    for i, x in enumerate(f, j):
                        out[i] += x * y
            return fold(out)

    return reduce, product


# ------------------------------------------------------------------ mod q

def roots_modq(f, q) -> list[int]:
    """All roots of f in F_q, q prime, ascending; ValueError if f = 0 mod q.

    Deterministic, with a cost polynomial in log q: the product of the
    distinct linear factors of f is g = gcd(f, x^q - x), from x^q mod f by
    repeated squaring.  g is split by its gcd with (x + a)^((q-1)/2) - 1,
    which keeps the roots r with r + a a nonzero square, for a = 0, 1, 2, ...
    until every factor is linear (Cantor-Zassenhaus with the shifts taken
    in order; two roots are told apart by about half of all a).
    """
    f = _monic_modq(f, q)
    if not f:
        raise ValueError("zero polynomial mod q")
    if len(f) == 1:
        return []
    if q == 2:
        return [x for x in (0, 1) if evaluate(f, x) % 2 == 0]
    x_q = _powmod_modq([0, 1], q, f, q) + [0, 0]
    x_q[1] -= 1
    roots, todo = [], [_gcd_modq(f, x_q, q)]
    while todo:
        g, a = todo.pop(), 0
        while len(g) > 2:
            w = _powmod_modq([a, 1], (q - 1) // 2, g, q) + [0]
            w[0] -= 1
            part = _gcd_modq(g, w, q)
            if 1 < len(part) < len(g):
                todo.append(part)
                g = _divmod_modq(g, part, q)[0]
            else:
                a += 1
        if len(g) == 2:
            roots.append(-g[0] % q)
    return sorted(roots)


def _monic_modq(f, q) -> list[int]:
    """f mod q without its zero top coefficients, made monic; [] for f = 0 mod q."""
    f = [c % q for c in f]
    while f and not f[-1]:
        f.pop()
    if f and f[-1] != 1:
        inv = pow(f[-1], -1, q)
        f = [c * inv % q for c in f]
    return f


def _divmod_modq(f, g, q) -> tuple[list[int], list[int]]:
    """Quotient and remainder (deg g coefficients) of f by a monic g over F_q."""
    r = [c % q for c in f]
    dg = len(g) - 1
    quo = [0] * max(len(r) - dg, 0)
    for k in range(len(r) - 1 - dg, -1, -1):
        c = quo[k] = r[k + dg]
        if c:
            for i, gi in enumerate(g, k):
                r[i] = (r[i] - c * gi) % q
    return quo, r[:dg]


def _gcd_modq(f, g, q) -> list[int]:
    """The monic gcd of a monic f and any g over F_q, by Euclid."""
    g = _monic_modq(g, q)
    while g:
        f, g = g, _monic_modq(_divmod_modq(f, g, q)[1], q)
    return f


def _powmod_modq(f, n: int, m, q) -> list[int]:
    """f^n mod the monic m over F_q, deg m >= 1: repeated squaring in Z[y] / (m), reduced mod q."""
    reduce, product = residue_ring(m)
    out, f = reduce([1]), reduce(f)
    for bit in bin(n)[2:]:
        out = [c % q for c in product(out, out)]
        if bit == "1":
            out = [c % q for c in product(out, f)]
    return out
