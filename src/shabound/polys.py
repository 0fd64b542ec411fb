"""Small dense univariate polynomial helpers.

Coefficients low-degree-first.  Two layers: evaluation, the polynomial
with given roots and power sums, which work over Z or Q alike (the type
of the coefficients passed in is the type that comes out; the tests hold
the full product), and arithmetic in Z[y] / (a)
for a monic a, which keeps Fraction normalization out of the
division-polynomial and closure checks.

Last, one mod-q helper: the brute-force root finder behind the CRT
congruences.  Degrees here never exceed a few dozen, so dense lists and
the schoolbook product are the right tool.
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

    Integer coefficients give integer power sums.
    """
    d = len(f) - 1
    e = [(-1) ** i * f[d - i] for i in range(d + 1)]  # elementary symmetric
    p = [0] * (k + 1)
    for n in range(1, k + 1):
        acc = (-1) ** (n - 1) * n * e[n] if n <= d else 0
        for i in range(1, min(n, d + 1)):
            acc += (-1) ** (i - 1) * e[i] * p[n - i]
        p[n] = acc
    return p[1:]


# ----------------------------------------------------------------- over Z

def residue_ring(a: list[int]):
    """Reduction into Z[y] / (a) and the product there, for a monic a over Z.

    A residue is the list of its deg a coefficients, zeros included.  The
    reduction subtracts multiples of a from the top down, so it stays in Z.
    """
    n = len(a) - 1
    low = a[:n]

    def reduce(f):
        r = list(f)
        while len(r) > n:
            c = r.pop()
            if c:
                k = len(r) - n
                for i, ai in enumerate(low):
                    r[k + i] -= c * ai
        return r + [0] * (n - len(r))

    def product(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            if x:
                for j, y in enumerate(g):
                    out[i + j] += x * y
        return reduce(out)

    return reduce, product


# ------------------------------------------------------------------ mod q

def roots_modq(f, q) -> list[int]:
    """All roots of f in F_q, ascending. Brute force; callers keep q modest."""
    f = [c % q for c in f]
    if not any(f):
        raise ValueError("zero polynomial mod q")
    return [x for x in range(q) if sum(c * pow(x, i, q) for i, c in enumerate(f)) % q == 0]
