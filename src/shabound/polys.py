"""Small dense univariate polynomial helpers.

Coefficients low-degree-first.  Three layers: ring operations and
evaluation that work over Z or Q alike (the type of the coefficients
passed in is the type that comes out); integer division and remainder
modulo a monic polynomial, which keep Fraction normalization out of the
division-polynomial and dual-kernel arithmetic; and one rational helper
that converts at the edge (power sums back to a polynomial).

Last, one mod-q helper: the brute-force root finder behind the CRT
congruences and the split test at q <= 3.  Degrees here never exceed a
few dozen, so dense lists and the schoolbook product are the right tool.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError

Q = Fraction


# ------------------------------------------------------------ over Z or Q

def trim(f: list) -> list:
    while f and f[-1] == 0:
        f.pop()
    return f


def add(f, g):
    n = max(len(f), len(g))
    return trim([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)])


def sub(f, g):
    n = max(len(f), len(g))
    return trim([(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0) for i in range(n)])


def scale(f, c):
    return trim([c * x for x in f])


def mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return trim(out)


def evaluate(f, x):
    """f(x) by Horner's rule."""
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def deriv(f):
    return trim([i * c for i, c in enumerate(f)][1:])


def from_roots(roots) -> list:
    """Monic polynomial with the given roots; integer roots give integer coefficients."""
    out = [1]
    for r in roots:
        out = mul(out, [-r, 1])
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

def divmod_monic(f: list[int], a: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of f by a monic a over Z, by subtraction only."""
    n = len(a) - 1
    r = trim(list(f))
    quot = [0] * max(0, len(r) - n)
    for k in range(len(r) - 1, n - 1, -1):
        c = r[k]
        if c:
            quot[k - n] = c
            for i in range(n):
                r[k - n + i] -= c * a[i]
    return trim(quot), trim(r[:n])


def exact_quo_monic(f: list[int], a: list[int]) -> list[int]:
    quot, rem = divmod_monic(f, a)
    if rem:
        raise InputError("polynomial division is not exact")
    return quot


# ----------------------------------------------------------------- over Q

def qfrom_power_sums(s: list[Fraction]) -> list[Fraction]:
    """Monic polynomial of degree len(s) whose roots have power sums s_1..s_d."""
    e = [Q(1)]
    for k in range(1, len(s) + 1):
        e.append(sum(((-1) ** (i - 1) * e[k - i] * s[i - 1] for i in range(1, k + 1)), Q(0)) / k)
    return [(-1) ** k * c for k, c in reversed(list(enumerate(e)))]


# ------------------------------------------------------------------ mod q

def roots_modq(f, q) -> list[int]:
    """All roots of f in F_q, ascending. Brute force; callers keep q modest."""
    f = [c % q for c in f]
    if not any(f):
        raise ValueError("zero polynomial mod q")
    return [x for x in range(q) if sum(c * pow(x, i, q) for i, c in enumerate(f)) % q == 0]
