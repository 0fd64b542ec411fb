"""Small dense univariate polynomial helpers.

Coefficients low-degree-first.  Two flavours: exact rational (Fraction)
polynomials for division-polynomial and kernel-polynomial arithmetic, and
mod-q polynomials for singular-point and split/nonsplit tests.  Degrees
here never exceed a few dozen, so dense lists are the right tool.
"""

from __future__ import annotations

from fractions import Fraction

Q = Fraction


# ---------------------------------------------------------------- rational

def qtrim(f: list[Fraction]) -> list[Fraction]:
    while f and f[-1] == 0:
        f.pop()
    return f


def qadd(f, g):
    n = max(len(f), len(g))
    return qtrim([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)])


def qscale(f, c):
    c = Q(c)
    return qtrim([c * x for x in f])


def qmul(f, g):
    if not f or not g:
        return []
    out = [Q(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return qtrim(out)


def qdivmod(f, g):
    """Polynomial division with remainder over Q."""
    f = qtrim([Q(x) for x in f])
    g = qtrim([Q(x) for x in g])
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    quot = [Q(0)] * max(0, len(f) - len(g) + 1)
    lead = g[-1]
    while len(f) >= len(g) and qtrim(f):
        shift = len(f) - len(g)
        c = f[-1] / lead
        quot[shift] = c
        for i, b in enumerate(g):
            f[shift + i] -= c * b
        qtrim(f)
    return qtrim(quot), f


def qexact_div(f, g):
    quot, rem = qdivmod(f, g)
    if rem:
        raise ValueError("polynomial division is not exact")
    return quot


def qdivides(g, f) -> bool:
    """True iff g divides f exactly over Q."""
    return not qdivmod(f, g)[1]


def qeval(f, x):
    acc = Q(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def qderiv(f):
    return qtrim([i * c for i, c in enumerate(f)][1:])


def qmonic(f):
    return qscale(f, 1 / Q(f[-1])) if f else f


def qgcd(f, g):
    f, g = list(f), list(g)
    while g:
        f, g = g, qdivmod(f, g)[1]
    return qmonic(f)


def qpow_x_shift(roots: list[Fraction]) -> list[Fraction]:
    """Monic polynomial with the given roots."""
    out = [Q(1)]
    for r in roots:
        out = qmul(out, [-Q(r), Q(1)])
    return out


def power_sums(f, k: int) -> list[Fraction]:
    """Power sums p_1..p_k of the roots of monic f, via Newton's identities."""
    d = len(f) - 1
    # e_i: elementary symmetric, from coefficients of monic f
    e = [Q(0)] * (d + 1)
    e[0] = Q(1)
    for i in range(1, d + 1):
        e[i] = Q((-1) ** i) * f[d - i] / f[d]
    p = [Q(0)] * (k + 1)
    for n in range(1, k + 1):
        if n <= d:
            acc = Q((-1) ** (n - 1)) * n * e[n]
        else:
            acc = Q(0)
        for i in range(1, min(n, d + 1)):
            acc += Q((-1) ** (i - 1)) * e[i] * p[n - i]
        p[n] = acc
    return p[1:]


def qfrom_power_sums(s: list[Fraction]) -> list[Fraction]:
    """Monic polynomial of degree len(s) whose roots have power sums s_1..s_d."""
    e = [Q(1)]
    for k in range(1, len(s) + 1):
        e.append(sum(((-1) ** (i - 1) * e[k - i] * s[i - 1] for i in range(1, k + 1)), Q(0)) / k)
    return [(-1) ** k * c for k, c in reversed(list(enumerate(e)))]


def qrem(f, g):
    return qdivmod(f, g)[1]


def qinvmod(f, m):
    """Inverse of f modulo m over Q, by the extended Euclidean algorithm."""
    r0, r1 = [Q(c) for c in m], qrem(f, m)
    s0, s1 = [], [Q(1)]
    while r1:
        quot, rem = qdivmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, qadd(s0, qscale(qmul(quot, s1), -1))
    if len(r0) != 1:
        raise ValueError("polynomial is not invertible modulo m")
    return qscale(s0, 1 / r0[0])


# ------------------------------------------------------------------ mod q

def ftrim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def fred(f, q):
    return ftrim([c % q for c in f])


def fadd(f, g, q):
    n = max(len(f), len(g))
    return ftrim([((f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)) % q for i in range(n)])


def fmul(f, g, q):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % q
    return ftrim(out)


def fdivmod(f, g, q):
    f = [c % q for c in f]
    g = ftrim([c % q for c in g])
    if not g:
        raise ZeroDivisionError
    inv = pow(g[-1], -1, q)
    quot = [0] * max(0, len(f) - len(g) + 1)
    while len(ftrim(f)) >= len(g):
        shift = len(f) - len(g)
        c = f[-1] * inv % q
        quot[shift] = c
        for i, b in enumerate(g):
            f[shift + i] = (f[shift + i] - c * b) % q
        ftrim(f)
    return ftrim(quot), f


def fgcd(f, g, q):
    f, g = fred(f, q), fred(g, q)
    while g:
        f, g = g, fdivmod(f, g, q)[1]
    if f:
        inv = pow(f[-1], -1, q)
        f = [c * inv % q for c in f]
    return f


def fderiv(f, q):
    return ftrim([i * c % q for i, c in enumerate(f)][1:])


def fpowmod_x(e: int, f, q):
    """x^e mod f over F_q, by square and multiply."""
    result = [1]
    base = fdivmod([0, 1], f, q)[1]
    while e:
        if e & 1:
            result = fdivmod(fmul(result, base, q), f, q)[1]
        base = fdivmod(fmul(base, base, q), f, q)[1]
        e >>= 1
    return result


def has_root_modq(f, q) -> bool:
    """True iff f has a root in F_q (f nonzero mod q)."""
    f = fred(f, q)
    if not f:
        raise ValueError("zero polynomial mod q")
    if f[0] == 0:
        return True
    if q <= 64:
        return any(sum(c * pow(x, i, q) for i, c in enumerate(f)) % q == 0 for x in range(q))
    xq = fpowmod_x(q, f, q)
    g = fgcd(fadd(xq, [0, q - 1], q), f, q)
    return len(g) > 1


def roots_modq(f, q) -> list[int]:
    """All roots of f in F_q, ascending. Brute force; callers keep q modest."""
    f = fred(f, q)
    if not f:
        raise ValueError("zero polynomial mod q")
    return [x for x in range(q) if sum(c * pow(x, i, q) for i, c in enumerate(f)) % q == 0]
