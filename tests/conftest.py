"""Test oracles shared by the test modules.

The runtime package has one group law, the integral kernel walk
``elliptic.kernel_multiples``.  The Fraction chord-tangent law and
Velu's point pushforward live here as independent references for it and
for Velu's codomain, the Fraction change of model ``apply_transform``
as the reference for the integer reduction in ``elliptic.minimal_model``,
and a second Gauss-Jordan elimination as the reference for ``fplinalg``.
The dual check by minimal models, which factors the discriminant of the
round trip's codomain and compares minimal invariants, is the reference
for the closed-form isomorphism test the scan runs.  Velu's quotient by
a kernel polynomial with denominators through a Fraction model, cleared
afterwards, is the reference for the one integral rescaling of
``isogeny._integral_kernel``.  ``json.dumps`` of the canonical copy
that ``canonicalize`` makes is the reference for the one writer
``report.dumps``; the two share no code.

One fixture lives here too, ``corpus_p7``: the 1000-fiber p = 7 scan
with the dual check that the acceptance criteria and the dual-check
tests share.
"""

import json
import pathlib
import re
from fractions import Fraction
from math import lcm

import pytest

from shabound import polys
from shabound.arith import factor_with_hints
from shabound.elliptic import (
    Transformation,
    _require_on_curve,
    invariants,
    kernel_multiples,
    minimal_model,
    transform_point,
)
from shabound.errors import InputError, ShaboundError
from shabound.isogeny import dual_kernel_poly, velu_quotient_from_kernel_poly
from shabound.search import SearchConstraints, scan

Q = Fraction

def poly_trim(f: list) -> list:
    """f without its zero top coefficients."""
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_mul(f, g):
    """The schoolbook product of two low-degree-first coefficient lists, trimmed."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return poly_trim(out)


# the ring in which isogeny.division_poly_x gives psi_n in full: Z[x], low degree first
ZX = (list, poly_mul)


def canonicalize(obj):
    """Recursively convert a report payload to JSON-safe canonical form."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, str) or obj is None:
        return obj
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):  # a named tuple: the record's fields by name
        return canonicalize(dict(zip(obj._fields, obj)))
    if isinstance(obj, dict):
        return {str(k): canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def oracle_dumps(obj) -> str:
    """The canonical JSON report: the standard library's indenting encoder on the canonical copy."""
    return json.dumps(canonicalize(obj), sort_keys=True, indent=2) + "\n"


def poly_sub(f, g):
    """f - g for low-degree-first coefficient lists, trimmed."""
    n = max(len(f), len(g))
    return poly_trim([(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0) for i in range(n)])


def apply_transform(e, tr):
    """The model E' obtained from E by the coordinate change (must stay integral)."""
    u, r, s, t = tr.u, tr.r, tr.s, tr.t
    a1, a2, a3, a4, a6 = (Q(a) for a in e.ainvs())
    na1 = (a1 + 2 * s) / u
    na2 = (a2 - s * a1 + 3 * r - s * s) / u**2
    na3 = (a3 + r * a1 + 2 * t) / u**3
    na4 = (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u**4
    na6 = (a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1) / u**6
    coeffs = (na1, na2, na3, na4, na6)
    if any(c.denominator != 1 for c in coeffs):
        raise ShaboundError(f"transform {tr} does not yield an integral model")
    return invariants(*(int(c) for c in coeffs))


def add_points(e, p, q):
    """Group law on Fraction points (None is O). Inputs are checked against the curve equation."""
    _require_on_curve(e, p)
    _require_on_curve(e, q)
    if p is None:
        return q
    if q is None:
        return p
    x1, y1 = Q(p[0]), Q(p[1])
    x2, y2 = Q(q[0]), Q(q[1])
    a1, a2, a3, a4, a6 = e.ainvs()
    if x1 == x2:
        if y1 + y2 + a1 * x2 + a3 == 0:
            return None
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / (2 * y1 + a1 * x1 + a3)
    else:
        lam = (y2 - y1) / (x2 - x1)
    nu = y1 - lam * x1
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    return (x3, y3)


def multiple(e, n, pt):
    """n * pt by repeated add_points; -pt is the other point with x(pt)."""
    if n < 0:
        n, pt = -n, (pt[0], -pt[1] - e.a1 * pt[0] - e.a3)
    acc = None
    for _ in range(n):
        acc = add_points(e, acc, pt)
    return acc


def push_point(iso, gen, pt):
    """Image of a rational point of iso.domain on the minimal codomain, by Velu's formulas.

    gen generates the kernel; its multiples P..((p-1)/2)P come from
    kernel_multiples, one per +-pair.
    """
    e = iso.domain
    _require_on_curve(e, pt)
    kernel = kernel_multiples(e, gen, iso.p)
    if kernel is None:
        raise InputError(f"kernel generator must have exact order {iso.p}")
    if pt is None or Q(pt[0]) in {x for x, _ in kernel}:
        return None
    a1, a2, a3, a4 = e.a1, e.a2, e.a3, e.a4
    x, y = Q(pt[0]), Q(pt[1])
    xx, yy = x, y
    for xq, yq in kernel:
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
    return transform_point((xx, yy), iso.to_minimal)


def oracle_isomorphic(e, emin, hints=()):
    """e is isomorphic over Q to the minimal emin iff its own minimal model has emin's (c4, c6, Delta).

    hints are primes of e's discriminant that factoring alone might miss.
    """
    m = minimal_model(e, factor_with_hints(e.disc, tuple(hints)))[0]
    return (m.c4, m.c6, m.disc) == (emin.c4, emin.c6, emin.disc)


def oracle_dual_round_trip(cls):
    """The dual check by minimal models: Velu's quotient of E' by the dual kernel,
    minimalized with its discriminant factored, has E's minimal (c4, c6, Delta)."""
    iso, p = cls.isogeny, cls.isogeny.p
    back = velu_quotient_from_kernel_poly(
        iso.codomain, dual_kernel_poly(iso), p, iso.codomain_disc_factorization.primes
    ).codomain
    return (back.c4, back.c6, back.disc) == (cls.curve.c4, cls.curve.c6, cls.curve.disc)


def oracle_velu_from_kernel_poly(e, h, p, hints=()):
    """Velu's quotient by the monic kernel polynomial h through a Fraction model:
    (codomain, to_minimal, factorization of the codomain's discriminant).

    a4 and a6 of Velu's model on e come from h's power sums as Fractions,
    and an lcm loop finds the scale that clears their denominators before
    the model is minimalized.
    """
    h = [Q(c) for c in h]
    d = len(h) - 1
    p1, p2, p3 = polys.power_sums(h, 3)
    t = 6 * p2 + e.b2 * p1 + d * e.b4
    w = 10 * p3 + 2 * e.b2 * p2 + 3 * e.b4 * p1 + d * e.b6
    coeffs = (Q(e.a1), Q(e.a2), Q(e.a3), e.a4 - 5 * t, e.a6 - e.b2 * t - 7 * w)
    weights, scale = (1, 2, 3, 4, 6), 1
    while any((c * scale**wt).denominator != 1 for c, wt in zip(coeffs, weights)):
        scale *= lcm(*((c * scale**wt).denominator for c, wt in zip(coeffs, weights)))
    raw = invariants(*(int(c * scale**wt) for c, wt in zip(coeffs, weights)))
    emin, tr, fac = minimal_model(raw, factor_with_hints(raw.disc, (*hints, p)))
    u, r, s, t = Q(tr.u, scale), Q(tr.r, scale**2), Q(tr.s, scale), Q(tr.t, scale**3)
    return emin, Transformation(u, r, s, t), fac


def fp_rref(p, rows, cols):
    """Reduced row echelon form of rows (residues mod p, cols columns) and the pivot column list."""
    a = [list(row) for row in rows]
    n_rows = len(a)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, n_rows) if a[i][c] % p != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(n_rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return a, tuple(pivots)


def fp_kernel_basis(p, rows, cols):
    """Echelonized basis of the right kernel of rows mod p, free variables set to 1 in column order."""
    red, pivots = fp_rref(p, rows, cols)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [0] * cols
        v[f] = 1
        for r_idx, c in enumerate(pivots):
            v[c] = (-red[r_idx][f]) % p
        basis.append(tuple(v))
    return basis


@pytest.fixture(scope="session")
def corpus_p7():
    """The p = 7 family scan over b = +-1, ..., +-500 with the dual check, at two worker counts.

    Session scope: two modules read it, and a module-scoped fixture would scan once for each.
    """
    c = SearchConstraints(7, scan_budget=1000, verify_dual=True)
    return scan(c, jobs=1), scan(c, jobs=2)


def source_size() -> tuple[int, int]:
    """Source LOC of src/shabound/*.py (as `wc -l` counts them) and the number of
    entries in the `dependencies` array of pyproject.toml: the two sizes that the
    roadmap's design aim tracks.  A regular expression, not tomllib, which
    Python 3.10 lacks, reads the array."""
    root = pathlib.Path(__file__).resolve().parent.parent
    loc = sum(len(f.read_text().splitlines()) for f in (root / "src" / "shabound").glob("*.py"))
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", (root / "pyproject.toml").read_text(), re.M | re.S)
    return loc, len(re.findall(r"\"[^\"]*\"|'[^']*'", deps.group(1)))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import VERDICTS
    except ImportError:
        return
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(VERDICTS):
            terminalreporter.write_line(line)
        loc, deps = source_size()
        terminalreporter.write_line(f"source LOC (src/shabound/*.py): {loc}; runtime dependencies: {deps}")
