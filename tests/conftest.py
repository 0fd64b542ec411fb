"""Test oracles shared by the test modules.

The runtime package has one group law, the integral kernel walk
``elliptic.kernel_multiples``.  The Fraction chord-tangent law and
Velu's point pushforward live here as independent references for it and
for Velu's codomain, the Fraction change of model ``apply_transform``
as the reference for the integer reduction in ``elliptic.minimal_model``,
and the elimination on ``FpMatrix`` objects as the reference for the
list elimination in ``fplinalg``.
"""

from fractions import Fraction

from shabound.elliptic import _require_on_curve, invariants, kernel_multiples, transform_point
from shabound.errors import InputError, ShaboundError
from shabound.fplinalg import FpMatrix

Q = Fraction


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


def fp_rref(m):
    """Reduced row echelon form of an FpMatrix and the pivot column list (strictly increasing)."""
    p = m.p
    a = m.to_lists()
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        pivot = next((i for i in range(r, m.rows) if a[i][c] % p != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(m.rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    entries = tuple(x for row in a for x in row)
    return FpMatrix(p, m.rows, m.cols, entries, m.row_labels, m.col_labels), tuple(pivots)


def fp_kernel_basis(m):
    """Echelonized basis of the right kernel of an FpMatrix, free variables set to 1 in column order."""
    p = m.p
    red, pivots = fp_rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [0] * m.cols
        v[f] = 1
        for r_idx, c in enumerate(pivots):
            v[c] = (-red.entries[r_idx * m.cols + f]) % p
        basis.append(tuple(v))
    return basis


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import VERDICTS
    except ImportError:
        return
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(VERDICTS):
            terminalreporter.write_line(line)
