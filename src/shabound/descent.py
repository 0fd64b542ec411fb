"""Descent bookkeeping for a p-isogeny over Q.

Classifies the bad primes into S1/S2/S3 with two independent tests (the
reduction of the kernel point versus the discriminant-valuation ratio
under the isogeny), builds the power-residue character matrix whose rank
is m(S1, S2), and computes the two-sided Selmer sandwich dimensions, all
three from one elimination per direction (selmer_dims).  analyze_curve
runs the whole pipeline for one curve, as classify_primes and then
analyze_classified; the CLI goes through it, and the family scan calls
the two halves itself so that it can stop after the first.
"""

from __future__ import annotations

from collections import namedtuple

from . import fplinalg
from .arith import (  # factor_with_hints: the benchmark's span table traces it here
    Factorization,
    character_eval,
    factor_with_hints,
    is_prime,
    residue_character,
)
from .bounds import FieldInvariants, bound_report
from .elliptic import (
    ADDITIVE,
    NONSPLIT,
    Curve,
    Point,
    minimal_model,
    reduction_at,
    transform_point,
)
from .errors import ClassifierDisagreement, InputError
from .isogeny import velu_quotient

S1 = "S1"
S2 = "S2"


def valuation_ratio_set(p: int, v: int, v_image: int) -> str | None:
    """The set a prime joins from its discriminant valuations v on E and v_image on E/<P>.

    A p-isogeny multiplies the valuation by p at an S2 prime and divides
    it by p at an S1 prime; None means neither, and the caller decides
    what that means.
    """
    if v_image == p * v:
        return S2
    if p * v_image == v:
        return S1
    return None


class DescentSets(namedtuple("DescentSets", [
    "s1",  # tuple[int, ...], sorted; kernel point hits the singular locus
    "s2",  # tuple[int, ...], sorted; kernel point stays on the smooth locus
    "s3",  # tuple[int, ...], primes above p: always (p,) over Q
    "excluded",  # tuple of (prime, reason)
    "evidence",  # tuple of (prime, point test verdict, valuation ratio verdict)
])):
    __slots__ = ()


class ClassifiedCurve(namedtuple("ClassifiedCurve", [
    "sets",  # DescentSets
    "curve",  # Curve, the minimal model actually classified
    "point",  # Point
    "isogeny",  # isogeny.IsogenyData
    "disc_factorization",  # Factorization of curve.disc
])):
    """Everything classify_primes learns along the way."""

    __slots__ = ()


def classify_primes(
    e: Curve,
    pt: Point,
    p: int,
    disc_factorization: Factorization | None = None,
) -> ClassifiedCurve:
    """Sort the split multiplicative primes of E into S1 and S2.

    Runs both classifiers on every candidate prime and aborts on any
    disagreement.  The input model is minimalized first (the point is
    carried along); velu_quotient checks that the point has order p, so
    from there on it is integral (see kernel_multiples).
    """
    emin, tr, fac_min = minimal_model(e, disc_factorization)
    pmin = transform_point(pt, tr)
    iso = velu_quotient(emin, pmin, p, fac_min.primes)
    image_vals = dict(iso.codomain_disc_factorization.factors)
    x, y = pmin
    s1, s2, excluded, evidence = [], [], [], []
    for q, v in fac_min.factors:
        if q == p:
            excluded.append((q, "above_p_overlap"))
            continue
        kind, node = reduction_at(emin, q)
        if kind == ADDITIVE:
            excluded.append((q, "additive"))
            continue
        if kind == NONSPLIT:
            excluded.append((q, "nonsplit"))
            continue
        # split multiplicative: the only kind left at a prime of the discriminant
        # test 1: does the kernel point reduce to the node?
        verdict_pt = S1 if (x % q, y % q) == node else S2
        # test 2: discriminant valuation ratio under the isogeny
        vp = image_vals.get(q, 0)
        verdict_val = valuation_ratio_set(p, v, vp)
        if verdict_val is None:
            raise ClassifierDisagreement(
                f"valuation ratio at {q} is neither p nor 1/p: {v} -> {vp}"
            )
        if verdict_pt != verdict_val:
            raise ClassifierDisagreement(
                f"classifiers disagree at {q}: point test {verdict_pt}, valuation test {verdict_val}"
            )
        (s1 if verdict_pt == S1 else s2).append(q)
        evidence.append((q, verdict_pt, verdict_val))
    for ell in s2:
        if ell % p != 1:
            raise ClassifierDisagreement(f"S2 prime {ell} is not 1 mod {p}")
    sets = DescentSets(tuple(sorted(s1)), tuple(sorted(s2)), (p,), tuple(excluded), tuple(evidence))
    return ClassifiedCurve(sets, emin, pmin, iso, fac_min)


# --------------------------------------------------------- character matrix

def character_table(p: int, s1, s2) -> dict[int, dict[int, int]]:
    """chi_ell(q) for each ell = 1 mod p in one set and each q in the other set or q = p.

    Every character matrix and sandwich of the pair (S1, S2), in both
    directions, takes its rows from this table: row ell is table[ell].
    One character_eval per (ell, q) pair.  This is where every matrix,
    sandwich and analysis checks that S1 and S2 are disjoint, that p is
    in neither, and that p is an odd prime.
    """
    if set(s1) & set(s2):
        raise InputError(f"S1 and S2 overlap: {sorted(set(s1) & set(s2))}")
    if p in s1 or p in s2:
        raise InputError(f"p = {p} may not appear in S1 or S2")
    if p < 3 or not is_prime(p):
        raise InputError(f"modulus {p} is not an odd prime")
    table = {}
    for ells, qs in ((s2, s1), (s1, s2)):
        for ell in ells:
            if ell % p == 1:
                chi = residue_character(ell, p)
                table.setdefault(ell, {}).update((q, character_eval(chi, q)) for q in (*qs, p))
    return table


def character_rows(p: int, s1, s2, table: dict | None = None) -> tuple[list[int], list[list[int]]]:
    """The row primes ell of S2 and the rows chi_ell(q), q in S1, of the character matrix.

    The matrix of the inclusion map Q(S1, p) -> sum over S2 of local
    units mod p-th powers: columns are the primes of S1, rows the primes
    of S2, each 1 mod p.  table is character_table(p, S1, S2), built
    here if not given.
    """
    if table is None:
        table = character_table(p, s1, s2)
    for ell in s2:
        if ell % p != 1:
            raise InputError(f"S2 prime {ell} is not congruent to 1 mod {p}")
    return list(s2), [[table[ell][q] for q in s1] for ell in s2]


def m_rank(p: int, s1, s2, table: dict | None = None) -> int:
    """m(S1, S2): the F_p-rank of the character matrix, from selmer_dims; table as for character_rows."""
    table = character_table(p, s1, s2) if table is None else table
    return selmer_dims(p, s1, character_rows(p, s1, s2, table)[0], table)[0]


# ------------------------------------------------------------ the sandwich

class SandwichResult(namedtuple("SandwichResult", [
    "p",  # int
    "lower_dim",  # int
    "upper_dim",  # int
    "lower_support",  # tuple[int, ...]
    "upper_support",  # tuple[int, ...]
    "lower_basis",  # tuple of exponent vectors (tuple[int, ...]) over lower_support
    "upper_basis",  # the same over upper_support
])):
    __slots__ = ()


def _p_adic_unit_condition_row(support, p: int) -> list[int]:
    """Linear condition for a product of the support primes to be a p-adic p-th power.

    For a prime q != p the class of q in (1-units mod p-th powers) is
    measured by (q^(p-1) - 1)/p mod p.
    """
    return [((pow(q, p - 1, p * p) - 1) // p) % p for q in support]


def sandwich_from_sets(p: int, s1, s2) -> SandwichResult:
    """Upper and lower sandwich groups from the descent sets, over Q.

    Q(S,p) is free on the primes of S for odd p (the sign is a p-th
    power), so both groups are kernels of explicit F_p matrices, and
    their dimensions are exact over Q as kernel dimensions.  Which
    Selmer group the pair brackets over Q is not pinned down: both groups
    sit in Q*/Q*^p = H^1(Q, mu_p), home of the mu_p-side group
    Sel^phihat(E'), while Sel^phi(E) lies in H^1(Q, Z/p).  The paper's
    field contains the p-th roots of unity, where the two agree (see
    Analysis).  Both ends are kernels of one row list over one support,
    S1 and p.  The lower end adds v_p = 0, which makes p a pivot column (0
    in every basis vector, then dropped), and the p-adic unit condition.
    The bases are for `shabound sandwich`; analyze_curve takes the
    dimensions from selmer_dims.
    """
    table = character_table(p, s1, s2)
    s1, support = tuple(sorted(s1)), tuple(sorted({*s1, p}))
    rows = [[table[ell][q] for q in support] for ell in s2 if ell % p == 1]
    upper_basis = fplinalg.kernel_basis(p, rows, len(support))
    at_p = support.index(p)
    lower_rows = rows + [[int(q == p) for q in support], _p_adic_unit_condition_row(support, p)]
    lower_basis = tuple(v[:at_p] + v[at_p + 1:] for v in fplinalg.kernel_basis(p, lower_rows, len(support)))
    return SandwichResult(p, len(lower_basis), len(upper_basis), s1, support, lower_basis, tuple(upper_basis))


def selmer_dims(p: int, cols, ells, table: dict) -> tuple[int, int, int]:
    """(m, lower, upper) for one direction: columns cols (S), rows ells (each 1 mod p).

    One elimination of the rows chi_ell(q), q in cols, then chi_ell(p).
    m is the rank of the character matrix, the pivots among the first
    len(cols) columns; lower and upper are the dimensions that
    sandwich_from_sets(p, cols, ells) gives, without a kernel basis; m_rank
    takes m from here.  table is character_table(p, cols, ells) or one
    that contains it.
    """
    n = len(cols)
    red, pivots = fplinalg.rref(p, [[table[ell][q] for q in (*cols, p)] for ell in ells])
    m = sum(c < n for c in pivots)
    unit = _p_adic_unit_condition_row(cols, p)
    for row, c in zip(red, pivots[:m]):  # reduce against the matrix's own echelon rows
        if f := unit[c]:
            unit = [(x - f * y) % p for x, y in zip(unit, row)]
    return m, n - m - any(unit), n + 1 - len(pivots)


# ------------------------------------------------------------ per curve

class Analysis(namedtuple("Analysis", [
    "classified",  # ClassifiedCurve
    "m_phi",  # int
    "m_phihat",  # int
    "sandwich_phi",  # (lower, upper), ints
    "sandwich_dual",  # (lower, upper), ints
    "bounds",  # bounds.BoundReport
])):
    """The per-curve certificate: descent sets, both matrix ranks, both sandwiches, bounds.

    Exact over Q: the sets, m_phi and m_phihat (F_p ranks of character
    matrices) and the sandwich dimensions, each a (lower, upper) pair of
    kernel dimensions of F_p matrices; selmer_dims gives a rank and a
    pair per direction from one elimination, with no kernel basis (only
    `shabound sandwich` prints bases).  Advisory over Q: bounds (the
    report's advisory_bounds), because the bound formulas need a totally
    imaginary field containing the p-th roots of unity.  Not yet pinned
    down: which Selmer group each sandwich brackets over Q.  On 11a3 ->
    11a1 (dim Sel^phi(E) = 1, dim Sel^phihat(E') = 0) the output
    (0, 0) / (0, 2) is consistent with sandwich_phi bracketing
    Sel^phihat(E') and sandwich_dual bracketing Sel^phi(E).
    """

    __slots__ = ()


# Over Q the paper's field hypotheses fail, so the bounds are advisory.
_Q_FIELD = FieldInvariants(1, 0, totally_imaginary=False, contains_zeta_p=False)


def analyze_curve(
    e: Curve,
    pt: Point,
    p: int,
    disc_factorization: Factorization | None = None,
) -> Analysis:
    """The descent pipeline for the isogeny with kernel <pt>, in both
    directions: classify_primes, then analyze_classified."""
    return analyze_classified(classify_primes(e, pt, p, disc_factorization))


def analyze_classified(cls: ClassifiedCurve) -> Analysis:
    """Everything after classify_primes, for p = cls.isogeny.p: one
    character table, selmer_dims in each direction, bound_report.

    The phihat direction takes its rows from the S1 primes that are 1
    mod p, as sandwich_from_sets does: the local groups of the others
    are trivial over Q.
    """
    p, s1, s2 = cls.isogeny.p, cls.sets.s1, cls.sets.s2
    table = character_table(p, s1, s2)
    phi = selmer_dims(p, s1, s2, table)
    dual = selmer_dims(p, s2, [q for q in s1 if q % p == 1], table)
    bounds = bound_report(_Q_FIELD, len(s1), len(s2), phi[0], dual[0])
    return Analysis(cls, phi[0], dual[0], phi[1:], dual[1:], bounds)
