"""Descent bookkeeping for a p-isogeny over Q.

Classifies the bad primes into S1/S2/S3 with two independent tests (the
reduction of the kernel point versus the discriminant-valuation ratio
under the isogeny), builds the power-residue character matrix whose rank
is m(S1, S2), and computes the two-sided Selmer sandwich dimensions.
analyze_curve runs the whole pipeline for one curve; the CLI and the
family scan both go through it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fplinalg
from .arith import (  # factor_with_hints: the benchmark's span table traces it here
    Factorization,
    character_eval,
    factor_with_hints,
    is_prime,
    residue_character,
)
from .bounds import BoundReport, FieldInvariants, bound_report
from .elliptic import (
    ADDITIVE,
    NONSPLIT,
    Curve,
    Point,
    minimal_model,
    reduce_point,
    reduction_at,
    singular_point,
    transform_point,
)
from .errors import ClassifierDisagreement, InputError
from .isogeny import IsogenyData, velu_quotient

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


@dataclass(frozen=True)
class DescentSets:
    p: int
    s1: tuple[int, ...]  # sorted; kernel point hits the singular locus
    s2: tuple[int, ...]  # sorted; kernel point stays on the smooth locus
    s3: tuple[int, ...]  # primes above p: always (p,) over Q
    excluded: tuple[tuple[int, str], ...]  # (prime, reason)
    evidence: tuple[tuple[int, str, str], ...]  # (prime, singular_point_test, valuation_ratio_test)


@dataclass(frozen=True)
class ClassifiedCurve:
    """Everything classify_primes learns along the way."""

    sets: DescentSets
    curve: Curve  # minimal model actually classified
    point: Point
    isogeny: IsogenyData
    disc_factorization: Factorization


def classify_primes(
    e: Curve,
    pt: Point,
    p: int,
    disc_factorization: Factorization | None = None,
) -> ClassifiedCurve:
    """Sort the split multiplicative primes of E into S1 and S2.

    Runs both classifiers on every candidate prime and aborts on any
    disagreement.  The input model is minimalized first (the point is
    carried along); velu_quotient checks that the point has order p.
    """
    emin, tr, fac_min = minimal_model(e, disc_factorization)
    pmin = transform_point(pt, tr)
    iso = velu_quotient(emin, pmin, p, fac_min.primes)
    s1, s2, excluded, evidence = [], [], [], []
    for q, v in fac_min.factors:
        if q == p:
            excluded.append((q, "above_p_overlap"))
            continue
        kind = reduction_at(emin, q)
        if kind == ADDITIVE:
            excluded.append((q, "additive"))
            continue
        if kind == NONSPLIT:
            excluded.append((q, "nonsplit"))
            continue
        # split multiplicative: the only kind left at a prime of the discriminant
        # test 1: does the kernel point reduce to the singular point?
        red_pt = reduce_point(emin, pmin, q)
        sing = singular_point(emin, q)
        verdict_pt = S1 if red_pt is not None and red_pt == sing else S2
        # test 2: discriminant valuation ratio under the isogeny
        vp = iso.codomain_disc_factorization.valuation(q)
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
    sets = DescentSets(
        p, tuple(sorted(s1)), tuple(sorted(s2)), (p,), tuple(excluded), tuple(evidence)
    )
    return ClassifiedCurve(sets, emin, pmin, iso, fac_min)


# --------------------------------------------------------- character matrix

def character_table(p: int, s1, s2) -> dict[int, dict[int, int]]:
    """chi_ell(q) for each ell = 1 mod p in one set and each q in the other set or q = p.

    Every character matrix and sandwich of the pair (S1, S2), in both
    directions, takes its rows from this table: row ell is table[ell].
    One character_eval per (ell, q) pair.
    """
    if not is_prime(p):
        raise InputError(f"modulus {p} is not prime")
    table = {}
    for ells, qs in ((s2, s1), (s1, s2)):
        for ell in ells:
            if ell % p == 1:
                chi = residue_character(ell, p)
                table.setdefault(ell, {}).update((q, character_eval(chi, q)) for q in (*qs, p))
    return table


def _character_rows(p: int, s1, s2, drop_trivial_rows: bool, table: dict | None):
    """The row primes ell of S2 and the rows chi_ell(q), q in S1, of the character matrix."""
    if set(s1) & set(s2):
        raise InputError(f"S1 and S2 overlap: {sorted(set(s1) & set(s2))}")
    if p in s1 or p in s2:
        raise InputError(f"p = {p} may not appear in S1 or S2")
    ells = []
    for ell in s2:
        if ell % p != 1:
            if drop_trivial_rows:
                continue
            raise InputError(f"S2 prime {ell} is not congruent to 1 mod {p}")
        ells.append(ell)
    if table is None:
        table = character_table(p, s1, s2)
    return ells, [[table[ell][q] for q in s1] for ell in ells]


def character_matrix(p: int, s1, s2, drop_trivial_rows: bool = False) -> fplinalg.FpMatrix:
    """Matrix of the inclusion map Q(S1,p) -> sum of local units mod p-th powers.

    Columns are the primes of S1 (generators of Q(S1, p)), rows the primes
    of S2, both as labels.  Entry (row ell, col q) is the residue character
    of q at ell.  With drop_trivial_rows, primes of S2 not congruent to
    1 mod p contribute a trivial local group and are silently omitted
    (needed for the dual direction over Q); otherwise they are rejected.
    """
    s1 = tuple(s1)
    ells, rows = _character_rows(p, s1, tuple(s2), drop_trivial_rows, None)
    return fplinalg.fp_matrix(
        p,
        rows,
        row_labels=[str(ell) for ell in ells],
        col_labels=[str(q) for q in s1],
        cols=len(s1),
    )


def m_rank(p: int, s1, s2, drop_trivial_rows: bool = False, table: dict | None = None) -> int:
    """m(S1, S2): the F_p-rank of the character matrix; table as for sandwich_from_sets."""
    return fplinalg.rank(p, _character_rows(p, tuple(s1), tuple(s2), drop_trivial_rows, table)[1])


# ------------------------------------------------------------ the sandwich

@dataclass(frozen=True)
class SandwichResult:
    p: int
    lower_dim: int
    upper_dim: int
    lower_support: tuple[int, ...]
    upper_support: tuple[int, ...]
    lower_basis: tuple[tuple[int, ...], ...]  # exponent vectors over lower_support
    upper_basis: tuple[tuple[int, ...], ...]


def _p_adic_unit_condition_row(support, p: int) -> list[int]:
    """Linear condition for a product of the support primes to be a p-adic p-th power.

    For a prime q != p the class of q in (1-units mod p-th powers) is
    measured by (q^(p-1) - 1)/p mod p.
    """
    row = []
    for q in support:
        u = pow(q, p - 1, p * p)
        row.append(((u - 1) // p) % p)
    return row


def sandwich_from_sets(p: int, s1, s2, table: dict | None = None) -> SandwichResult:
    """Upper and lower sandwich groups from the descent sets, over Q.

    Q(S,p) is free on the primes of S for odd p (the sign is a p-th
    power), so both groups are kernels of explicit F_p matrices, and
    their dimensions are exact over Q as kernel dimensions.  Which
    Selmer group the pair brackets over Q is not pinned down: both groups
    sit in Q*/Q*^p = H^1(Q, mu_p), home of the mu_p-side group
    Sel^phihat(E'), while Sel^phi(E) lies in H^1(Q, Z/p).  The paper's
    field contains the p-th roots of unity, where the two agree (see
    Analysis).  table is character_table(p, S1, S2), built here if not given.
    """
    s1, s2 = tuple(sorted(s1)), tuple(sorted(s2))
    if table is None:
        table = character_table(p, s1, s2)
    ells = [ell for ell in s2 if ell % p == 1]
    upper_support = tuple(sorted(set(s1) | {p}))
    upper_rows = [[table[ell][q] for q in upper_support] for ell in ells]
    upper_basis = fplinalg.kernel_basis(p, upper_rows, len(upper_support))
    lower_support = s1
    lower_rows = [[table[ell][q] for q in lower_support] for ell in ells]
    lower_rows.append(_p_adic_unit_condition_row(lower_support, p))
    lower_basis = fplinalg.kernel_basis(p, lower_rows, len(lower_support))
    return SandwichResult(
        p,
        len(lower_basis),
        len(upper_basis),
        lower_support,
        upper_support,
        tuple(lower_basis),
        tuple(upper_basis),
    )


# ------------------------------------------------------------ per curve

@dataclass(frozen=True)
class Analysis:
    """The per-curve certificate: descent sets, both matrix ranks, both sandwiches, bounds.

    Exact over Q: the sets, m_phi and m_phihat (F_p ranks of character
    matrices) and the sandwich dimensions (kernel dimensions of F_p
    matrices).  Advisory over Q: bounds (the report's advisory_bounds),
    because the bound formulas need a totally imaginary field containing
    the p-th roots of unity.  Not yet pinned down: which Selmer group
    each sandwich brackets over Q.  On 11a3 -> 11a1 (dim Sel^phi(E) = 1,
    dim Sel^phihat(E') = 0) the output [0, 0] / [0, 2] is consistent
    with sandwich_phi bracketing Sel^phihat(E') and sandwich_dual
    bracketing Sel^phi(E).
    """

    classified: ClassifiedCurve
    m_phi: int
    m_phihat: int
    sandwich_phi: SandwichResult
    sandwich_dual: SandwichResult
    bounds: BoundReport


# Over Q the paper's field hypotheses fail, so the bounds are advisory.
_Q_FIELD = FieldInvariants(1, 0, totally_imaginary=False, contains_zeta_p=False)


def analyze_curve(
    e: Curve,
    pt: Point,
    p: int,
    disc_factorization: Factorization | None = None,
) -> Analysis:
    """The descent pipeline for the isogeny with kernel <pt>, in both directions.

    m_phihat drops the rows of S1 primes that are not 1 mod p: their
    local groups are trivial over Q.
    """
    cls = classify_primes(e, pt, p, disc_factorization)
    s1, s2 = cls.sets.s1, cls.sets.s2
    table = character_table(p, s1, s2)
    m_phi = m_rank(p, s1, s2, table=table)
    m_phihat = m_rank(p, s2, s1, drop_trivial_rows=True, table=table)
    return Analysis(
        cls,
        m_phi,
        m_phihat,
        sandwich_from_sets(p, s1, s2, table),
        sandwich_from_sets(p, s2, s1, table),
        bound_report(_Q_FIELD, len(s1), len(s2), m_phi, m_phihat),
    )
