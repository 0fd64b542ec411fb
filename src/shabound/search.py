"""Constrained scan of one-parameter torsion families over Q.

The fibers are Tate normal forms with (0,0) of order p (p = 5 or 7);
prescribed primes are forced into the S1/S2 sets by CRT congruences on
the parameter, candidate fibers are filtered by the number of distinct
primes in the discriminant, and the survivors are ranked by their
certified descent invariants.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import polys
from .arith import Factorization, crt_solve, factor, is_prime, require_complete
from .descent import S1, S2, ClassifiedCurve, analyze_curve, valuation_ratio_set
from .elliptic import (
    Curve,
    invariants,
    minimal_model,
    transform_point,
)
from .errors import (
    ClassifierDisagreement,
    DegenerateFiber,
    IncompleteFactorization,
    InputError,
    ShaboundError,
    SingularModel,
    UnreachableCusp,
)
from .isogeny import dual_kernel_poly, velu_quotient_from_kernel_poly

Q = Fraction


@dataclass(frozen=True)
class FactorPoly:
    """An irreducible factor of the family discriminant, with its cusp role."""

    coeffs: tuple[int, ...]  # low-degree-first, primitive, positive leading
    multiplicity: int
    role: str  # which S-set a prime dividing this factor lands in

    def eval_at(self, b: int) -> int:
        return polys.evaluate(self.coeffs, b)


@dataclass(frozen=True)
class FamilySpec:
    p: int
    parameter_name: str
    ainv_polys: tuple[tuple[int, ...], ...]  # five coefficient lists in the parameter
    factor_polys: tuple[FactorPoly, ...]  # the discriminant's content is 1 in both families

    def ainvs_at(self, b: int) -> tuple[int, int, int, int, int]:
        return tuple(polys.evaluate(cs, b) for cs in self.ainv_polys)


# Tate normal form E(B, C): y^2 + (1 - C)xy - By = x^3 - Bx^2 with (0, 0) of
# order p (Kubert, Proc. LMS 1976), in the family parameter b:
#   p = 5: B = C = b, discriminant b^5 (b^2 - 11b - 1);
#   p = 7: B = b^3 - b^2, C = b^2 - b, discriminant b^7 (b - 1)^7 (b^3 - 8b^2 + 5b + 1).
# A factor's role is the set the descent classifier puts a split
# multiplicative prime dividing only that factor in.
_FAMILIES = {
    5: FamilySpec(
        5, "b", ((1, -1), (0, -1), (0, -1), (0,), (0,)),
        (FactorPoly((0, 1), 5, S1), FactorPoly((-1, -11, 1), 1, S2)),
    ),
    7: FamilySpec(
        7, "b", ((1, 1, -1), (0, 0, 1, -1), (0, 0, 1, -1), (0,), (0,)),
        (
            FactorPoly((-1, 1), 7, S1),
            FactorPoly((0, 1), 7, S1),
            FactorPoly((1, 5, -8, 1), 1, S2),
        ),
    ),
}


def tate_family(p: int) -> FamilySpec:
    """The p-torsion Tate-normal-form family with its discriminant factors and their roles."""
    if p not in _FAMILIES:
        raise InputError("families are available for p in {5, 7}")
    return _FAMILIES[p]


@dataclass(frozen=True)
class Fiber:
    b: int
    curve: Curve  # minimal model
    point: tuple[Fraction, Fraction]
    disc_factorization: Factorization


def fiber(family: FamilySpec, b: int) -> Fiber:
    """The family member at parameter b, minimalized, with its marked point."""
    try:
        e = invariants(*family.ainvs_at(b))
    except SingularModel as exc:
        raise DegenerateFiber(f"parameter {b} gives a singular fiber") from exc
    fac = _fiber_disc_factorization(family, b, e.disc)
    emin, tr, fac_min = minimal_model(e, fac)
    pt = transform_point((Q(0), Q(0)), tr)
    return Fiber(b, emin, pt, fac_min)


def _fiber_disc_factorization(family: FamilySpec, b: int, disc: int) -> Factorization:
    """Factor the fiber discriminant factor-polynomial-wise (smaller pieces)."""
    merged: dict[int, int] = {}
    sign = 1
    for fp in family.factor_polys:
        value, mult = fp.eval_at(b), fp.multiplicity
        if value < 0:
            sign *= (-1) ** mult
        fac = require_complete(factor(value)) if abs(value) != 1 else None
        if fac is None:
            continue
        for q, e in fac.factors:
            merged[q] = merged.get(q, 0) + e * mult
    result = Factorization(disc, sign, tuple(sorted(merged.items())))
    return result


@dataclass(frozen=True)
class SearchConstraints:
    p: int
    force_s1: tuple[int, ...] = ()
    force_s2: tuple[int, ...] = ()
    omega_max: int | None = None
    scan_budget: int = 1000
    parameter_box: int = 1000
    verify_dual: bool = True

    def __post_init__(self):
        for name in ("scan_budget", "parameter_box", "omega_max"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise InputError(f"{name} must be nonnegative, got {value}")
        if self.p in self.force_s1 + self.force_s2:
            raise InputError(f"p = {self.p} is never in S1 or S2 and cannot be forced")
        if set(self.force_s1) & set(self.force_s2):
            raise InputError("forced S1 and S2 prime lists must be disjoint")
        for ell in self.force_s1 + self.force_s2:
            if not is_prime(ell):
                raise InputError(f"forced value {ell} is not prime")
        for ell in self.force_s2:
            if ell % self.p != 1:
                raise InputError(f"forced S2 prime {ell} is not 1 mod {self.p}")


def construct_parameter(family: FamilySpec, c: SearchConstraints) -> tuple[int, int]:
    """CRT parameter forcing: least nonnegative b and the modulus of the class.

    Forced S1 primes get b = 0 mod ell (the S1-cusp factor vanishes
    there); forced S2 primes get b = (smallest root of the S2 factor
    polynomial) mod ell, or UnreachableCusp when there is none.
    """
    s2_factors = [fp for fp in family.factor_polys if fp.role == S2]
    congruences: list[tuple[int, int]] = []
    for ell in c.force_s1:
        congruences.append((0, ell))
    for ell in c.force_s2:
        root = None
        for fp in s2_factors:
            rts = polys.roots_modq(list(fp.coeffs), ell)
            if rts:
                root = rts[0]
                break
        if root is None:
            raise UnreachableCusp(f"no S2 factor polynomial has a root mod {ell}")
        congruences.append((root, ell))
    if not congruences:
        return 0, 1
    modulus = 1
    for _, ell in congruences:
        modulus *= ell
    return crt_solve(congruences), modulus


# ------------------------------------------------------------------- scan

def _verify_dual_swap(cls: ClassifiedCurve) -> bool:
    """Re-derive the dual isogeny explicitly and check the S1/S2 swap.

    What this certifies is the round trip E -> E' -> E'/<dual kernel>:
    the dual kernel polynomial is rebuilt from the isogeny, Velu's quotient
    of E' by it is taken, and it must have E's minimal (c4, c6, Delta).
    Once it does, the per-prime swap follows: valuation_ratio_set maps
    (v_q(Delta'), v_q(Delta)) to the other set by construction.  The loop
    over the primes stays as a guard on that bookkeeping.
    """
    iso = cls.isogeny
    p = cls.sets.p
    h_dual = dual_kernel_poly(iso)
    iso_dual = velu_quotient_from_kernel_poly(
        iso.codomain, h_dual, p, iso.codomain_disc_factorization.primes
    )
    back = iso_dual.codomain
    if (back.c4, back.c6, back.disc) != (cls.curve.c4, cls.curve.c6, cls.curve.disc):
        return False
    fac_mid, fac_back = iso.codomain_disc_factorization, iso_dual.codomain_disc_factorization
    for q, verdict, _ in cls.sets.evidence:
        dual_verdict = valuation_ratio_set(p, fac_mid.valuation(q), fac_back.valuation(q))
        if dual_verdict != (S2 if verdict == S1 else S1):
            return False
    return True


def evaluate_row(p: int, b: int, verify_dual: bool = True) -> dict:
    """Evaluate one fiber end to end; returns a JSON-able row dict.

    Per-row failures are recorded in the row rather than raised: a
    singular fiber, an incomplete factorization, a classifier
    disagreement, and any other ShaboundError under its class name.
    The row keeps the fields filled in before the failure.
    """
    family = tate_family(p)
    row: dict = {"b": b}
    try:
        _fill_row(row, family, b, verify_dual)
    except DegenerateFiber:
        row["error"] = "degenerate"
    except IncompleteFactorization:
        row["error"] = "incomplete_factorization"
    except ClassifierDisagreement as exc:
        row["error"] = "classifier_disagreement"
        row["detail"] = str(exc)
    except ShaboundError as exc:
        row["error"] = type(exc).__name__
        row["detail"] = str(exc)
    return row


def _fill_row(row: dict, family: FamilySpec, b: int, verify_dual: bool) -> None:
    p = family.p
    fib = fiber(family, b)
    row["curve"] = list(fib.curve.ainvs())
    row["disc"] = fib.curve.disc
    row["omega_of_cofactor"] = len(fib.disc_factorization.factors)
    an = analyze_curve(fib.curve, fib.point, p, fib.disc_factorization)
    sets = an.classified.sets
    row["s1"] = list(sets.s1)
    row["s2"] = list(sets.s2)
    row["s3"] = list(sets.s3)
    row["excluded"] = [list(x) for x in sets.excluded]
    row["m_phi"] = an.m_phi
    row["m_phihat"] = an.m_phihat
    row["sandwich_phi"] = [an.sandwich_phi.lower_dim, an.sandwich_phi.upper_dim]
    row["sandwich_dual"] = [an.sandwich_dual.lower_dim, an.sandwich_dual.upper_dim]
    adv = an.bounds
    row["advisory_bounds"] = {
        "hypothesis_ok": adv.hypothesis_ok,
        "selmer_lower": adv.selmer_lower,
        "selmer_upper": adv.selmer_upper,
        "rank_upper": adv.rank_upper,
        "sum_lower": adv.sum_lower,
        "sha_lower": adv.sha_lower,
    }
    row["selmer_sum_proxy"] = abs(len(sets.s1) - len(sets.s2))
    if verify_dual:
        row["dual_swap_verified"] = _verify_dual_swap(an.classified)


def _row_with_forcing(args) -> dict:
    p, b, verify_dual, force_s1, force_s2 = args
    row = evaluate_row(p, b, verify_dual)
    if "error" in row:
        return row
    flags = []
    for ell in force_s1:
        if ell not in row["s1"]:
            flags.append([ell, S1])
    for ell in force_s2:
        if ell not in row["s2"]:
            flags.append([ell, S2])
    if flags:
        row["forcing_failed"] = flags
    for ell in list(force_s1) + list(force_s2):
        if row["disc"] % ell:
            row["error"] = "forced_prime_missing"
            row["detail"] = f"forced prime {ell} does not divide the discriminant"
            break
    return row


def scan(family: FamilySpec, c: SearchConstraints, jobs: int = 1, progress=None) -> dict:
    """Scan the family under the constraints; deterministic ranked report.

    With forcing constraints the parameter runs over the CRT class
    b0 + k*M; otherwise over 1, -1, 2, -2, ... up to the parameter box.
    Rows arrive in parameter order at every jobs count; progress(done,
    total) is called every 50 fibers.  Rows are ranked by
    (|#S1 - #S2|, m_phi) descending, ties broken by parameter height.
    """
    if jobs < 1:
        raise InputError(f"jobs must be at least 1, got {jobs}")
    b0, modulus = construct_parameter(family, c)
    total = c.scan_budget if modulus > 1 else min(c.scan_budget, 2 * c.parameter_box)
    steps = itertools.chain.from_iterable((k, -k) for k in itertools.count(1))  # 1, -1, 2, -2, ...
    if modulus > 1:
        candidates = (b0 + k * modulus for k in itertools.chain((0,), steps))
    else:
        candidates = itertools.takewhile(lambda b: b <= c.parameter_box, steps)
    args = (
        (c.p, b, c.verify_dual, c.force_s1, c.force_s2)
        for b in itertools.islice(candidates, c.scan_budget)
    )
    skipped = {"degenerate": 0, "incomplete_factorization": 0, "filtered_omega": 0}
    kept = []
    errored = []
    with concurrent.futures.ProcessPoolExecutor(jobs) if jobs > 1 else contextlib.nullcontext() as pool:
        rows = pool.map(_row_with_forcing, args, chunksize=16) if pool else map(_row_with_forcing, args)
        for done, row in enumerate(rows, 1):
            if progress and done % 50 == 0:
                progress(done, total)
            err = row.get("error")
            if err in ("degenerate", "incomplete_factorization"):
                skipped[err] += 1
            elif err:
                errored.append(row)
            elif c.omega_max is not None and row["omega_of_cofactor"] > c.omega_max:
                skipped["filtered_omega"] += 1
            else:
                kept.append(row)
    kept.sort(key=lambda r: (-r["selmer_sum_proxy"], -r["m_phi"], abs(r["b"]), r["b"] < 0))
    return {
        "family": {"p": c.p, "parameter": family.parameter_name},
        "constraints": {
            "force_s1": list(c.force_s1),
            "force_s2": list(c.force_s2),
            "omega_max": c.omega_max,
            "scan_budget": c.scan_budget,
            "parameter_box": c.parameter_box,
        },
        "crt": {"b0": b0, "modulus": modulus},
        "rows": kept,
        "errors": errored,
        "skipped": skipped,
    }
