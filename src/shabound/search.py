"""Constrained scan of one-parameter torsion families over Q.

The fibers are Tate normal forms with (0,0) of order p (p = 5 or 7);
prescribed primes are forced into the S1/S2 sets by CRT congruences on
the parameter, candidate fibers are filtered by the number of distinct
primes in the discriminant, and the survivors are ranked by their
certified descent invariants.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import sympy

from . import polys
from .arith import Factorization, crt_solve, factor, is_prime, require_complete, valuation
from .bounds import FieldInvariants, bound_report
from .descent import (
    ClassifiedCurve,
    classify_primes,
    dual_sets,
    m_rank,
    sandwich_from_sets,
)
from .elliptic import (
    Curve,
    invariants,
    minimal_disc_factorization,
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

ROLE_S1 = "S1"
ROLE_S2 = "S2"


@dataclass(frozen=True)
class FactorPoly:
    """An irreducible factor of the family discriminant, with its cusp role."""

    coeffs: tuple[int, ...]  # low-degree-first, primitive, positive leading
    multiplicity: int
    role: str  # which S-set a prime dividing this factor lands in

    def eval_at(self, b: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * b + c
        return acc


@dataclass(frozen=True)
class FamilySpec:
    p: int
    parameter_name: str
    ainv_polys: tuple[tuple[int, ...], ...]  # five coefficient lists in the parameter
    disc_const: int  # constant content of the discriminant polynomial
    factor_polys: tuple[FactorPoly, ...]

    def ainvs_at(self, b: int) -> tuple[int, int, int, int, int]:
        out = []
        for cs in self.ainv_polys:
            acc = 0
            for c in reversed(cs):
                acc = acc * b + c
            out.append(acc)
        return tuple(out)


def _ainv_polys(p: int) -> tuple[tuple[int, ...], ...]:
    b = sympy.symbols("b")
    if p == 5:
        exprs = (1 - b, -b, -b, sympy.Integer(0), sympy.Integer(0))
    elif p == 7:
        # Tate normal form for 7-torsion, parameter d: c = d^2 - d, b = d^3 - d^2
        c_expr = b**2 - b
        b_expr = b**3 - b**2
        exprs = (1 - c_expr, -b_expr, -b_expr, sympy.Integer(0), sympy.Integer(0))
    else:
        raise InputError("families are available for p in {5, 7}")
    out = []
    for ex in exprs:
        poly = sympy.Poly(ex, b)
        out.append(tuple(int(c) for c in reversed(poly.all_coeffs())))
    return tuple(out)


def _probe_role(p: int, ainv_polys, fpoly_coeffs: tuple[int, ...]) -> str:
    """Classify one discriminant factor by probing an actual fiber.

    Finds a prime ell and a parameter value where only this factor
    vanishes mod ell and the reduction is split multiplicative, then asks
    the descent classifier which set ell landed in.
    """
    spec_tmp = FamilySpec(p, "b", ainv_polys, 1, ())
    ell = 2
    attempts = 0
    while attempts < 400:
        ell = _next_prime(ell)
        roots = polys.roots_modq(list(fpoly_coeffs), ell) if ell < 10**4 else []
        for b0 in roots:
            for shift in range(3):
                b = b0 + shift * ell
                try:
                    e = invariants(*spec_tmp.ainvs_at(b))
                except SingularModel:
                    continue
                if e.disc % ell != 0:
                    continue
                try:
                    cls = classify_primes(e, (Q(0), Q(0)), p)
                except (ClassifierDisagreement, IncompleteFactorization):
                    continue
                if ell in cls.sets.s1:
                    return ROLE_S1
                if ell in cls.sets.s2:
                    return ROLE_S2
            attempts += 1
        attempts += 1
    raise InputError(f"could not determine the cusp role of factor {fpoly_coeffs}")


def _next_prime(n: int) -> int:
    n += 1
    while not is_prime(n):
        n += 1
    return n


@lru_cache(maxsize=None)
def tate_family(p: int) -> FamilySpec:
    """The p-torsion Tate-normal-form family, with derived factor polynomials.

    The discriminant is expanded symbolically in the parameter, factored
    into irreducibles, and each factor's cusp role is pinned empirically
    by classifying a probe fiber.
    """
    ainv_polys = _ainv_polys(p)
    b = sympy.symbols("b")
    a1, a2, a3, a4, a6 = (
        sum(sympy.Integer(c) * b**i for i, c in enumerate(cs)) for cs in ainv_polys
    )
    b2 = a1**2 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3**2 + 4 * a6
    b8 = a1**2 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3**2 - a4**2
    disc = sympy.expand(-(b2**2) * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6)
    const, factors = sympy.factor_list(sympy.Poly(disc, b))
    fps = []
    for poly, mult in factors:
        coeffs = [int(c) for c in reversed(sympy.Poly(poly, b).all_coeffs())]
        if coeffs[-1] < 0:
            coeffs = [-c for c in coeffs]
        role = _probe_role(p, ainv_polys, tuple(coeffs))
        fps.append(FactorPoly(tuple(coeffs), int(mult), role))
    fps.sort(key=lambda f: (f.role, f.coeffs))
    return FamilySpec(p, "b", ainv_polys, int(const), tuple(fps))


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
    emin, tr = minimal_model(e, fac)
    pt = transform_point((Q(0), Q(0)), tr)
    return Fiber(b, emin, pt, minimal_disc_factorization(fac, tr))


def _fiber_disc_factorization(family: FamilySpec, b: int, disc: int) -> Factorization:
    """Factor the fiber discriminant factor-polynomial-wise (smaller pieces)."""
    merged: dict[int, int] = {}
    sign = 1
    pieces = [(family.disc_const, 1)] + [
        (fp.eval_at(b), fp.multiplicity) for fp in family.factor_polys
    ]
    for value, mult in pieces:
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
    s2_factors = [fp for fp in family.factor_polys if fp.role == ROLE_S2]
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


@dataclass(frozen=True)
class FilterResult:
    kept: tuple[int, ...]
    incomplete: tuple[int, ...]


def almost_prime_filter(values, omega_max: int) -> FilterResult:
    """Keep values whose number of distinct prime factors is at most omega_max."""
    kept, incomplete = [], []
    for v in values:
        if v == 0:
            raise InputError("values must be nonzero")
        if abs(v) == 1:
            if omega_max >= 0:
                kept.append(v)
            continue
        f = factor(v)
        if not f.complete:
            incomplete.append(v)
            continue
        if len(f.factors) <= omega_max:
            kept.append(v)
    return FilterResult(tuple(kept), tuple(incomplete))


# ------------------------------------------------------------------- scan

def _verify_dual_swap(cls: ClassifiedCurve) -> bool:
    """Re-derive the dual isogeny explicitly and check the S1/S2 swap."""
    iso = cls.isogeny
    p = cls.sets.p
    h_dual = dual_kernel_poly(iso)
    iso_dual = velu_quotient_from_kernel_poly(iso.codomain, h_dual, p)
    back = iso_dual.codomain
    if (back.c4, back.c6, back.disc) != (cls.curve.c4, cls.curve.c6, cls.curve.disc):
        return False
    fac_mid = cls.codomain_disc_factorization
    for q, verdict, _ in cls.sets.evidence:
        v_mid = fac_mid.valuation(q)
        v_back = valuation(back.disc, q)
        if v_back == p * v_mid:
            dual_verdict = ROLE_S2
        elif p * v_back == v_mid:
            dual_verdict = ROLE_S1
        else:
            return False
        expected = ROLE_S2 if verdict == ROLE_S1 else ROLE_S1
        if dual_verdict != expected:
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
    cls = classify_primes(fib.curve, fib.point, p, fib.disc_factorization)
    sets = cls.sets
    row["s1"] = list(sets.s1)
    row["s2"] = list(sets.s2)
    row["s3"] = list(sets.s3)
    row["excluded"] = [list(x) for x in sets.excluded]
    m_phi = m_rank(p, sets.s1, sets.s2)
    m_phihat = m_rank(p, sets.s2, sets.s1, drop_trivial_rows=True)
    row["m_phi"] = m_phi
    row["m_phihat"] = m_phihat
    sw = sandwich_from_sets(p, sets.s1, sets.s2)
    swd = sandwich_from_sets(p, sets.s2, sets.s1)
    row["sandwich_phi"] = [sw.lower_dim, sw.upper_dim]
    row["sandwich_dual"] = [swd.lower_dim, swd.upper_dim]
    adv = bound_report(FieldInvariants(1, 0, False, False), len(sets.s1), len(sets.s2), m_phi, m_phihat)
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
        row["dual_swap_verified"] = _verify_dual_swap(cls)


def _row_with_forcing(args) -> dict:
    p, b, verify_dual, force_s1, force_s2 = args
    row = evaluate_row(p, b, verify_dual)
    if "error" in row:
        return row
    flags = []
    for ell in force_s1:
        if ell not in row["s1"]:
            flags.append([ell, "S1"])
    for ell in force_s2:
        if ell not in row["s2"]:
            flags.append([ell, "S2"])
    if flags:
        row["forcing_failed"] = flags
    for ell in list(force_s1) + list(force_s2):
        assert row["disc"] % ell == 0, "forced prime missing from the discriminant"
    return row


def scan(family: FamilySpec, c: SearchConstraints, jobs: int = 1, progress=None) -> dict:
    """Scan the family under the constraints; deterministic ranked report.

    With forcing constraints the parameter runs over the CRT class
    b0 + k*M; otherwise over 1, -1, 2, -2, ... up to the parameter box.
    Rows are ranked by (|#S1 - #S2|, m_phi) descending, ties broken by
    parameter height.
    """
    b0, modulus = construct_parameter(family, c)
    if modulus > 1:
        candidates = []
        k = 0
        while len(candidates) < c.scan_budget:
            for cand in ((b0 + k * modulus,) if k == 0 else (b0 + k * modulus, b0 - k * modulus)):
                if len(candidates) < c.scan_budget:
                    candidates.append(cand)
            k += 1
    else:
        candidates = []
        b = 1
        while len(candidates) < c.scan_budget and b <= c.parameter_box:
            candidates.append(b)
            if len(candidates) < c.scan_budget:
                candidates.append(-b)
            b += 1
    args = [(c.p, b, c.verify_dual, c.force_s1, c.force_s2) for b in candidates]
    if jobs > 1:
        tate_family(c.p)  # prime the cache before forking
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_row_with_forcing, args, chunksize=16))
    else:
        rows = []
        for i, a in enumerate(args):
            rows.append(_row_with_forcing(a))
            if progress and (i + 1) % 50 == 0:
                progress(i + 1, len(args))
    skipped = {"degenerate": 0, "incomplete_factorization": 0, "filtered_omega": 0}
    kept = []
    errored = []
    for row in rows:
        err = row.get("error")
        if err == "degenerate":
            skipped["degenerate"] += 1
            continue
        if err == "incomplete_factorization":
            skipped["incomplete_factorization"] += 1
            continue
        if err:
            errored.append(row)
            continue
        if c.omega_max is not None and row["omega_of_cofactor"] > c.omega_max:
            skipped["filtered_omega"] += 1
            continue
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
