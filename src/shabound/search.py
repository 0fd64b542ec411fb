"""Constrained scan of one-parameter torsion families over Q.

The fibers are Tate normal forms with (0,0) of order p (p = 5 or 7);
prescribed primes are forced into the S1/S2 sets by CRT congruences on
the parameter, candidate fibers are filtered by the number of distinct
primes in the discriminant, and the survivors are ranked by their
certified descent invariants.
"""

from __future__ import annotations

import contextlib
import itertools
import marshal
import os
import sys
from collections import namedtuple
from math import prod

from . import polys
from .arith import crt_solve, factor_product, is_prime, require_complete
from .descent import S1, S2, ClassifiedCurve, analyze_classified, classify_primes
from .elliptic import invariants, isomorphic_to_minimal
from .errors import (
    ClassifierDisagreement,
    DegenerateFiber,
    IncompleteFactorization,
    InputError,
    ShaboundError,
    SingularModel,
    UnreachableCusp,
)
from .isogeny import scaled_dual_kernel, velu_model_from_scaled_kernel


class FactorPoly(namedtuple("FactorPoly", [
    "coeffs",  # tuple[int, ...], low-degree-first, primitive, positive leading
    "multiplicity",  # int
    "role",  # S1 or S2: the set a prime dividing this factor lands in
])):
    """An irreducible factor of the family discriminant, with its cusp role."""

    __slots__ = ()

    def eval_at(self, b: int) -> int:
        return polys.evaluate(self.coeffs, b)


class FamilySpec(namedtuple("FamilySpec", [
    "ainv_polys",  # five coefficient tuples in the parameter b
    "factor_polys",  # tuple[FactorPoly, ...]; the discriminant's content is 1 in both families
])):
    """A family in the parameter b, its discriminant the product of its factor polynomials."""

    __slots__ = ()

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
        ((1, -1), (0, -1), (0, -1), (0,), (0,)),
        (FactorPoly((0, 1), 5, S1), FactorPoly((-1, -11, 1), 1, S2)),
    ),
    7: FamilySpec(
        ((1, 1, -1), (0, 0, 1, -1), (0, 0, 1, -1), (0,), (0,)),
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


class Fiber(namedtuple("Fiber", [
    "curve",  # Curve, the Tate model, which is minimal at every integer parameter
    "point",  # (0, 0), kept as ints
    "disc_factorization",  # Factorization of curve.disc
])):
    __slots__ = ()


def fiber(family: FamilySpec, b: int) -> Fiber:
    """The Tate model at parameter b, its marked point (0, 0) and its
    discriminant factored by arith.factor_product from the values of the
    factor polynomials at b, each a smaller number than the discriminant;
    IncompleteFactorization if a value resists.

    No minimal model is taken here: at an integer parameter the model is
    already minimal in both families.  For each factor f of the
    discriminant, Res(c4, f) is +-1 or +-p^2, so every bad prime q != p
    is multiplicative, and v_p(Delta) < 12 where p divides the S2 factor.
    classify_primes is the one minimalization, as for `shabound analyze`.
    """
    try:
        e = invariants(*family.ainvs_at(b))
    except SingularModel as exc:
        raise DegenerateFiber(f"parameter {b} gives a singular fiber") from exc
    pieces = ((abs(fp.eval_at(b)), fp.multiplicity) for fp in family.factor_polys)
    return Fiber(e, (0, 0), require_complete(factor_product(e.disc, pieces)))


class SearchConstraints(namedtuple("SearchConstraints", [
    "p",  # int
    "force_s1",  # tuple[int, ...]
    "force_s2",  # tuple[int, ...]
    "omega_max",  # int, or None for no filter
    "scan_budget",  # int
    "parameter_box",  # int
    "verify_dual",  # bool
])):
    __slots__ = ()

    def __new__(
        cls,
        p: int,
        force_s1: tuple[int, ...] = (),
        force_s2: tuple[int, ...] = (),
        omega_max: int | None = None,
        scan_budget: int = 1000,
        parameter_box: int = 1000,
        verify_dual: bool = True,
    ):
        self = super().__new__(cls, p, force_s1, force_s2, omega_max, scan_budget, parameter_box, verify_dual)
        tate_family(self.p)  # first: the checks below divide by p
        for name in ("scan_budget", "parameter_box", "omega_max"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise InputError(f"{name} must be nonnegative, got {value}")
        if self.scan_budget > sys.maxsize:  # the scan's islice takes no larger stop
            raise InputError(f"scan_budget must be at most {sys.maxsize}, got {self.scan_budget}")
        if self.p in self.force_s1 + self.force_s2:
            raise InputError(f"p = {self.p} is never in S1 or S2 and cannot be forced")
        if set(self.force_s1) & set(self.force_s2):
            raise InputError("forced S1 and S2 prime lists must be disjoint")
        for ell in self.force_s1 + self.force_s2:
            if ell < 2 or not is_prime(ell):
                raise InputError(f"forced value {ell} is not prime")
        for name in ("force_s1", "force_s2"):
            primes = getattr(self, name)
            for i, ell in enumerate(primes):
                if ell in primes[:i]:  # the CRT step needs each modulus once
                    raise InputError(f"{name}: repeated prime {ell} in {list(primes)}")
        for ell in self.force_s2:
            if ell % self.p != 1:
                raise InputError(f"forced S2 prime {ell} is not 1 mod {self.p}")
        return self


def construct_parameter(c: SearchConstraints) -> tuple[int, int]:
    """CRT parameter forcing in tate_family(c.p): least nonnegative b and
    the modulus of the class.

    Forced S1 primes get b = 0 mod ell (the S1-cusp factor vanishes
    there); forced S2 primes get b = (smallest root of the S2 factor
    polynomial) mod ell, or UnreachableCusp when there is none.
    """
    s2_factors = [fp for fp in tate_family(c.p).factor_polys if fp.role == S2]
    congruences = [(0, ell) for ell in c.force_s1]
    for ell in c.force_s2:
        roots = [r for fp in s2_factors for r in polys.roots_modq(list(fp.coeffs), ell)]
        if not roots:
            raise UnreachableCusp(f"no S2 factor polynomial has a root mod {ell}")
        congruences.append((roots[0], ell))
    return crt_solve(congruences), prod(ell for _, ell in congruences)


# ------------------------------------------------------------------- scan

def _verify_dual_swap(cls: ClassifiedCurve) -> bool:
    """Re-derive the dual isogeny explicitly and check the round trip.

    What this certifies is the round trip E -> E' -> E'/<dual kernel>:
    the dual kernel is rebuilt from the isogeny as ints (H, kappa), Velu's
    integral model of E'/<h'> is taken after its kernel checks on E', and
    a closed-form test must find it isomorphic over Q to E's minimal model
    (elliptic.isomorphic_to_minimal): no Fraction, factorization or
    minimal model.  The per-prime S1/S2 swap then follows:
    valuation_ratio_set(p, v', v) is the other set from
    valuation_ratio_set(p, v, v') whenever v >= 1, since v' = p v and
    v = p v' cannot both hold.
    """
    iso = cls.isogeny
    back = velu_model_from_scaled_kernel(iso.codomain, *scaled_dual_kernel(iso), iso.p)
    return isomorphic_to_minimal(back, cls.curve)


def evaluate_row(c: SearchConstraints, b: int) -> dict:
    """Evaluate the fiber at b of tate_family(c.p) under the constraints
    c, end to end; returns a JSON-able row dict.

    This is the one place that decides a fiber's outcome, and the row
    carries it as row.get("error", "kept").  The outcome is the first of:
    - degenerate: the fiber is singular;
    - incomplete_factorization: the fiber's or Velu's codomain's
      discriminant resists factoring;
    - an error row: classifier_disagreement, any other ShaboundError
      under its class name, any other exception (a bug) as
      internal_error with its traceback on stderr, or
      forced_prime_missing;
    - filtered_omega: more than c.omega_max distinct discriminant primes;
    - kept.
    A failed row keeps the fields filled in before the failure.  A row
    that raised nothing gets the forcing checks: forcing_failed lists
    each forced [ell, set] that ell is not in, and a forced ell that
    does not divide the discriminant makes it forced_prime_missing.

    A fiber over c.omega_max stops after classify_primes: its row holds
    curve, disc, omega_of_cofactor, s1 and s2, and no character table,
    elimination or bound is built.  It still goes through every step that
    can give it an earlier outcome: fiber(), classify_primes (Velu, the
    codomain's factoring, both classifiers), the dual check when
    c.verify_dual is on (only a kept row stores dual_swap_verified) and
    the forcing checks.
    """
    row: dict = {"b": b}
    try:
        fib = fiber(tate_family(c.p), b)
        row["curve"] = list(fib.curve.ainvs())
        row["disc"] = fib.curve.disc
        row["omega_of_cofactor"] = len(fib.disc_factorization.factors)
        cls = classify_primes(fib.curve, fib.point, c.p, fib.disc_factorization)
        sets = cls.sets
        row["s1"] = list(sets.s1)
        row["s2"] = list(sets.s2)
        over = c.omega_max is not None and row["omega_of_cofactor"] > c.omega_max
        if not over:
            an = analyze_classified(cls)
            row["s3"] = list(sets.s3)
            row["excluded"] = [list(x) for x in sets.excluded]
            row["m_phi"] = an.m_phi
            row["m_phihat"] = an.m_phihat
            row["sandwich_phi"] = list(an.sandwich_phi)
            row["sandwich_dual"] = list(an.sandwich_dual)
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
        if c.verify_dual:
            verified = _verify_dual_swap(cls)
            if not over:
                row["dual_swap_verified"] = verified
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
    except Exception as exc:  # one fiber's bug becomes a row; the scan and its report go on
        import traceback  # here, not at the top: it costs every search's startup about 5 ms

        traceback.print_exc()
        row["error"] = "internal_error"
        row["detail"] = f"{type(exc).__name__}: {exc}"
    else:
        flags = [[ell, S1] for ell in c.force_s1 if ell not in row["s1"]]
        flags += [[ell, S2] for ell in c.force_s2 if ell not in row["s2"]]
        if flags:
            row["forcing_failed"] = flags
        for ell in c.force_s1 + c.force_s2:
            if row["disc"] % ell:
                row["error"] = "forced_prime_missing"
                row["detail"] = f"forced prime {ell} does not divide the discriminant"
                break
        if over and "error" not in row:
            row["error"] = "filtered_omega"
    return row


def _row_with_forcing(args) -> dict:
    """evaluate_row of the work item (c, b).  The one module global that
    _rows maps per fiber, in this process and in forked workers, so a
    wrapper set here sees every fiber (perfbench's calibration hook)."""
    return evaluate_row(*args)


_CHUNK = 16  # fibers per chunk; chunk i runs in process i mod workers


def _rows(args, workers: int):
    """The rows of args in order, from workers processes: chunk i of
    _CHUNK fibers runs in process i mod workers, where process 0 is this
    one and the others are forked children.

    Each child sends one message per finished chunk, its rows marshalled,
    down its own pipe and exits; this process takes the chunks in
    parameter order, its own rows as it computes them.  A child that dies
    before sending its rows makes this raise RuntimeError; on any exit
    every child is reaped, killed first if it is still running.
    """
    chunks = iter(lambda: list(itertools.islice(args, _CHUNK)), [])
    children = []  # [pid, reader] of processes 1 .. workers - 1; pid None once reaped
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            reader = open(r, "rb")
            sys.stdout.flush()  # a child must not write this process's buffered text again
            sys.stderr.flush()
            pid = os.fork()
            if pid == 0:
                _send_rows(itertools.islice(chunks, k, None, workers), w, [reader] + [rd for _, rd in children])
            children.append([pid, reader])
            os.close(w)
        for i, chunk in enumerate(chunks):
            if i % workers == 0:
                yield from map(_row_with_forcing, chunk)
                continue
            child = children[i % workers - 1]
            try:  # a message is its length in 8 bytes, then the marshalled rows
                rows = marshal.loads(child[1].read(int.from_bytes(child[1].read(8), "little")))
            except EOFError:  # no message, or a cut one: the child died
                raise RuntimeError(
                    f"scan worker {i % workers} exited with code {_reap(child)} "
                    f"before sending the fibers from b = {chunk[0][1]}"
                ) from None
            yield from rows
        for k, child in enumerate(children, 1):
            code = _reap(child)
            if code:
                raise RuntimeError(f"scan worker {k} exited with code {code}")
    finally:
        for pid, reader in children:
            reader.close()
            if pid is not None:
                import signal

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _reap(child: list) -> int:
    """Wait for the child [pid, reader], mark it reaped, and return its exit code."""
    _, status = os.waitpid(child[0], 0)
    child[0] = None
    return os.waitstatus_to_exitcode(status)


def _send_rows(chunks, fd: int, readers: list):
    """In a forked child: close the readers it inherited, evaluate the
    chunks, write one message per chunk to fd, and exit without returning
    to the caller's stack."""
    code = 1
    try:
        for reader in readers:  # a child holding a read end would never see its pipe break
            reader.close()
        with open(fd, "wb") as out:
            for chunk in chunks:
                data = marshal.dumps(list(map(_row_with_forcing, chunk)))
                out.write(len(data).to_bytes(8, "little") + data)
                out.flush()
        code = 0
    except Exception:
        import traceback

        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def scan(c: SearchConstraints, jobs: int = 1, progress=None) -> dict:
    """Scan tate_family(c.p) under the constraints; deterministic ranked report.

    With forcing constraints the parameter runs over the CRT class
    b0 + k*M; otherwise over 1, -1, 2, -2, ... up to the parameter box.
    Rows arrive in parameter order at every jobs count; progress(done,
    total) is called every 50 fibers.  The scan runs in min(jobs, chunks
    of 16 fibers) processes, this one included, so it forks none for a
    scan of one chunk, and none where os has no fork (Windows).  Rows are
    ranked by (|#S1 - #S2|, m_phi) descending, ties broken by parameter
    height.

    Each fiber's row is evaluate_row(c, b), and the scan only tallies
    its outcome label (see evaluate_row): the three skip labels are
    counted in skipped, any other error row is reported under errors, and
    a row with no label is kept.
    """
    if jobs < 1:
        raise InputError(f"jobs must be at least 1, got {jobs}")
    b0, modulus = construct_parameter(c)
    total = c.scan_budget if modulus > 1 else min(c.scan_budget, 2 * c.parameter_box)
    steps = itertools.chain.from_iterable((k, -k) for k in itertools.count(1))  # 1, -1, 2, -2, ...
    if modulus > 1:
        candidates = (b0 + k * modulus for k in itertools.chain((0,), steps))
    else:
        candidates = itertools.takewhile(lambda b: b <= c.parameter_box, steps)
    args = ((c, b) for b in itertools.islice(candidates, c.scan_budget))
    skipped = {"degenerate": 0, "incomplete_factorization": 0, "filtered_omega": 0}
    kept = []
    errored = []
    workers = min(jobs, -(-total // _CHUNK)) if hasattr(os, "fork") else 1
    with contextlib.closing(_rows(args, workers)) as rows:
        for done, row in enumerate(rows, 1):
            if progress and done % 50 == 0:
                progress(done, total)
            err = row.get("error")
            if err in skipped:
                skipped[err] += 1
            elif err:
                errored.append(row)
            else:
                kept.append(row)
    kept.sort(key=lambda r: (-r["selmer_sum_proxy"], -r["m_phi"], abs(r["b"]), r["b"] < 0))
    return {
        "family": {"p": c.p, "parameter": "b"},
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
