"""Command-line front end.

Subcommands: analyze (full descent pipeline for one curve), matrix
(character matrix + rank), bounds (bound-formula arithmetic, or the
construction budget chain with --budget), sandwich (two-sided Selmer
dimensions from prime sets), search (constrained family scan).  JSON is
the contract (--json); text output renders the same data.

Exit codes: 0 success, 2 input/validation error, 3 incomplete
factorization / resource exhaustion.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import arith, fplinalg, report
from .bounds import (
    FieldInvariants,
    bound_report,
    sha_from_sum,
    theorem_budget,
)
from .descent import S1, analyze_curve, character_matrix, sandwich_from_sets, valuation_ratio_set
from .elliptic import invariants
from .errors import IncompleteFactorization, InputError, ShaboundError
from .isogeny import velu_quotient_from_kernel_poly
from .search import SearchConstraints, scan, tate_family

EXIT_INPUT = 2
EXIT_INCOMPLETE = 3


def _parse_int(s) -> int:
    if isinstance(s, bool):
        raise InputError(f"expected an integer, got {s!r}")
    if isinstance(s, int):
        return s
    if isinstance(s, str):
        try:
            return int(s, 10)
        except ValueError:
            pass
    raise InputError(f"expected an integer (decimal string), got {s!r}")


def _parse_fraction(s) -> Fraction:
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"expected a fraction like '3/4', got {s!r}")


def parse_curve(text: str):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"curve: invalid JSON ({exc})") from exc
    if not isinstance(data, list) or len(data) != 5:
        raise InputError("curve: expected a JSON array [a1,a2,a3,a4,a6]")
    return invariants(*[_parse_int(a) for a in data])


def parse_point(text: str):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"point: invalid JSON ({exc})") from exc
    if data == "O":
        return None
    if not isinstance(data, list) or len(data) != 2:
        raise InputError('point: expected ["x_num/x_den","y_num/y_den"] or "O"')
    return (_parse_fraction(data[0]), _parse_fraction(data[1]))


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise InputError(f"expected a comma-separated integer list, got {text!r}") from exc


def _parse_prime_lists(args) -> list[tuple[int, ...]]:
    """--s1 and --s2, each a comma-separated list of distinct primes."""
    out = []
    for name, text in (("s1", args.s1), ("s2", args.s2)):
        primes = _parse_int_list(text)
        for q in primes:
            if q < 2 or not arith.is_prime(q):
                raise InputError(f"{name}: {q} is not a prime")
        if len(set(primes)) != len(primes):
            raise InputError(f"{name}: repeated prime in {text.strip()!r}")
        out.append(primes)
    return out


def _emit(args, payload) -> None:
    if args.json:
        sys.stdout.write(report.dumps(payload))
    else:
        sys.stdout.write(report.render_text(payload))


# ------------------------------------------------------------- subcommands

def cmd_analyze(args) -> int:
    e = parse_curve(args.curve)
    pt = parse_point(args.point)
    if pt is None:
        raise InputError("point: the kernel point may not be the identity")
    p = args.p
    if p not in (5, 7):
        raise InputError("p must be 5 or 7")
    an = analyze_curve(e, pt, p)
    cls, sets, br = an.classified, an.classified.sets, an.bounds
    payload = {
        "p": p,
        "input_curve": list(e.ainvs()),
        "minimal_model": list(cls.curve.ainvs()),
        "minimal_disc": cls.curve.disc,
        "kernel_point": [cls.point[0], cls.point[1]],
        "codomain": list(cls.isogeny.codomain.ainvs()),
        "codomain_disc": cls.isogeny.codomain.disc,
        "kernel_x_poly": list(cls.isogeny.kernel_x_poly),
        "sets": {
            "s1": list(sets.s1),
            "s2": list(sets.s2),
            "s3": list(sets.s3),
            "excluded": [list(x) for x in sets.excluded],
            "evidence": [list(x) for x in sets.evidence],
        },
        "m_phi": an.m_phi,
        "m_phihat": an.m_phihat,
        "sandwich_phi": {"lower": an.sandwich_phi.lower_dim, "upper": an.sandwich_phi.upper_dim},
        "sandwich_dual": {"lower": an.sandwich_dual.lower_dim, "upper": an.sandwich_dual.upper_dim},
        "bounds": {
            "advisory": not br.hypothesis_ok,
            "hypothesis_reasons": list(br.hypothesis_reasons),
            "selmer_lower": br.selmer_lower,
            "selmer_upper": br.selmer_upper,
            "rank_upper": br.rank_upper,
            "sum_lower": br.sum_lower,
            "sha_lower_raw": br.sha_lower_raw,
            "sha_lower": br.sha_lower,
        },
    }
    if args.second_kernel is not None:
        payload["second_kernel"] = _second_kernel_payload(cls, args.second_kernel, p)
    _emit(args, payload)
    return 0


def _second_kernel_payload(cls, text: str, p: int) -> dict:
    try:
        coeffs = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"second-kernel: invalid JSON ({exc})") from exc
    if not isinstance(coeffs, list):
        raise InputError("second-kernel: expected a JSON array of coefficients, low degree first")
    h = tuple(_parse_fraction(c) for c in coeffs)
    iso2 = velu_quotient_from_kernel_poly(cls.curve, h, p, cls.disc_factorization.primes)
    # Valuation-ratio classification only; there is no rational kernel point here.
    s1, s2 = [], []
    fac2 = iso2.codomain_disc_factorization
    for q, v in cls.disc_factorization.factors:
        if q == p:
            continue
        verdict = valuation_ratio_set(p, v, fac2.valuation(q))
        if verdict is not None:  # a prime with neither ratio is skipped
            (s1 if verdict == S1 else s2).append(q)
    return {
        "codomain": list(iso2.codomain.ainvs()),
        "codomain_disc": iso2.codomain.disc,
        "s1_valuation_test": s1,
        "s2_valuation_test": s2,
    }


def cmd_matrix(args) -> int:
    mat = character_matrix(args.p, *_parse_prime_lists(args))
    payload = {
        "p": args.p,
        "col_labels": list(mat.col_labels),
        "row_labels": list(mat.row_labels),
        "entries": mat.to_lists(),
        "rank": fplinalg.rank(mat.p, mat.to_lists()),
    }
    _emit(args, payload)
    return 0


def cmd_sandwich(args) -> int:
    sw = sandwich_from_sets(args.p, *_parse_prime_lists(args))
    payload = {
        "p": args.p,
        "lower_dim": sw.lower_dim,
        "upper_dim": sw.upper_dim,
        "lower_support": list(sw.lower_support),
        "upper_support": list(sw.upper_support),
        "lower_basis": [list(v) for v in sw.lower_basis],
        "upper_basis": [list(v) for v in sw.upper_basis],
    }
    _emit(args, payload)
    return 0


def cmd_bounds(args) -> int:
    if args.budget is not None:
        parts = _parse_int_list(args.budget)
        if len(parts) != 4:
            raise InputError("budget: expected p,k,n,D")
        _emit(args, theorem_budget(*parts))
        return 0
    if args.d is None:
        raise InputError("bounds: provide --budget p,k,n,D or field invariants via --d/--cp")
    f = FieldInvariants(
        args.d, args.cp,
        totally_imaginary=not args.real_embedding,
        contains_zeta_p=not args.no_zeta_p,
    )
    br = bound_report(f, args.s1, args.s2, args.m, args.mhat)
    payload = {
        "d": f.d, "cp": f.cp,
        "hypothesis_ok": br.hypothesis_ok,
        "hypothesis_reasons": list(br.hypothesis_reasons),
        "s1": args.s1, "s2": args.s2, "m": args.m, "mhat": args.mhat,
        "selmer_lower": br.selmer_lower,
        "selmer_upper": br.selmer_upper,
        "rank_upper": br.rank_upper,
        "cassels_interval": list(br.cassels_interval),
        "sum_lower": br.sum_lower,
        "sha_lower_raw": br.sha_lower_raw,
        "sha_lower": br.sha_lower,
    }
    if args.sum is not None:
        payload["sha_from_sum"] = sha_from_sum(args.sum, args.rank)
    _emit(args, payload)
    return 0


def cmd_search(args) -> int:
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise InputError(f"config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise InputError("config: expected a JSON object")
    known = {
        "p", "force_s1", "force_s2", "omega_max",
        "scan_budget", "parameter_box", "verify_dual",
    }
    unknown = set(cfg) - known
    if unknown:
        raise InputError(f"config: unknown keys {sorted(unknown)}")
    if "p" not in cfg:
        raise InputError("config: missing key 'p'")
    for key in ("force_s1", "force_s2"):
        if not isinstance(cfg.get(key, []), list):
            raise InputError(f"config: {key} must be a list of primes, got {cfg[key]!r}")
    verify_dual = cfg.get("verify_dual", True)
    if not isinstance(verify_dual, bool):
        raise InputError(f"config: verify_dual must be true or false, got {verify_dual!r}")
    constraints = SearchConstraints(
        p=_parse_int(cfg["p"]),
        force_s1=tuple(_parse_int(x) for x in cfg.get("force_s1", [])),
        force_s2=tuple(_parse_int(x) for x in cfg.get("force_s2", [])),
        omega_max=None if cfg.get("omega_max") is None else _parse_int(cfg["omega_max"]),
        scan_budget=_parse_int(cfg.get("scan_budget", 1000)),
        parameter_box=_parse_int(cfg.get("parameter_box", 1000)),
        verify_dual=verify_dual,
    )
    family = tate_family(constraints.p)

    def progress(done, total):
        print(f"scan: {done}/{total} fibers", file=sys.stderr)

    result = scan(family, constraints, jobs=args.jobs, progress=progress)
    _emit(args, result)
    return 0


# ------------------------------------------------------------------ driver

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="shabound",
        description="Descent invariants and Selmer/rank/Sha bounds for rational p-isogenies (p = 5, 7).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full descent pipeline for one curve")
    pa.add_argument("--curve", required=True, help='JSON [a1,a2,a3,a4,a6], integers or decimal strings')
    pa.add_argument("--point", required=True, help='JSON ["x_num/x_den","y_num/y_den"]')
    pa.add_argument("--p", type=int, required=True)
    pa.add_argument("--second-kernel", default=None,
                    help="JSON coefficient list (low degree first) of a second kernel polynomial")
    pa.add_argument("--json", action="store_true")
    pa.set_defaults(func=cmd_analyze)

    pm = sub.add_parser("matrix", help="power-residue character matrix and its rank")
    pm.add_argument("--p", type=int, required=True)
    pm.add_argument("--s1", required=True, help="comma-separated primes (columns)")
    pm.add_argument("--s2", required=True, help="comma-separated primes (rows, each 1 mod p)")
    pm.add_argument("--json", action="store_true")
    pm.set_defaults(func=cmd_matrix)

    pw = sub.add_parser("sandwich", help="two-sided Selmer dimensions from prime sets")
    pw.add_argument("--p", type=int, required=True)
    pw.add_argument("--s1", required=True)
    pw.add_argument("--s2", required=True)
    pw.add_argument("--json", action="store_true")
    pw.set_defaults(func=cmd_sandwich)

    pb = sub.add_parser("bounds", help="bound-formula arithmetic")
    pb.add_argument("--budget", default=None, metavar="p,k,n,D")
    pb.add_argument("--d", type=int, default=None)
    pb.add_argument("--cp", type=int, default=0)
    pb.add_argument("--s1", type=int, default=0)
    pb.add_argument("--s2", type=int, default=0)
    pb.add_argument("--m", type=int, default=0)
    pb.add_argument("--mhat", type=int, default=0)
    pb.add_argument("--sum", type=int, default=None, help="Selmer-sum input for the sum-based Sha bound")
    pb.add_argument("--rank", type=int, default=0)
    pb.add_argument("--real-embedding", action="store_true",
                    help="mark the field as having a real embedding (hypothesis failure)")
    pb.add_argument("--no-zeta-p", action="store_true",
                    help="mark the field as missing the p-th roots of unity")
    pb.add_argument("--json", action="store_true")
    pb.set_defaults(func=cmd_bounds)

    ps = sub.add_parser("search", help="constrained family scan from a JSON config")
    ps.add_argument("--config", required=True)
    ps.add_argument("--jobs", type=int, default=1)
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(func=cmd_search)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        arith.default_budget()  # a bad SHABOUND_FACTOR_BUDGET fails every subcommand alike
        return args.func(args)
    except IncompleteFactorization as exc:
        print(f"error: incomplete factorization: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE
    except ShaboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
