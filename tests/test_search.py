"""Family scan: derived factor polynomials, CRT forcing, filtering, ranking."""

import pytest

from shabound import report
from shabound.errors import DegenerateFiber, InputError, UnreachableCusp
from shabound.search import (
    SearchConstraints,
    construct_parameter,
    evaluate_row,
    fiber,
    scan,
    tate_family,
)


def test_family_p5_derivation():
    fam = tate_family(5)
    by_role = {fp.role: fp for fp in fam.factor_polys}
    assert by_role["S1"].coeffs == (0, 1) and by_role["S1"].multiplicity == 5
    assert by_role["S2"].coeffs == (-1, -11, 1)  # b^2 - 11b - 1


def test_family_p7_derivation():
    fam = tate_family(7)
    roles = sorted((fp.role, fp.coeffs) for fp in fam.factor_polys)
    assert ("S2", (1, 5, -8, 1)) in roles  # the cubic cusp factor
    assert sum(1 for r, _ in roles if r == "S1") == 2  # d^7 and (d-1)^7


def test_family_rejects_other_p():
    with pytest.raises(InputError):
        tate_family(11)


def test_fiber_fixture_and_degenerate():
    fam = tate_family(5)
    fib = fiber(fam, 1)
    assert fib.curve.ainvs() == (0, -1, -1, 0, 0)
    assert fib.disc_factorization.factors == ((11, 1),)
    with pytest.raises(DegenerateFiber):
        fiber(fam, 0)


def test_construct_parameter_fixture():
    c = SearchConstraints(5, force_s1=(41,), force_s2=(11,))
    b0, modulus = construct_parameter(c)
    assert (b0, modulus) == (287, 451)
    assert 0 <= b0 < modulus  # least nonnegative representative


def test_cusp_factors_always_split_at_one_mod_p():
    # the S2 cusp polynomials are abelian (cyclotomic subfields), so every
    # ell = 1 mod p admits a root; forced S2 congruences always exist
    from shabound import polys
    from shabound.arith import is_prime

    for p in (5, 7):
        fam = tate_family(p)
        s2 = [fp for fp in fam.factor_polys if fp.role == "S2"]
        for ell in [l for l in range(p + 1, 500) if is_prime(l) and l % p == 1]:
            assert any(polys.roots_modq(list(fp.coeffs), ell) for fp in s2)


def test_construct_parameter_forced_s2_prime_near_10_12_is_fast():
    # the S2 congruence's root mod ell comes from a root finder polynomial in
    # log ell; a search linear in ell would take days here
    import time

    from shabound import polys
    from shabound.arith import is_prime

    for p in (5, 7):
        ell = next(q for q in range(10**12, 10**12 + 10**5) if q % p == 1 and is_prime(q))
        start = time.perf_counter()
        b0, modulus = construct_parameter(SearchConstraints(p, force_s2=(ell,)))
        assert time.perf_counter() - start < 1.0, p
        s2 = [list(fp.coeffs) for fp in tate_family(p).factor_polys if fp.role == "S2"]
        assert modulus == ell and 0 <= b0 < ell
        assert any(polys.evaluate(f, b0) % ell == 0 for f in s2), p
        roots = polys.roots_modq(s2[0], ell)
        assert roots == sorted(set(roots)) and all(polys.evaluate(s2[0], r) % ell == 0 for r in roots)


def test_construct_parameter_unreachable_without_s2_factor(monkeypatch):
    from shabound import search

    fam = tate_family(5)
    crippled = fam._replace(factor_polys=tuple(fp for fp in fam.factor_polys if fp.role != "S2"))
    monkeypatch.setitem(search._FAMILIES, 5, crippled)
    with pytest.raises(UnreachableCusp):
        construct_parameter(SearchConstraints(5, force_s2=(11,)))


def test_constraints_validation():
    with pytest.raises(InputError):
        SearchConstraints(5, force_s1=(11,), force_s2=(11,))
    with pytest.raises(InputError):
        SearchConstraints(5, force_s2=(7,))  # 7 != 1 mod 5
    with pytest.raises(InputError):
        SearchConstraints(5, force_s1=(4,))
    with pytest.raises(InputError):
        SearchConstraints(5, force_s1=(5,))  # p is always excluded as above_p_overlap
    with pytest.raises(InputError, match=r"^force_s2: repeated prime 11 in \[11, 31, 11\]$"):
        SearchConstraints(5, force_s2=(11, 31, 11))  # the CRT would see the modulus 11 twice
    with pytest.raises(InputError, match=r"^forced value 4 is not prime$"):
        SearchConstraints(5, force_s1=(4, 4))
    for key in ("scan_budget", "parameter_box", "omega_max"):
        with pytest.raises(InputError):
            SearchConstraints(5, **{key: -1})
    with pytest.raises(InputError):
        scan(SearchConstraints(5, scan_budget=0), jobs=0)


def test_regression_fiber_large_sets():
    # pinned fixture: fiber with |S1| + |S2| >= 4
    row = evaluate_row(SearchConstraints(5), -21)
    assert row["s1"] == [3, 7]
    assert row["s2"] == [11, 61]
    assert row["m_phi"] == 1
    assert row["dual_swap_verified"]


def test_evaluate_row_p7():
    row = evaluate_row(SearchConstraints(7), 3)
    assert row["s1"] == [2, 3] and row["s2"] == [29]
    assert row["dual_swap_verified"]


def test_scan_small_deterministic_and_ranked():
    c = SearchConstraints(5, scan_budget=20, parameter_box=50, verify_dual=False)
    r1 = scan(c, jobs=1)
    r2 = scan(c, jobs=2)
    assert report.dumps(r1) == report.dumps(r2)
    proxies = [row["selmer_sum_proxy"] for row in r1["rows"]]
    assert proxies == sorted(proxies, reverse=True)


def test_scan_empty_budget():
    r = scan(SearchConstraints(5, scan_budget=0), jobs=1)
    assert r["rows"] == []


def test_scan_omega_filter():
    r = scan(SearchConstraints(5, scan_budget=5, omega_max=0, verify_dual=False), jobs=1)
    assert r["rows"] == [] and r["skipped"]["filtered_omega"] == 5


def test_scan_forced_contains_crt_solution():
    c = SearchConstraints(5, force_s1=(41,), force_s2=(11,), scan_budget=3)
    r = scan(c, jobs=1)
    bs = [row["b"] for row in r["rows"]]
    assert 287 in bs
    for row in r["rows"]:
        assert row["disc"] % 41 == 0 and row["disc"] % 11 == 0
        assert "forcing_failed" not in row or row["forcing_failed"]


def test_other_shabound_error_becomes_error_row(monkeypatch):
    from shabound import search
    from shabound.errors import ShaboundError

    class Injected(ShaboundError):
        pass

    def fail(*args, **kwargs):
        raise Injected("injected")

    monkeypatch.setattr(search, "classify_primes", fail)  # the scan calls it, then analyze_classified
    row = evaluate_row(SearchConstraints(5), 2)
    assert row["error"] == "Injected" and row["detail"] == "injected"
    assert row["curve"] and "s1" not in row  # fields filled before the failure stay
    r = scan(SearchConstraints(5, scan_budget=4, verify_dual=False), jobs=1)
    assert r["rows"] == [] and [e["error"] for e in r["errors"]] == ["Injected"] * 4


def test_s2_prime_not_one_mod_p_becomes_error_row(monkeypatch):
    from shabound import descent

    # both classifiers forced to say S2: every split prime lands there, also 2 (not 1 mod 5) at b = 2
    reduction = descent.reduction_at
    monkeypatch.setattr(descent, "reduction_at", lambda e, q: (reduction(e, q)[0], None))
    monkeypatch.setattr(descent, "valuation_ratio_set", lambda p, v, v_image: descent.S2)
    row = evaluate_row(SearchConstraints(5), 2)
    assert row["error"] == "classifier_disagreement"
    assert row["detail"] == "S2 prime 2 is not 1 mod 5"


@pytest.mark.parametrize("jobs", [1, 2])
def test_forced_prime_missing_becomes_error_row(monkeypatch, jobs):
    from shabound import search

    # a broken CRT step: the scan walks 1, -1, 2, -2 with 41 and 11 still forced
    monkeypatch.setattr(search, "construct_parameter", lambda c: (0, 1))
    c = SearchConstraints(5, force_s1=(41,), force_s2=(11,), scan_budget=4, verify_dual=False)
    r = scan(c, jobs=jobs)
    assert r["rows"] == [] and [e["b"] for e in r["errors"]] == [1, -1, 2, -2]
    for row in r["errors"]:
        assert row["error"] == "forced_prime_missing"
        assert row["detail"] == "forced prime 41 does not divide the discriminant"


def test_reports_unchanged_when_asserts_are_stripped():
    # python -O strips assert statements; no runtime invariant may live in one.
    # The probe scans at jobs 2, so a worker forks while a line still sits
    # in stdout's buffer, which the worker must not write again
    import os
    import pathlib
    import subprocess
    import sys

    import shabound

    configs = [SearchConstraints(5, scan_budget=40), SearchConstraints(7, scan_budget=20)]
    expected = "".join(report.dumps(scan(c)) for c in configs)
    probe = (
        "import sys\n"
        "from shabound import report\n"
        "from shabound.search import SearchConstraints, scan\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit('asserts are not stripped')\n"
        "sys.stdout.write('-O\\n')\n"
        f"for c in {configs!r}:\n"
        "    sys.stdout.write(report.dumps(scan(c, jobs=2)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(shabound.__file__).parent.parent))
    env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe is then block-buffered
    out = subprocess.run([sys.executable, "-O", "-c", probe], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "-O\n" + expected


def test_jobs_start_at_most_one_worker_per_chunk(monkeypatch):
    # the scanning process is worker 0, so a scan forks min(jobs, chunks of
    # 16 fibers) - 1 children, and none for a scan of one chunk
    import os

    from shabound import search

    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(search.os, "fork", counted)
    for budget, jobs, forked in [(40, 64, 2), (16, 64, 0), (17, 2, 1)]:
        c = SearchConstraints(5, scan_budget=budget, verify_dual=budget == 40)
        serial = report.dumps(scan(c, jobs=1))
        del forks[:]
        assert report.dumps(scan(c, jobs=jobs)) == serial, (budget, jobs)
        assert len(forks) == forked, (budget, jobs)


def test_a_worker_that_dies_makes_the_scan_raise_and_leaves_no_child(monkeypatch):
    # 40 fibers at jobs 2: chunk 1, b = 9 .. -16, runs in the forked child;
    # it dies at b = 11 without sending a row
    import os
    import signal

    from shabound import search

    scanner, row = os.getpid(), search._row_with_forcing

    def dies_in_the_child(args):
        if args[1] == 11 and os.getpid() != scanner:
            os._exit(3)
        return row(args)

    def hung(signum, frame):
        raise TimeoutError("the scan did not raise within 20 s")

    monkeypatch.setattr(search, "_row_with_forcing", dies_in_the_child)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    try:
        with pytest.raises(RuntimeError, match="scan worker 1 exited with code 3 before sending the fibers from b = 9"):
            scan(SearchConstraints(5, scan_budget=40, verify_dual=False), jobs=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_interrupted_scan_kills_and_reaps_its_workers():
    # KeyboardInterrupt from the progress callback, with the forked worker
    # still running: the scan's cleanup kills it and waits for it
    import os

    def interrupt(done, total):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        scan(SearchConstraints(5, scan_budget=200, verify_dual=True), jobs=2, progress=interrupt)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_without_fork_the_scan_runs_serially(monkeypatch):
    # where os has no fork (Windows) every jobs count gives the serial bytes
    from shabound import search

    c = SearchConstraints(5, scan_budget=40, verify_dual=False)
    serial = report.dumps(scan(c, jobs=1))
    monkeypatch.delattr(search.os, "fork")
    assert report.dumps(scan(c, jobs=3)) == serial


def _scanned_parameters():
    """(p, b) of every fiber the test and benchmark scans visit: b = +-1..+-500 at
    p = 5 and 7, and 300 fibers of each forced (S1, S2) pair of the forced p = 5 scans."""
    params = [(p, b) for p in (5, 7) for k in range(1, 501) for b in (k, -k)]
    for s1 in (37, 41, 43, 47):
        c = SearchConstraints(5, force_s1=(s1,), force_s2=(11,))
        b0, modulus = construct_parameter(c)
        ks = [0, *(k for j in range(1, 150) for k in (j, -j)), 150]
        params += [(5, b0 + k * modulus) for k in ks]
    return params


def test_fibers_are_minimal_over_the_scanned_ranges():
    # fiber takes no minimal model of its own; classify_primes' minimalization
    # must return every integer fiber unchanged, so the rows keep the Tate model
    from shabound.elliptic import minimal_model

    checked = 0
    for p, b in _scanned_parameters():
        try:
            fib = fiber(tate_family(p), b)
        except DegenerateFiber:
            continue
        emin, _, fac = minimal_model(fib.curve, fib.disc_factorization)
        assert emin is fib.curve and fac is fib.disc_factorization, (p, b)
        checked += 1
    assert checked == 3199  # b = 1 at p = 7 is singular


def test_minimal_model_runs_twice_per_analysed_fiber(monkeypatch):
    # once for the curve in classify_primes, once for Velu's codomain; an
    # incomplete codomain factorization still counts its call
    from shabound import descent, elliptic, isogeny, search

    calls = []
    real = elliptic.minimal_model

    def counting(*args):
        calls.append(args)
        return real(*args)

    for mod in (elliptic, descent, isogeny, search):
        if getattr(mod, "minimal_model", None) is real:
            monkeypatch.setattr(mod, "minimal_model", counting)
    analysed = 0
    for c in (SearchConstraints(7, scan_budget=300, verify_dual=False), SearchConstraints(5, scan_budget=80)):
        r = scan(c, jobs=1)
        analysed += c.scan_budget - r["skipped"]["degenerate"]
    assert analysed == 379
    assert len(calls) == 2 * analysed


def test_one_elimination_per_direction_and_no_kernel_basis_in_a_scan(monkeypatch):
    # analyze_curve takes m and both sandwich dimensions of a direction from
    # one selmer_dims call, one fplinalg.rref: two per analysed fiber.  No
    # kernel basis, sandwich_from_sets or m_rank runs in a scan, and the
    # report keeps its pinned bytes
    import hashlib

    from test_golden_reports import SEARCHES

    from shabound import descent, fplinalg

    calls = dict.fromkeys(("rref", "kernel_basis", "selmer_dims", "sandwich_from_sets", "m_rank"), 0)

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for mod in (fplinalg, descent):
        for name in calls:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    cfg, jobs, digest = SEARCHES["p7-60"]
    r = scan(SearchConstraints(**cfg), jobs=jobs)
    assert hashlib.sha256(report.dumps(r).encode()).hexdigest() == digest
    assert r["errors"] == [] and len(r["rows"]) == 59, r["skipped"]  # b = 1 is singular
    analysed = len(r["rows"])
    assert calls == {"rref": 2 * analysed, "selmer_dims": 2 * analysed,
                     "kernel_basis": 0, "sandwich_from_sets": 0, "m_rank": 0}


@pytest.mark.parametrize("patch, detail", [
    ("valuation_ratio_set", r"valuation ratio at \d+ is neither p nor 1/p: \d+ -> \d+"),
    ("reduction_at", r"classifiers disagree at \d+: point test S1, valuation test S2"),
])
def test_classifier_disagreements_become_rows(monkeypatch, patch, detail):
    import re

    from shabound import descent

    if patch == "valuation_ratio_set":
        monkeypatch.setattr(descent, "valuation_ratio_set", lambda p, v, v_image: None)
    else:  # the node moves onto the kernel point (0, 0) at every split prime: the point test says S1
        reduction = descent.reduction_at
        monkeypatch.setattr(descent, "reduction_at", lambda e, q: (reduction(e, q)[0], (0, 0)))
    c = SearchConstraints(5, scan_budget=40, verify_dual=False)
    r = scan(c, jobs=1)
    assert r["errors"]
    for row in r["errors"]:
        assert row["error"] == "classifier_disagreement", row
        assert re.fullmatch(detail, row["detail"]), row["detail"]
        assert row["curve"] and "s1" not in row
    for row in r["rows"]:  # kept: a fiber with no split prime the patched test could meet
        assert row["s2"] == [] and (patch == "reduction_at" or row["s1"] == []), row
    assert len(r["rows"]) + len(r["errors"]) + sum(r["skipped"].values()) == 40


def test_each_prime_of_a_fiber_is_handled_once_in_a_scan(monkeypatch):
    # the p = 7 60-fiber scan.  Factoring: one result object for the fiber's
    # discriminant (one table over its factor polynomials), one for Velu's
    # codomain, and one more where the codomain's minimal model has its own
    # discriminant; a residue character factors nothing.  The local pass: one
    # reduction_at per bad prime other than p, each with one primality
    # test, and at q <= 3 its singular-point search is the only one.  The
    # report keeps its pinned bytes
    import hashlib

    from test_golden_reports import SEARCHES

    from shabound import arith, descent, elliptic, isogeny, search

    built = {"Factorization": 0, "Incomplete": 0}
    for cls in (arith.Factorization, arith.Incomplete):
        def counting_new(cls, *args, _new=cls.__new__, _name=cls.__name__):
            built[_name] += 1
            return _new(cls, *args)

        monkeypatch.setattr(cls, "__new__", staticmethod(counting_new))
    local, primality = [], [0]  # local: the primes of each classify_primes call
    real_classify, real_reduction, real_is_prime = search.classify_primes, descent.reduction_at, elliptic.is_prime
    real_minimal, rescaled = isogeny.minimal_model, [0]

    def minimal(e, fac):
        out = real_minimal(e, fac)
        rescaled[0] += out[1] is not elliptic.Transformation.identity()
        return out

    def classify(*args):
        local.append([])
        return real_classify(*args)

    def reduction(e, q):
        local[-1].append(q)
        return real_reduction(e, q)

    def is_prime(n):
        primality[0] += 1
        return real_is_prime(n)

    monkeypatch.setattr(search, "classify_primes", classify)
    monkeypatch.setattr(descent, "reduction_at", reduction)
    monkeypatch.setattr(elliptic, "is_prime", is_prime)
    monkeypatch.setattr(isogeny, "minimal_model", minimal)
    arith.residue_character.cache_clear()
    cfg, jobs, digest = SEARCHES["p7-60"]
    r = scan(SearchConstraints(**cfg), jobs=jobs)
    assert hashlib.sha256(report.dumps(r).encode()).hexdigest() == digest
    analysed = len(r["rows"])
    assert analysed == 59 and not r["errors"] and r["skipped"]["incomplete_factorization"] == 0
    ells = arith.residue_character.cache_info().misses
    assert (ells, rescaled[0]) == (20, 9)
    assert built == {"Factorization": 2 * analysed + rescaled[0], "Incomplete": 0}
    bs = [b for k in range(1, 31) for b in (k, -k) if b != 1]  # scan order; b = 1 is singular
    assert sorted(row["b"] for row in r["rows"]) == sorted(bs) and len(local) == len(bs)
    for b, qs in zip(bs, local):
        primes = fiber(tate_family(7), b).disc_factorization.primes
        assert qs == [q for q in primes if q != 7], b
    assert primality[0] == sum(map(len, local))
    assert sum(q <= 3 for qs in local for q in qs) > 40


# fibers of the forced (41, 11) scan with 7 or more discriminant primes and
# no error: an omega_max of 6 drops them
_FILTERED = (-1066, 3444, -2870)


def test_a_filtered_fiber_stops_after_classification():
    # without omega_max, or under a cap it meets, evaluate_row gives the
    # full row; over the cap the row keeps what the forcing checks read
    # and is labelled filtered_omega
    for b in _FILTERED:
        full = evaluate_row(SearchConstraints(5), b)
        assert full["omega_of_cofactor"] > 6 and full["dual_swap_verified"] and "error" not in full, full
        assert evaluate_row(SearchConstraints(5, omega_max=full["omega_of_cofactor"]), b) == full
        keep = ("b", "curve", "disc", "omega_of_cofactor", "s1", "s2")
        short = evaluate_row(SearchConstraints(5, omega_max=6), b)
        assert short == {**{k: full[k] for k in keep}, "error": "filtered_omega"}


def test_only_kept_rows_build_character_tables_and_bounds(monkeypatch):
    # the search-p5-forced-j2 config at jobs 1: all 300 fibers are
    # classified, 42 end there (Velu's codomain is not fully factored), 110
    # go over omega_max 6, and only the 148 kept rows build a character
    # table, run two eliminations and ask for their bounds, not 258.  The
    # report keeps its pinned bytes
    import hashlib

    from test_golden_reports import SEARCHES

    from shabound import descent, search

    calls = dict.fromkeys(("classify_primes", "character_table", "selmer_dims", "bound_report"), 0)

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        mod = search if name == "classify_primes" else descent
        monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    cfg, _, digest = SEARCHES["forced-41-11-300-j2"]
    r = scan(SearchConstraints(**cfg), jobs=1)
    assert hashlib.sha256(report.dumps(r).encode()).hexdigest() == digest
    assert len(r["rows"]) == 148 and not r["errors"]
    assert r["skipped"] == {"degenerate": 0, "incomplete_factorization": 42, "filtered_omega": 110}
    assert calls == {"classify_primes": 300, "character_table": 148, "selmer_dims": 296, "bound_report": 148}


def test_a_scan_factors_no_ell_minus_1(monkeypatch):
    # the search-p5-forced-j2 config with factor unusable: a scan factors
    # the fiber discriminant and Velu's codomain, through _factor_into, and
    # no residue character factors ell - 1.  The report keeps its pinned bytes
    import hashlib

    from test_golden_reports import SEARCHES

    from shabound import arith, elliptic

    def refuse(n):
        raise AssertionError(f"factor({n}) called")

    monkeypatch.setattr(arith, "factor", refuse)
    monkeypatch.setattr(elliptic, "factor", refuse)
    arith.residue_character.cache_clear()
    cfg, _, digest = SEARCHES["forced-41-11-300-j2"]
    r = scan(SearchConstraints(**cfg), jobs=1)
    assert hashlib.sha256(report.dumps(r).encode()).hexdigest() == digest
    assert arith.residue_character.cache_info().misses > 0


@pytest.mark.parametrize("jobs", [1, 2])
def test_the_scan_adds_nothing_to_a_fibers_row(jobs):
    # the forced (41, 11) omega 6 verify_dual config: each kept and error
    # row is evaluate_row(c, b) as it stands, and the skip counts are the
    # tally of evaluate_row's outcome labels over b0 + k*M, k = 0, 1, -1, 2, ...
    from collections import Counter

    c = SearchConstraints(5, force_s1=(41,), force_s2=(11,), omega_max=6, scan_budget=300, verify_dual=True)
    b0, modulus = construct_parameter(c)
    ks = [0] + [s * k for k in range(1, c.scan_budget) for s in (1, -1)]
    rows = {b: evaluate_row(c, b) for b in (b0 + k * modulus for k in ks[:c.scan_budget])}
    r = scan(c, jobs=jobs)
    for row in r["rows"] + r["errors"]:
        assert row == rows[row["b"]], row["b"]
    outcomes = Counter(row.get("error", "kept") for row in rows.values())
    assert r["skipped"] == {k: outcomes[k] for k in ("degenerate", "incomplete_factorization", "filtered_omega")}
    assert (outcomes["kept"], sum(outcomes.values())) == (len(r["rows"]), c.scan_budget)
    assert len(r["errors"]) == c.scan_budget - sum(r["skipped"].values()) - len(r["rows"])
    # off the CRT class the forcing checks, run by evaluate_row, flag the
    # forced primes and make the row an error
    row = evaluate_row(c, 2)  # disc -608 = -2^5 * 19
    assert row["forcing_failed"] == [[41, "S1"], [11, "S2"]] and row["error"] == "forced_prime_missing"
    assert row["detail"] == "forced prime 41 does not divide the discriminant"
    # over omega_max too, the fiber stays an error row, not filtered_omega
    short = evaluate_row(SearchConstraints(5, force_s1=(41,), force_s2=(11,), omega_max=0), 2)
    assert (short["error"], short["detail"]) == (row["error"], row["detail"])


def test_scan_budget_stops_at_sys_maxsize():
    # the scan's islice takes no larger stop
    import sys

    with pytest.raises(InputError, match=f"^scan_budget must be at most {sys.maxsize}, got {sys.maxsize + 1}$"):
        SearchConstraints(5, scan_budget=sys.maxsize + 1)
    r = scan(SearchConstraints(5, scan_budget=sys.maxsize, parameter_box=3))
    assert sorted(row["b"] for row in r["rows"]) == [-3, -2, -1, 1, 2, 3]


@pytest.mark.parametrize("fault", ["classifiers", "dual check"])
def test_a_filtered_fiber_keeps_its_skip_or_error_reason(monkeypatch, fault):
    # each step that can end a fiber another way still runs on a fiber over
    # omega_max, so it ends as it does without the filter, never as
    # filtered_omega
    from shabound import descent, search

    if fault == "classifiers":
        monkeypatch.setattr(descent, "valuation_ratio_set", lambda p, v, v_image: None)
    else:
        def fail(cls):
            raise InputError("injected")

        monkeypatch.setattr(search, "_verify_dual_swap", fail)
    for b in _FILTERED:
        full, short = (evaluate_row(SearchConstraints(5, omega_max=cap), b) for cap in (None, 6))
        assert "error" in full, (b, full)
        assert (short["error"], short.get("detail")) == (full["error"], full.get("detail")), b
    c = SearchConstraints(5, force_s1=(41,), force_s2=(11,), omega_max=6, scan_budget=40)
    r = scan(c, jobs=1)
    assert r["rows"] == [] and r["skipped"]["filtered_omega"] == 0, r["skipped"]
    assert len(r["errors"]) + sum(r["skipped"].values()) == 40
