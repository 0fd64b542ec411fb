"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Each test records a `[ACCEPTANCE n] name: PASS|FAIL` verdict (printed
in the terminal summary by conftest) and then asserts it, so `pytest -v`
shows both the per-test outcome and the one-line verdicts.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest
import sympy

from shabound import descent, report
from shabound.arith import ResidueCharacter, character_eval, is_prime, residue_character
from shabound.bounds import FieldInvariants, cassels_interval, selmer_interval, sha_from_sum, theorem_budget
from shabound.cli import main
from shabound.descent import m_rank, sandwich_from_sets
from shabound.search import SearchConstraints, construct_parameter, fiber, scan, tate_family

Q = Fraction


VERDICTS: list[str] = []


def _line(num: int, name: str, ok: bool) -> None:
    VERDICTS.append(f"[ACCEPTANCE {num}] {name}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def corpus():
    """Default p=5 family scan, >= 10^3 nondegenerate fibers, two worker counts."""
    c = SearchConstraints(5, scan_budget=1000, parameter_box=600, verify_dual=True)
    r_serial = scan(c, jobs=1)
    r_parallel = scan(c, jobs=2)
    return r_serial, r_parallel


def test_criterion_1_budget_chain_exhaustive():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for p in (5, 7, 11, 13):
        for k in range(1, 21):
            for n in range(1, 11):
                for deg_h in range(1, 51):
                    tb = theorem_budget(p, k, n, deg_h)
                    ok = ok and tb.sha_guarantee >= k
                    # with s2 = s2_max the chain is tight: equality with k
                    ok = ok and tb.sha_guarantee == k
                    checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and checked == 4 * 20 * 10 * 50 and elapsed < 1.0
    _line(1, f"construction budget chain ({checked} cases, {elapsed:.2f}s)", ok)
    assert ok


def test_criterion_2_11a_fixture_end_to_end(capsys):
    t0 = time.perf_counter()
    code = main(["analyze", "--curve", "[0,-1,1,0,0]", "--point", '["0/1","0/1"]', "--p", "5", "--json"])
    elapsed = time.perf_counter() - t0
    data = json.loads(capsys.readouterr().out)
    ok = (
        code == 0
        and data["codomain_disc"] == str(-(11**5))
        and data["sets"]["s1"] == []
        and data["sets"]["s2"] == ["11"]
        and data["sets"]["s3"] == ["5"]
        and data["m_phi"] == "0"
        and data["m_phihat"] == "0"
        and data["sandwich_phi"] == {"lower": "0", "upper": "0"}
        and data["sandwich_dual"] == {"lower": "0", "upper": "2"}
        and elapsed < 1.0
    )
    _line(2, f"11a fixture end-to-end ({elapsed:.2f}s)", ok)
    assert ok


def test_criterion_3_dual_swap_on_scan_corpus(corpus, corpus_p7):
    rows, r7 = corpus[0]["rows"], corpus_p7[0]
    ok = len(rows) >= 1000 and all(row["dual_swap_verified"] for row in rows)
    # p = 7 (conftest's corpus_p7): every fiber a row or a skip, no skip count pinned
    rows7 = r7["rows"]
    ok = ok and len(rows7) >= 700 and len(rows7) + sum(r7["skipped"].values()) == 1000
    ok = ok and all(row["dual_swap_verified"] is True for row in rows7)
    _line(3, f"dual-swap identity on {len(rows)} p = 5 and {len(rows7)} p = 7 fibers", ok)
    assert ok


def test_criterion_4_classifier_agreement(corpus, corpus_p7):
    ok, counts = True, []
    for r, floor in ((corpus[0], 1000), (corpus_p7[0], 700)):
        # any disagreement would land in r["errors"] with reason classifier_disagreement
        disagreements = [row for row in r["errors"] if row.get("error") == "classifier_disagreement"]
        ok = ok and not disagreements and not r["errors"] and len(r["rows"]) >= floor
        counts.append(len(r["rows"]))
    _line(4, f"dual classifier agreement on {counts[0]} p = 5 and {counts[1]} p = 7 fibers", ok)
    assert ok


def _criterion_5_draws():
    """Criterion 5's random instances: (p, S1, S2) for a rank, and (ell, a, b) for a character."""
    rng = random.Random(20260823)
    primes = [ell for ell in range(2, 10**4) if is_prime(ell)]
    for p in (5, 7):
        ones = [ell for ell in primes if ell % p == 1]
        others = [q for q in primes if q != p]
        for _ in range(260):
            s1 = sorted(rng.sample(others, rng.randrange(1, 5)))
            s2 = sorted(set(rng.sample(ones, rng.randrange(1, 4))) - set(s1))
            if not s2:
                continue
            ell = rng.choice(ones[:200])
            yield p, s1, s2, ell, rng.randrange(1, ell), rng.randrange(1, ell)


def test_criterion_5_character_and_rank_oracles():
    instances = 0
    ok = True
    for p, s1, s2, ell, a, b in _criterion_5_draws():
        chis = [residue_character(q, p) for q in s2]
        rows = [[character_eval(chi, q) for q in s1] for chi in chis]
        kernel = sum(
            1
            for v in itertools.product(range(p), repeat=len(s1))
            if all(sum(r * x for r, x in zip(row, v)) % p == 0 for row in rows)
        )
        m = m_rank(p, tuple(s1), tuple(s2))
        ok = ok and kernel == p ** (len(s1) - m)
        # character oracle: explicit p-th-power membership + additivity
        chi = residue_character(ell, p)
        pth = {pow(x, p, ell) for x in range(1, ell)}
        ok = ok and (character_eval(chi, a) == 0) == (a in pth)
        ok = ok and character_eval(chi, a * b) == (character_eval(chi, a) + character_eval(chi, b)) % p
        instances += 2  # one rank instance + one character instance
        if not ok:
            break
    ok = ok and instances >= 10**3
    _line(5, f"character/rank brute-force oracles ({instances} instances)", ok)
    assert ok


def _old_convention_character(ell: int, p: int) -> ResidueCharacter:
    """The character whose generator is the p-th power residue of the smallest primitive root."""
    return ResidueCharacter(ell, p, pow(sympy.primitive_root(ell), (ell - 1) // p, ell))


def test_generator_convention_oracle(monkeypatch):
    """The generator rule of residue_character, against sympy's primitive root.

    residue_character(ell, p) takes g = a^((ell-1)/p) for the least a >= 2
    whose power is not 1.  Any other generator of the p-th roots of unity,
    such as r^((ell-1)/p) for the smallest primitive root r, gives a row
    chi_ell(q) that is a fixed unit multiple of this one, so the ranks and
    the kernel bases of every matrix are the same under both.
    """
    primes = [q for q in range(2, 2000) if is_prime(q)]
    moved = 0
    for p in (3, 5, 7, 11, 13):
        for ell in primes:
            if ell % p != 1:
                continue
            e = (ell - 1) // p
            chi, old = residue_character(ell, p), _old_convention_character(ell, p)
            least = next(a for a in itertools.count(2) if pow(a, e, ell) != 1)
            assert chi.generator == pow(least, e, ell), (ell, p)
            # the primes below ell generate F_ell*, so neither row is 0
            row = [character_eval(chi, q) for q in primes if q != ell]
            old_row = [character_eval(old, q) for q in primes if q != ell]
            unit = next(filter(None, row)) * pow(next(filter(None, old_row)), -1, p) % p
            assert row == [unit * x % p for x in old_row], (ell, p)
            moved += unit != 1
    assert moved == 97  # of the 316 pairs (ell, p), the rest keep their generator
    draws = [(p, tuple(s1), tuple(s2)) for p, s1, s2, *_ in _criterion_5_draws()]
    assert 2 * len(draws) == 1040

    def results():
        return [(m_rank(*d), sandwich_from_sets(*d)) for d in draws]

    new = results()
    monkeypatch.setattr(descent, "residue_character", _old_convention_character)
    assert results() == new


def test_criterion_6_sandwich_soundness_and_monotonicity(corpus):
    rows = corpus[0]["rows"]
    ok = all(
        int(row["sandwich_phi"][0]) <= int(row["sandwich_phi"][1])
        and int(row["sandwich_dual"][0]) <= int(row["sandwich_dual"][1])
        for row in rows
    )
    rng = random.Random(6)
    primes = [ell for ell in range(2, 2000) if is_prime(ell)]
    ones5 = [ell for ell in primes if ell % 5 == 1]
    chains = 0
    for _ in range(120):
        s1 = tuple(sorted(rng.sample([q for q in primes if q != 5], rng.randrange(0, 4))))
        pool = [ell for ell in ones5 if ell not in s1]
        chain = rng.sample(pool, 4)
        s2: tuple[int, ...] = ()
        prev_upper = None
        for ell in chain:
            s2 = tuple(sorted(s2 + (ell,)))
            sw = sandwich_from_sets(5, s1, s2)
            ok = ok and sw.lower_dim <= sw.upper_dim
            if prev_upper is not None:
                ok = ok and sw.upper_dim <= prev_upper  # enlarging S2 never helps
            prev_upper = sw.upper_dim
        chains += 1
    ok = ok and chains >= 100
    _line(6, f"sandwich soundness + monotonicity ({chains} chains)", ok)
    assert ok


def test_criterion_7_bound_formula_grid():
    rng = random.Random(7)
    ok = True
    for _ in range(10**5):
        d = 2 * rng.randrange(1, 6)
        f = FieldInvariants(d, rng.randrange(0, 4), True, True)
        s1, s2 = rng.randrange(0, 21), rng.randrange(0, 21)
        m = rng.randrange(0, 21)
        if m <= s2 + 2 * d:
            lo, hi = selmer_interval(f, s1, s2, m)
            ok = ok and lo <= hi
        lo, hi = cassels_interval(f, s1, s2, rng.randrange(0, 15))
        ok = ok and hi - lo == 2 * (2 * d + 1)
        s, r = rng.randrange(0, 30), rng.randrange(0, 10)
        ok = ok and sha_from_sum(s + 1, r) >= sha_from_sum(s, r)
        ok = ok and sha_from_sum(s, r + 1) <= sha_from_sum(s, r)
        if not ok:
            break
    _line(7, "bound-formula grid (10^5 points)", ok)
    assert ok


def test_criterion_8_constrained_construction():
    c = SearchConstraints(5, force_s1=(41,), force_s2=(11,))
    b0, modulus = construct_parameter(c)
    fib = fiber(tate_family(5), b0)
    # least nonnegative solution of the chosen system (smallest root 1 mod 11)
    least = next(b for b in range(modulus) if b % 41 == 0 and b % 11 == 1)
    ok = (
        b0 == 287
        and modulus == 451
        and fib.curve.disc % 41 == 0
        and fib.curve.disc % 11 == 0
        and least == b0
    )
    _line(8, "constrained construction b=287", ok)
    assert ok


def test_criterion_9_scan_determinism(corpus, corpus_p7):
    ok = all(report.dumps(r_serial) == report.dumps(r_parallel) for r_serial, r_parallel in (corpus, corpus_p7))
    _line(9, "scan determinism across worker counts, p = 5 and p = 7", ok)
    assert ok
