"""Velu quotients, division polynomials, dual kernel recovery."""

import random
from fractions import Fraction

import pytest
import sympy
from conftest import ZX, add_points, multiple, oracle_velu_from_kernel_poly, poly_mul, poly_sub, push_point

from shabound import arith, descent, elliptic, isogeny, polys, search
from shabound.arith import factor
from shabound.elliptic import has_order, invariants, kernel_multiples, on_curve
from shabound.descent import classify_primes
from shabound.errors import InputError, ShaboundError
from shabound.isogeny import (
    division_poly_x,
    dual_kernel_poly,
    velu_quotient,
    velu_quotient_from_kernel_poly,
)
from shabound.search import fiber, tate_family

Q = Fraction

E11A3 = invariants(0, -1, 1, 0, 0)
E_B5 = invariants(-4, -5, -5, 0, 0)
P0 = (Q(0), Q(0))


def _divides(g, f):
    """True iff g divides f over Q, by sympy."""
    x = sympy.symbols("x")
    g, f = (sympy.Poly([sympy.Rational(c) for c in reversed(a)], x) for a in (g, f))
    return sympy.rem(f, g).is_zero


def test_division_poly_degree_and_roots():
    f5 = division_poly_x(E11A3, 5, ZX)
    assert len(f5) - 1 == 12  # (p^2 - 1) / 2
    # the x-coordinates of the 5-torsion points 1P..2P are roots
    for i in (1, 2):
        x = multiple(E11A3, i, P0)[0]
        assert polys.evaluate(f5, x) == 0


def test_velu_fixture_11a():
    iso = velu_quotient(E11A3, P0, 5)
    assert iso.codomain.ainvs() == (0, -1, 1, -10, -20)
    assert iso.codomain.disc == -(11**5)
    assert iso.kernel_x_poly == (Q(0), Q(-1), Q(1))  # x^2 - x


def test_kernel_poly_divides_division_poly():
    # velu_quotient relies on this without checking it; keep it checked on a fiber corpus
    corpus = [(5, b) for b in range(-20, 21) if b] + [(7, b) for b in (2, 3, -1, -2, 4)]
    for p, b in corpus:
        fib = fiber(tate_family(p), b)
        iso = velu_quotient(fib.curve, fib.point, p)
        assert _divides(iso.kernel_x_poly, division_poly_x(fib.curve, p, ZX)), (p, b)


def test_push_point_kernel_to_identity():
    iso = velu_quotient(E_B5, P0, 5)
    for i in range(1, 5):
        assert push_point(iso, P0, multiple(E_B5, i, P0)) is None


def test_push_point_homomorphism_many_pairs():
    iso = velu_quotient(E_B5, P0, 5)
    q0 = (Q(2), Q(12))
    pool = [
        add_points(E_B5, multiple(E_B5, i, P0), multiple(E_B5, j, q0))
        for i in range(5)
        for j in range(-3, 4)
    ]
    rng = random.Random(42)
    for _ in range(1000):
        a, b = rng.choice(pool), rng.choice(pool)
        lhs = push_point(iso, P0, add_points(E_B5, a, b))
        rhs = add_points(iso.codomain, push_point(iso, P0, a), push_point(iso, P0, b))
        assert lhs == rhs
        assert on_curve(iso.codomain, lhs)


def test_quotient_from_kernel_poly_matches_point_route():
    iso = velu_quotient(E_B5, P0, 5)
    iso2 = velu_quotient_from_kernel_poly(E_B5, iso.kernel_x_poly, 5)
    assert iso2.codomain == iso.codomain


def test_quotient_rejects_bad_kernel_poly():
    with pytest.raises(InputError):
        velu_quotient_from_kernel_poly(E_B5, (Q(1), Q(0), Q(1)), 5)
    # as for a kernel point: an empty root set (p = 1) is no kernel of a p-isogeny
    for p, h in ((1, [1]), (2, [1]), (4, [0, 1])):
        with pytest.raises(InputError, match="odd integer >= 3"):
            velu_quotient_from_kernel_poly(E_B5, h, p)


def test_a_kernel_polynomial_dividing_psi_but_not_closed_is_rejected():
    # T = (0, 0) has order 9, with x(2T) = 12 and x(3T) = 4.  h = x psi_3 / (3 (x - 4))
    # has the roots x(T) = 0 and the x-coordinates of the three other pairs of
    # 3-torsion points, so it divides psi_9 and passes that check; 12 = x(2T)
    # is no root, so the closure check rejects it, at both entry points
    e = invariants(-3, -12, -12, 0, 0)
    h = [0, 144, 0, -9, 1]
    assert multiple(e, 9, P0) is None and multiple(e, 2, P0)[0] == 12 and multiple(e, 3, P0)[0] == 4
    assert _divides(h, division_poly_x(e, 9, ZX)) and not _divides(h, [-12, 1])
    with pytest.raises(InputError, match="not closed under doubling"):
        velu_quotient_from_kernel_poly(e, h, 9)
    with pytest.raises(InputError, match="not closed under doubling"):
        isogeny.velu_model_from_scaled_kernel(e, h, 1, 9)
    # <T> itself passes both checks
    iso = velu_quotient(e, P0, 9)
    assert velu_quotient_from_kernel_poly(e, iso.kernel_x_poly, 9).codomain == iso.codomain


def test_dual_kernel_round_trip():
    iso = velu_quotient(E11A3, P0, 5)
    h = dual_kernel_poly(iso)
    assert _divides(h, division_poly_x(iso.codomain, 5, ZX))
    iso_dual = velu_quotient_from_kernel_poly(iso.codomain, h, 5)
    back = iso_dual.codomain
    # composition phi-hat o phi is multiplication by 5: same curve up to iso
    assert (back.c4, back.c6, back.disc) == (E11A3.c4, E11A3.c6, E11A3.disc)


def _forged(cls, bad):
    return cls._replace(isogeny=cls.isogeny._replace(kernel_x_poly=bad))


def test_dual_kernel_rejects_a_bad_kernel_poly(monkeypatch):
    # dual_kernel_poly trusts the forward kernel an IsogenyData carries; a
    # forged one (not dividing psi_p, not integral, not monic) gives an h'
    # that fails the kernel checks on E', a typed error, which a scan
    # records as an error row
    forged = {5: ((1, 0, 1), (Q(1, 3), 0, 1), (0, 1, 2)), 7: ((1, 0, 0, 1), (Q(1, 3), 0, 0, 1), (0, 0, 1, 2))}
    verify = search._verify_dual_swap
    for p, b in ((5, 2), (5, -32), (7, 5)):  # -32 and 5 with a change of model
        fib = fiber(tate_family(p), b)
        cls = classify_primes(fib.curve, fib.point, p, fib.disc_factorization)
        assert verify(cls)
        for bad in forged[p]:
            with pytest.raises(InputError, match="does not divide"):
                verify(_forged(cls, bad))
            monkeypatch.setattr(search, "_verify_dual_swap", lambda cls: verify(_forged(cls, bad)))
            row = search.evaluate_row(search.SearchConstraints(p), b)
            assert row["error"] == "InputError" and "does not divide" in row["detail"], (p, b, bad)
            assert "dual_swap_verified" not in row and row["s1"]  # fields filled before the failure stay


def test_the_dual_check_makes_two_division_polynomial_calls(monkeypatch):
    # per dual-checked fiber: the top of psi_p in the dual kernel solve and
    # psi'_p mod h' on E', whose ring and registers (psi_2^2, psi_2^4, f_3)
    # the closure test on E' reads, then the isomorphism test against E;
    # the forward kernel is not proved again
    calls = []
    psi, closed, iso_test = isogeny.division_poly_x, isogeny._stable_under_doubling, search.isomorphic_to_minimal

    def counted(e, n, ring, *base):
        mul = ring[1]
        calls.append("top" if mul is isogeny._mul_top else "full" if mul is poly_mul else ("mod", ring, *base))
        return psi(e, n, ring, *base)

    def counted_closure(h, ring, base):
        calls.append(("closure", ring, base))
        return closed(h, ring, base)

    def counted_iso(e, emin):
        calls.append("isomorphic")
        return iso_test(e, emin)

    monkeypatch.setattr(isogeny, "division_poly_x", counted)
    monkeypatch.setattr(isogeny, "_stable_under_doubling", counted_closure)
    monkeypatch.setattr(search, "isomorphic_to_minimal", counted_iso)
    for p, bs in ((5, (2, -3, -32, 41)), (7, (2, -3, 5, 30))):
        for b in bs:
            calls.clear()
            assert search.evaluate_row(search.SearchConstraints(p), b)["dual_swap_verified"], (p, b)
            assert [c if isinstance(c, str) else c[0] for c in calls] == ["top", "mod", "closure", "isomorphic"], (p, b)
            assert calls[1][1] is calls[2][1]  # one residue ring
            assert calls[1][2] is calls[2][2]  # one set of recursion registers in it


def test_dual_check_stays_in_integers(monkeypatch):
    # The scan's dual check runs over Z end to end: the dual kernel as the
    # ints (H, kappa), Velu's model on the integral pair made from them,
    # and the closed-form test against E.  It makes no Fraction at all,
    # with or without a change of model (u = 1 at b = 2; u = p at p = 5,
    # b = -32 and p = 7, b = 5), and neither a factorization nor a
    # minimal model.  The Fraction edge, dual_kernel_poly and the dual's
    # velu_quotient_from_kernel_poly, makes no Fraction product either: at
    # b = 2 its Velu step runs over Z on the rescaled pair of a non-integral
    # kernel polynomial, elliptic._transform_between solves for s, r and t
    # by exact integer division, and only the scale D comes back as Fractions
    made, products = [0], [0]
    new, mul, rmul = Fraction.__new__, Fraction.__mul__, Fraction.__rmul__

    def counted_new(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    def counted(op):
        def wrapped(a, b):
            products[0] += 1
            return op(a, b)
        return wrapped

    heavy = {"factor_with_hints": 0, "minimal_model": 0}

    def count_heavy(name, fn):
        def wrapped(*args, **kwargs):
            heavy[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for p, b in ((5, 2), (7, 2), (5, -32), (7, 5)):
        fib = fiber(tate_family(p), b)
        cls = classify_primes(fib.curve, fib.point, p, fib.disc_factorization)
        iso = cls.isogeny
        assert iso.to_minimal.u == (1 if b == 2 else p), (p, b)
        monkeypatch.setattr(Fraction, "__new__", counted_new)
        made[0] = 0
        assert search._verify_dual_swap(cls)
        assert made[0] == 0, (p, b, made[0])
        assert Fraction(1, 2) and made[0] == 1  # the counter counts
        monkeypatch.undo()
        monkeypatch.setattr(Fraction, "__mul__", counted(mul))
        monkeypatch.setattr(Fraction, "__rmul__", counted(rmul))
        products[0] = 0
        velu_quotient_from_kernel_poly(iso.codomain, dual_kernel_poly(iso), p)
        assert products[0] == 0, (p, b, products[0])
        assert Fraction(1, 2) * 3 == Fraction(3, 2) and products[0] > 0  # the counter counts
        monkeypatch.undo()
        for name, home in (("factor_with_hints", arith), ("minimal_model", elliptic)):
            fn = getattr(home, name)
            for mod in (arith, elliptic, isogeny, descent, search):
                if getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, count_heavy(name, fn))
        assert search._verify_dual_swap(cls)
        assert heavy == {"factor_with_hints": 0, "minimal_model": 0}, (p, b)
        velu_quotient_from_kernel_poly(iso.codomain, dual_kernel_poly(iso), p)
        assert heavy == {"factor_with_hints": 1, "minimal_model": 1}, (p, b)  # the counters count
        heavy.update(factor_with_hints=0, minimal_model=0)
        monkeypatch.undo()


def test_dual_kernel_moves_with_any_change_of_model():
    # the one solve reads h' on the model x_min = (x - r) / u^2 for the u
    # and r it is given, Fractions included: h'_min(X) = h'(u^2 X + r) / u^(2d)
    for p, b in ((5, 2), (5, -32), (7, 5)):
        fib = fiber(tate_family(p), b)
        iso = classify_primes(fib.curve, fib.point, p, fib.disc_factorization).isogeny
        raw = dual_kernel_poly(iso._replace(to_minimal=elliptic.Transformation.identity()))
        d = len(raw) - 1
        for u, r in ((iso.to_minimal.u, iso.to_minimal.r), (Q(2, 3), Q(-5, 7)), (Q(p), Q(1, 2))):
            want = []
            for c in reversed(raw):  # Horner in u^2 X + r
                want = poly_sub(poly_mul(want, [r, u * u]), [-c])
            want = [c / u ** (2 * d) for c in want]
            tr = elliptic.Transformation(u, r, Q(0), Q(0))
            assert dual_kernel_poly(iso._replace(to_minimal=tr)) == want, (p, b, u, r)


def test_rational_kernels_match_the_fraction_model_oracle():
    # Velu's formulas run once, over Z, on the pair scaled by D^2; the
    # oracle takes a Fraction model and clears its denominators by the
    # smallest scale.  Both give one codomain, transformation and
    # factorization, for integral kernels (D = 1) and dual ones (D = p)
    denominators = set()
    for p, bmax in ((5, 60), (7, 40)):
        checked = 0
        for b in range(-bmax, bmax + 1):
            try:
                fib = fiber(tate_family(p), b)
                cls = classify_primes(fib.curve, fib.point, p, fib.disc_factorization)
            except ShaboundError:  # degenerate or unfactored fibers
                continue
            iso = cls.isogeny
            for e, h, hints in (
                (cls.curve, list(iso.kernel_x_poly), cls.disc_factorization.primes),
                (iso.codomain, dual_kernel_poly(iso), iso.codomain_disc_factorization.primes),
            ):
                got = velu_quotient_from_kernel_poly(e, h, p, hints)
                emin, tr, fac = oracle_velu_from_kernel_poly(e, h, p, hints)
                assert got.codomain.ainvs() == emin.ainvs(), (p, b)
                assert got.to_minimal == tr, (p, b)
                assert got.codomain_disc_factorization == fac, (p, b)
                denominators.add(max(c.denominator for c in h))
            checked += 1
        assert checked >= {5: 100, 7: 60}[p], (p, checked)
    assert denominators == {1, 5, 7}


def test_dual_kernel_solve_multiplies_no_series_by_one(monkeypatch):
    # the truncated psi_p takes 4 products at p = 5 (7 at p = 7: psi_2^4,
    # then f_3^3 and psi_2^4 f_4 are each made once), the tops of h_c^2 and
    # N' 2 (N' is the x-map's series times h_c^2), and the tops of T_1 .. T_d
    # and the powers of N' and h_c^2 they need 2 (5): h_c^0 = 1, N'^1 and
    # h_c^2 are taken as they are, so no product has a factor one
    calls = [0]
    mul_top = isogeny._mul_top

    def counted(f, g):
        one = [1] + [0] * (len(f) - 1)
        assert one not in (f, g[: len(f)])
        calls[0] += 1
        return mul_top(f, g)

    monkeypatch.setattr(isogeny, "_mul_top", counted)
    for p, b, want in ((5, 2, 8), (5, -32, 8), (7, 2, 14), (7, 5, 14)):
        fib = fiber(tate_family(p), b)
        iso = classify_primes(fib.curve, fib.point, p, fib.disc_factorization).isogeny
        calls[0] = 0
        dual_kernel_poly(iso)
        assert calls[0] == want, (p, b, calls[0])


def test_velu_from_a_point_stays_in_integers(monkeypatch):
    # the on-curve check of an integral point, the kernel walk, the kernel
    # polynomial and Velu's t and w run over Z: at b = 2, where Velu's
    # codomain is minimal, no Fraction products at all at p = 5 and at p = 7,
    # and the kernel polynomial stays in ints
    calls = [0]
    mul, rmul = Fraction.__mul__, Fraction.__rmul__

    def counted(op):
        def wrapped(a, b):
            calls[0] += 1
            return op(a, b)
        return wrapped

    for p in (5, 7):
        fib = fiber(tate_family(p), 2)
        monkeypatch.setattr(Fraction, "__mul__", counted(mul))
        monkeypatch.setattr(Fraction, "__rmul__", counted(rmul))
        calls[0] = 0
        iso = velu_quotient(fib.curve, fib.point, p, fib.disc_factorization.primes)
        assert calls[0] == 0, (p, calls[0])
        assert Fraction(1, 2) * 3 == Fraction(3, 2) and calls[0] == 1  # the counter counts
        monkeypatch.undo()
        assert iso.to_minimal.u == 1
        assert all(type(c) is int for c in iso.kernel_x_poly)


def test_dual_kernel_round_trip_other_fiber():
    iso = velu_quotient(E_B5, P0, 5)
    h = dual_kernel_poly(iso)
    iso_dual = velu_quotient_from_kernel_poly(iso.codomain, h, 5)
    assert (iso_dual.codomain.c4, iso_dual.codomain.disc) == (E_B5.c4, E_B5.disc)
    # valuations swap: v_11 pattern S1 <-> S2 is checked at the descent level


def test_codomain_carries_its_discriminant_factorization():
    # both Velu entry points, and the dual built from dual_kernel_poly
    fibers = [(5, s * b) for b in range(1, 21) for s in (1, -1)] + [(7, b) for b in (2, -2, 3, -3)]
    for p, b in fibers:
        fib = fiber(tate_family(p), b)
        iso = velu_quotient(fib.curve, fib.point, p)
        iso_k = velu_quotient_from_kernel_poly(fib.curve, iso.kernel_x_poly, p)
        iso_dual = velu_quotient_from_kernel_poly(iso.codomain, dual_kernel_poly(iso), p)
        for it in (iso, iso_k, iso_dual):
            assert it.codomain_disc_factorization == factor(it.codomain.disc), (p, b)


def test_composite_p_is_not_a_factoring_hint():
    # 54b3 has a point of order 9, so a 9-isogeny; a hint of 9 would enter
    # the codomain discriminant's factorization as a "prime" unless 3 is hinted too
    e = invariants(1, -1, 1, -14, 29)
    for hints in ((), factor(e.disc).primes):
        iso = velu_quotient(e, (Q(3), Q(1)), 9, hints)
        assert iso.codomain.ainvs() == (1, -1, 1, -29, -53)
        assert iso.codomain_disc_factorization == factor(iso.codomain.disc)
        assert iso.kernel_x_poly == (-81, 90, 0, -10, 1)


def test_wrong_order_point_rejected():
    with pytest.raises(InputError):
        velu_quotient(E_B5, (Q(2), Q(12)), 5)


def test_velu_quotient_walks_the_kernel_once(monkeypatch):
    # P -> ((p+1)/2)P is the order check and the kernel: (p-1)/2 integer chord-tangent steps
    calls = [0]
    step = elliptic._integral_step

    def counted(*args):
        calls[0] += 1
        return step(*args)

    monkeypatch.setattr(elliptic, "_integral_step", counted)
    fib = fiber(tate_family(7), 2)
    for e, pt, p in ((E11A3, P0, 5), (fib.curve, fib.point, 7)):
        calls[0] = 0
        velu_quotient(e, pt, p)
        assert calls[0] == (p - 1) // 2, p


def test_kernel_walk_needs_exact_order_and_odd_p():
    # (0, 0) on 11a3 has order 5, which divides 15: not of exact order 15
    assert not has_order(E11A3, P0, 15)
    assert kernel_multiples(E11A3, P0, 15) is None
    with pytest.raises(InputError, match="exact order 15"):
        velu_quotient(E11A3, P0, 15)
    for p in (1, 2, 4):
        for call in (has_order, kernel_multiples, velu_quotient):
            with pytest.raises(InputError):
                call(E11A3, P0, p)


def test_isogeny_module_is_sympy_free():
    # the whole package: sympy is a test oracle only, never a runtime dependency
    import os
    import pathlib
    import subprocess
    import sys

    import shabound

    package = pathlib.Path(shabound.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert any(f.name == "isogeny.py" for f in sources)
    for f in sources:
        assert "sympy" not in f.read_text(), f.name
    probe = (
        "import sys, shabound.cli\n"
        "from shabound.search import tate_family\n"
        "tate_family(5), tate_family(7)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


# u = 1 at b = 2; u = p at p = 5, b = -32 and p = 7, b = 5
MOVED_AND_NOT = ((5, 2), (7, 2), (5, -32), (7, 5))


def test_velu_reads_its_power_sums_off_the_kernel_walk(monkeypatch):
    # velu_quotient takes Velu's power sums from the walk's x-coordinates,
    # with no round trip through the kernel polynomial; they are the sums
    # Newton's identities give on that polynomial, and the kernel-polynomial
    # entry reaches the same codomain, change of model and factorization
    seen = []
    model = isogeny._velu_model

    def spy(e, d, *sums):
        seen.append((d, list(sums)))
        return model(e, d, *sums)

    monkeypatch.setattr(isogeny, "_velu_model", spy)
    for p, b in MOVED_AND_NOT:
        fib = fiber(tate_family(p), b)
        hints = fib.disc_factorization.primes
        seen.clear()
        iso = velu_quotient(fib.curve, fib.point, p, hints)
        xs = [x for x, _ in kernel_multiples(fib.curve, fib.point, p)]
        assert seen == [(len(xs), polys.power_sums(polys.from_roots(xs), 3))], (p, b)
        assert iso.to_minimal.u == (1 if b == 2 else p), (p, b)
        via_h = velu_quotient_from_kernel_poly(fib.curve, iso.kernel_x_poly, p, hints)
        assert via_h.codomain == iso.codomain and via_h.codomain.disc == iso.codomain.disc, (p, b)
        assert via_h.to_minimal == iso.to_minimal, (p, b)
        assert via_h.codomain_disc_factorization == iso.codomain_disc_factorization, (p, b)


def test_changes_of_model_on_a_scanned_fiber_are_ints():
    # minimal_model solves s, r and t by exact division: no Fraction, moved or not
    for p, b in MOVED_AND_NOT:
        fib = fiber(tate_family(p), b)
        tr = classify_primes(fib.curve, fib.point, p, fib.disc_factorization).isogeny.to_minimal
        assert tr.u == (1 if b == 2 else p), (p, b)
        assert all(type(v) is int for v in (tr.u, tr.r, tr.s, tr.t)), (p, b, tr)


def test_a_p7_scan_makes_one_fraction_per_distinct_bound_report(monkeypatch):
    # with the dual check off, the scan's only Fraction is the advisory
    # sha_lower_raw of each bound report; bound_report is cached, so one
    # per distinct (#S1, #S2, m_phi, m_phihat) of the kept rows.  Changes
    # of model and kernel polynomials stay ints
    from shabound import bounds

    bounds.bound_report.cache_clear()
    made = [0]
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    report = search.scan(search.SearchConstraints(7, scan_budget=300, verify_dual=False))
    monkeypatch.undo()
    distinct = {(len(r["s1"]), len(r["s2"]), r["m_phi"], r["m_phihat"]) for r in report["rows"]}
    assert len(report["rows"]) > 200 and made[0] == len(distinct), (made[0], len(distinct))
