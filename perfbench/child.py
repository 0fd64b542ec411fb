"""One scan in a fresh interpreter, as a CLI user runs it.

    python3 perfbench/child.py '<job json>'

The job carries ``spawned_at`` (the parent's ``time.monotonic()`` just
before it started this process; the clock is system-wide on Linux), the
search ``config`` and the path it was written to, ``jobs``, ``trace``,
``slices`` and an optional ``spans_path``.  The child sets up shabound, calls
``shabound.cli.main(["search", ...])`` with stdout captured, checks the
report's row invariants and prints one JSON summary line.

With ``slices`` set (the untraced runs of run.py's ``--trace 0``), the
setup runs a short calibration slice, a fixed kernel that uses no
shabound code, between module imports, and the scan between fibers, at
most every SLICE_EVERY_S seconds in each process that does the work.
The slices' time is taken off the setup's and the scan's wall time, and
their mean duration tells run.py how fast the host ran each: the shared
host's speed moves by tens of percent within seconds.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from math import gcd

# Public functions whose spans make up the per-layer metrics.  Each is
# wrapped under every name a shabound module binds it to, because modules
# import functions by name.  polys and fplinalg are too fine-grained to
# wrap: their time lands in their callers' self time.
TRACED = {
    "arith": ("factor", "residue_character"),
    "elliptic": ("has_order", "minimal_model", "reduction_at"),
    "isogeny": ("division_poly_x", "velu_quotient", "velu_quotient_from_kernel_poly", "dual_kernel_poly"),
    "descent": ("classify_primes", "factor_with_hints", "m_rank", "sandwich_from_sets"),
    "bounds": ("bound_report",),
    "search": ("scan", "evaluate_row", "fiber"),
    "report": ("dumps",),
}


def _rebind(modules, old, new) -> None:
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)


def install_spans(recorder):
    """Wrap the TRACED functions in every shabound namespace.

    Returns a traced cli.main and a one-item list counting the factor
    calls that gave up (results with ``complete`` false).
    """
    import shabound.cli

    modules = [m for name, m in sys.modules.items() if name.startswith("shabound.") and m]
    for short, names in TRACED.items():
        for fname in names:
            orig = getattr(sys.modules[f"shabound.{short}"], fname)
            _rebind(modules, orig, recorder.wrap(f"{short}.{fname}", orig))

    incomplete = [0]
    traced_factor = sys.modules["shabound.arith"].factor

    def factor(*args, **kwargs):
        result = traced_factor(*args, **kwargs)
        incomplete[0] += not result.complete
        return result

    _rebind(modules, traced_factor, factor)
    return recorder.wrap("cli.main", shabound.cli.main), incomplete


def row_violations(report: dict, cfg: dict) -> list[str]:
    """Invariants every row of a correct report satisfies, whatever the seed."""
    p = cfg["p"]
    forced = list(cfg.get("force_s1", [])) + list(cfg.get("force_s2", []))
    out = []
    for row in report["rows"] + report["errors"]:
        b = row["b"]
        if row.get("error") == "classifier_disagreement":
            out.append(f"b={b}: classifier disagreement")
        if any(int(q) % p != 1 for q in row.get("s2", [])):
            out.append(f"b={b}: an S2 prime is not 1 mod {p}")
        if "disc" in row and any(int(row["disc"]) % ell for ell in forced):
            out.append(f"b={b}: a forced prime does not divide the discriminant")
        for key in ("sandwich_phi", "sandwich_dual"):
            if key in row and int(row[key][0]) > int(row[key][1]):
                out.append(f"b={b}: {key} lower > upper")
    if cfg.get("verify_dual", True):
        out += [f"b={r['b']}: dual swap not verified" for r in report["rows"] if r.get("dual_swap_verified") is not True]
    accounted = len(report["rows"]) + len(report["errors"]) + sum(int(v) for v in report["skipped"].values())
    if accounted != cfg["scan_budget"]:
        out.append(f"{accounted} fibers accounted for, {cfg['scan_budget']} attempted")
    return out


SLICE_EVERY_S = 0.05  # least time from the end of a slice to the next


def _int_work(rounds: int) -> int:
    """Big-integer modular powers and gcds (as in factoring) and Fraction
    sums (as in Velu's formulas), in plain Python that imports nothing."""
    acc = 0
    for r in range(rounds):
        n = (10**18 + 9 * r) * (10**9 + 7) + 1
        a = 2
        for _ in range(60):
            a = pow(a, 65537, n)
            acc ^= gcd(a - 1, n)
        s = Fraction(0)
        for k in range(1, 80):
            s += Fraction(r + k, k * k + 1)
        acc ^= s.denominator & 0xFFFF
    return acc


def _poly_work(rounds: int) -> int:
    """sympy polynomial products and resultants over QQ (as in the dual check)."""
    import sympy

    x = sympy.symbols("x")
    f = sympy.Poly([3, -1, 4, 1, -5, 9, 2, -6, 5, 3], x, domain="QQ")
    return sum(int(sympy.Poly.resultant(f.shift(r) * f + r, f.diff(x)) % 97) for r in range(rounds))


def setup_slice() -> None:
    """A calibration slice that can run between imports, ~6 ms."""
    _int_work(8)


def scan_slice() -> None:
    """A calibration slice of the scan's mix of work, ~6 ms.  The sympy part
    matters: object-heavy code slows more than tight integer loops when the
    host is contended."""
    _int_work(2)
    _poly_work(2)


class Slicer:
    """Runs ``work`` at a call once SLICE_EVERY_S has passed since the last
    slice in this process; adds its seconds and count to ``totals``.

    Also a ``sys.meta_path`` finder that finds nothing, so that the slices
    can run between the module imports of the setup.
    """

    def __init__(self, work, totals, lock=contextlib.nullcontext()):
        self.work, self.totals, self.lock = work, totals, lock
        self.last_end = float("-inf")  # per process once forked

    def tick(self) -> None:
        start = time.perf_counter()
        if start - self.last_end >= SLICE_EVERY_S:
            self.work()
            self.last_end = time.perf_counter()
            with self.lock:
                self.totals[0] += self.last_end - start
                self.totals[1] += 1

    def find_spec(self, *args):
        self.tick()
        return None


def install_slices(search) -> Slicer:
    """Tick a Slicer before every fiber the scan evaluates.

    Wraps ``search._row_with_forcing``, which the scan calls per fiber in
    its own process at ``--jobs 1`` and in forked pool workers otherwise,
    so the Slicer keeps its totals in shared memory.
    """
    import multiprocessing  # the pool imports it anyway

    _poly_work(1)  # first calls into sympy's polynomial code are slower
    slicer = Slicer(scan_slice, multiprocessing.RawArray("d", 2), multiprocessing.Lock())
    row = search._row_with_forcing

    @functools.wraps(row)
    def sliced(args):
        slicer.tick()
        return row(args)

    search._row_with_forcing = sliced
    return slicer


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    job = json.loads(sys.argv[1])
    cfg = job["config"]
    setup_slicer = Slicer(setup_slice, [0.0, 0])
    if job["slices"]:
        sys.meta_path.insert(0, setup_slicer)
    t0 = time.monotonic()
    import shabound.cli
    from shabound import search

    t1 = time.monotonic()
    search.tate_family(cfg["p"])
    t2 = time.monotonic()
    if job["slices"]:
        sys.meta_path.remove(setup_slicer)
    setup_slices_s, setup_slices = setup_slicer.totals
    out = {"setup_s": t2 - job["spawned_at"] - setup_slices_s, "import_s": t1 - t0, "tate_family_s": t2 - t1}

    recorder = None
    cli_main = shabound.cli.main
    if job["trace"]:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        cli_main, incomplete = install_spans(recorder)

    argv = ["search", "--config", job["config_path"], "--jobs", str(job["jobs"]), "--json"]
    stdout, stderr = io.StringIO(), io.StringIO()
    slicer = None
    if job["slices"]:
        slicer = install_slices(search)
    self0, kids0 = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    t3 = time.monotonic()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli_main(argv)
    t4 = time.monotonic()
    self1, kids1 = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)

    text = stdout.getvalue()
    out.update(
        rc=rc,
        scan_s=t4 - t3,
        parent_cpu_s=_cpu(self1) - _cpu(self0),
        worker_cpu_s=_cpu(kids1) - _cpu(kids0),
        peak_rss_mb=max(self1.ru_maxrss, kids1.ru_maxrss) / 1024,  # ru_maxrss is in KiB on Linux
        report_bytes=len(text.encode()),
        sha256=hashlib.sha256(text.encode()).hexdigest(),
    )
    if slicer is not None:
        seconds, count = slicer.totals
        # each of the jobs processes spent its share of the slices' time
        out.update(scan_s=t4 - t3 - seconds / job["jobs"], slice_s=seconds / max(count, 1), slices=int(count),
                   setup_slice_s=setup_slices_s / max(setup_slices, 1), setup_slices=setup_slices)
    if rc != 0:
        out["violations"] = [f"search exited {rc}: {stderr.getvalue().strip()[-300:]}"]
    else:
        report = json.loads(text)
        out["counts"] = {
            "kept": len(report["rows"]),
            "errors": len(report["errors"]),
            **{k: int(v) for k, v in report["skipped"].items()},
        }
        out["violations"] = row_violations(report, cfg)
    if slicer is not None and not (out["slices"] and out["setup_slices"]):
        out["violations"].append("no calibration slice ran in the setup or the scan (pool workers not forked?)")
    if recorder is not None:
        from spans import span_cost_s

        out["spans"] = recorder.summary()
        out["factor_incomplete"] = incomplete[0]
        out["trace_overhead_s"] = span_cost_s() * len(recorder.spans)
        out["evaluate_row_ms"] = [1000 * d for d in recorder.durations("search.evaluate_row")]
        if job.get("spans_path"):
            recorder.dump(job["spans_path"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
