"""Family-scan benchmark for shabound.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke          # every workload at a tiny size
    python3 perfbench/run.py --write-pins     # re-pin counts and report hashes

Run from the root of a source checkout.  Each repetition is one
``shabound search`` in a fresh interpreter (perfbench/child.py): it pays
setup (import + ``search.tate_family``) and then runs one scan, whose
workers take the next chunk of fibers when they finish the last.
Repetitions run back to back for ``--seconds`` (a closed loop), and the
medians are reported.  Times in the end-to-end metrics are scaled to a
host of fixed speed: the setup runs short calibration slices between its
module imports and the scan between its fibers (child.Slicer), and a
time t becomes t * (a slice's seconds on a reference host) / (the mean
seconds of its slices).  The shared host's speed moves by tens of
percent within seconds; the scaled times move much less.

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced repetition
at ``--jobs 1`` next to an untraced one.  ``--seconds`` defaults to
``run_seconds`` in BENCHMARK.json.

Every repetition passes a correctness gate: exit code 0, the row
invariants of child.row_violations, byte-identical reports for identical
inputs, and the kept/skipped/error counts and SHA-256 pinned in
perfbench/pins.json.  A fiber that ends as an error row counts as
failed; one the pipeline reports as ``incomplete_factorization`` does not
(it is a result, and ``ok_ratio`` measures its share).  A run that fails
the gate counts every fiber it attempted as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
PINS = HERE / "pins.json"
RUN_LIMIT_S = 160  # a run must end well inside 180 s
BUDGET_ENV = "SHABOUND_FACTOR_BUDGET"
# Mean seconds of child.py's setup_slice and scan_slice on the reference host
# (2-vCPU x86_64 VM, Python 3.11, sympy 1.14); scaled times are times on a host that fast.
SETUP_SLICE_REF_S = 0.0055
SCAN_SLICE_REF_S = 0.006

# Forced (S1 prime, S2 prime) pairs for the CRT workload: S2 prime 11, the
# paper's construction (41, 11) and its neighbours, with CRT moduli 407..517,
# so the scanned parameters have similar heights and the repetitions similar
# cost.  Repetition i of seed n forces pair (n + i) mod 4.
FORCED_POOL = ((37, 11), (41, 11), (43, 11), (47, 11))


@dataclass(frozen=True)
class Workload:
    config: dict  # `shabound search` config without the forced primes
    jobs: int
    smoke_budget: int
    forced: bool = False

    def config_for(self, seed: int, rep: int, budget: int | None = None) -> dict:
        cfg = dict(self.config)
        if budget is not None:
            cfg["scan_budget"] = budget
        if self.forced:
            s1, s2 = FORCED_POOL[(seed + rep) % len(FORCED_POOL)]
            cfg.update(force_s1=[s1], force_s2=[s2])
        return cfg


WORKLOADS = {
    # sympy resultants of the dual-isogeny check dominate; factoring is ~2%
    "scan-p5-dual": Workload({"p": 5, "scan_budget": 80}, jobs=1, smoke_budget=4),
    # unhinted factoring inside Velu's minimal model dominates and loses fibers
    "scan-p7": Workload({"p": 7, "scan_budget": 300, "verify_dual": False}, jobs=1, smoke_budget=6),
    # process pool, CRT candidates and the omega filter; large parameter heights
    "search-p5-forced-j2": Workload(
        {"p": 5, "scan_budget": 300, "omega_max": 6, "verify_dual": False},
        jobs=2, smoke_budget=8, forced=True,
    ),
}

END_TO_END = ("setup_s", "fibers_per_s", "ok_ratio", "peak_rss_mb")

# (span name, fields) for the traced functions reported per layer
SPAN_METRICS = (
    ("cli.main", ("self_s",)),
    ("search.scan", ("self_s",)),
    ("search.fiber", ("total_s",)),
    ("search.evaluate_row", ("calls",)),
    ("report.dumps", ("total_s",)),
    ("descent.classify_primes", ("total_s", "self_s")),
    ("descent.factor_with_hints", ("total_s",)),
    ("descent.m_rank", ("calls", "total_s")),
    ("descent.sandwich_from_sets", ("calls", "total_s")),
    ("bounds.bound_report", ("total_s",)),
    ("isogeny.velu_quotient", ("total_s", "self_s")),
    ("isogeny.division_poly_x", ("calls", "total_s")),
    ("isogeny.dual_kernel_poly", ("calls", "total_s", "self_s")),
    ("isogeny.velu_quotient_from_kernel_poly", ("total_s",)),
    ("elliptic.has_order", ("calls", "total_s")),
    ("elliptic.minimal_model", ("calls", "total_s")),
    ("elliptic.reduction_at", ("total_s",)),
    ("arith.factor", ("calls", "total_s")),
    ("arith.residue_character", ("calls", "total_s")),
)
OTHER_PER_LAYER = (
    "setup.import_s",
    "search.tate_family.total_s",
    "arith.factor.incomplete",
    "search.evaluate_row.p50_ms",
    "search.evaluate_row.p99_ms",
    "search.scan.worker_cpu_s",
    "search.scan.parent_cpu_s",
    "search.scan.idle_core_s",
    "search.scan.kept_ratio",
    "search.scan.fail_ratio",
    "report.dumps.bytes",
    "trace.overhead_fibers_per_s",
)
PER_LAYER = tuple(f"{n}.{f}" for n, fs in SPAN_METRICS for f in fs) + OTHER_PER_LAYER


def unit_of(metric: str) -> str:
    for suffix, unit in (
        ("fibers_per_s", "fibers/s"), ("_mb", "MB"), ("_ms", "ms"), ("_s", "s"),
        ("ratio", "ratio"), ("bytes", "bytes"),
    ):
        if metric.endswith(suffix):
            return unit
    return "count"  # .calls, .incomplete


# ------------------------------------------------------------ one repetition

def _canonical(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"))


def run_child(cfg: dict, jobs: int, trace: bool, deadline: float, spans_path: Path | None = None,
              slices: bool = False) -> dict:
    """Run one scan in a fresh interpreter; return child.py's summary."""
    key = _canonical(cfg)
    cfg_path = OUT / f"config-{hashlib.sha1(key.encode()).hexdigest()[:12]}.json"
    cfg_path.write_text(key)
    env = {k: v for k, v in os.environ.items() if k != BUDGET_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    job = {"config": cfg, "config_path": str(cfg_path), "jobs": jobs, "trace": trace, "slices": slices,
           "spans_path": str(spans_path) if spans_path else None}
    job["spawned_at"] = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(job)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,  # its pool workers share the group, so one kill stops all
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"config": cfg, "jobs": jobs, "trace": trace, "violations": ["timed out"]}
    if proc.returncode != 0 or not out.strip():
        tail = err.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"config": cfg, "jobs": jobs, "trace": trace, "violations": [f"child failed: {tail[0]}"]}
    rec = json.loads(out.strip().splitlines()[-1])
    rec.update(config=cfg, jobs=jobs, trace=trace)
    return rec


def unfinished_fibers(rec: dict) -> int:
    """Fibers the user gets no bounds for: incomplete factorizations and error rows."""
    c = rec["counts"]
    return c["incomplete_factorization"] + c["errors"]


def gate(records: list[dict], pins: dict) -> list[str]:
    """Problems found in a run's repetitions; empty when the run is correct."""
    problems = []
    sha_by_config: dict[str, str] = {}
    for rec in records:
        key = _canonical(rec["config"])
        problems += [f"{key}: {v}" for v in rec["violations"][:5]]
        if "counts" not in rec:
            continue
        pin = pins.get(key)
        if pin is not None and pin != {**rec["counts"], "sha256": rec["sha256"]}:
            problems.append(f"{key}: counts or report hash differ from perfbench/pins.json")
        if sha_by_config.setdefault(key, rec["sha256"]) != rec["sha256"]:
            problems.append(f"{key}: report bytes differ between repetitions")
    return problems


# --------------------------------------------------------------- one run

def _keep_going(units: int, minimum: int, started: float, seconds: float) -> bool:
    elapsed = time.monotonic() - started
    per_unit = elapsed / units if units else 0.0
    if elapsed + per_unit > RUN_LIMIT_S - 10:
        return False
    return units < minimum or elapsed + per_unit <= seconds


def _log(rec: dict) -> None:
    c = rec.get("counts", {})
    print(
        f"  p={rec['config']['p']} forced={rec['config'].get('force_s1', [])}/{rec['config'].get('force_s2', [])} "
        f"jobs={rec['jobs']} trace={int(rec['trace'])}: "
        + (f"{rec['config']['scan_budget']} fibers in {rec['scan_s']:.3f} s, setup {rec['setup_s']:.3f} s, "
           f"kept {c.get('kept')} unfinished {unfinished_fibers(rec)}"
           + (f", {rec['slices']} slices of {1000 * rec['slice_s']:.2f} ms" if "slices" in rec else "") if c else f"FAILED {rec['violations'][:1]}"),
        file=sys.stderr,
    )


def measure(name: str, seed: int, seconds: float, trace: bool, budget: int | None = None):
    """Repeat scans of the workload for `seconds`; return one record per scan.

    Untraced, repetition i scans config_for(seed, i) at the workload's jobs,
    with calibration slices.  Traced, it scans that config without slices
    at the workload's jobs (for the pool accounting) and traced at --jobs 1,
    so that all spans stay in one process.
    """
    wl = WORKLOADS[name]
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    records = []
    i = 0
    while _keep_going(i, 1 if trace else 3, started, seconds):
        cfg = wl.config_for(seed, i, budget)
        for jobs, traced in [(wl.jobs, False)] + ([(1, True)] if trace else []):
            spans = OUT / f"spans-{name}-seed{seed}.json" if traced else None
            rec = run_child(cfg, jobs, traced, deadline, spans, slices=not trace)
            _log(rec)
            records.append(rec)
        i += 1
    return records


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _rate(rec: dict) -> float:
    return rec["config"]["scan_budget"] / rec["scan_s"]


def _scaled(seconds: float, slice_s: float, ref_s: float) -> float:
    return seconds * ref_s / slice_s


def end_to_end(records: list[dict]) -> dict[str, float]:
    attempted = sum(r["config"]["scan_budget"] for r in records)
    return {
        "setup_s": _median([_scaled(r["setup_s"], r["setup_slice_s"], SETUP_SLICE_REF_S) for r in records]),
        "fibers_per_s": _median(
            [r["config"]["scan_budget"] / _scaled(r["scan_s"], r["slice_s"], SCAN_SLICE_REF_S) for r in records]
        ),
        "ok_ratio": 1 - sum(unfinished_fibers(r) for r in records) / attempted,
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in records]),
    }


def per_layer(records: list[dict], jobs: int) -> dict[str, float]:
    traced = [r for r in records if r["trace"]]
    plain = [r for r in records if not r["trace"] and r["jobs"] == jobs]
    m: dict[str, float] = {}
    for span, fields in SPAN_METRICS:
        for f in fields:
            m[f"{span}.{f}"] = _median([r["spans"].get(span, {}).get(f, 0) for r in traced])
    rows_ms = [x for r in traced for x in r["evaluate_row_ms"]]
    pct = statistics.quantiles(rows_ms, n=100, method="inclusive") if len(rows_ms) > 1 else [_median(rows_ms)] * 99
    attempted = sum(r["config"]["scan_budget"] for r in records)
    non_degenerate = attempted - sum(r["counts"]["degenerate"] for r in records)
    # at --jobs 1 the scan runs in the measuring process itself, which is then the worker
    busy = [r["worker_cpu_s"] if jobs > 1 else r["parent_cpu_s"] for r in plain]
    m.update({
        "setup.import_s": _median([r["import_s"] for r in records]),
        "search.tate_family.total_s": _median([r["tate_family_s"] for r in records]),
        "arith.factor.incomplete": _median([r["factor_incomplete"] for r in traced]),
        "search.evaluate_row.p50_ms": pct[49],
        "search.evaluate_row.p99_ms": pct[98],
        "search.scan.worker_cpu_s": _median([r["worker_cpu_s"] for r in plain]),
        "search.scan.parent_cpu_s": _median([r["parent_cpu_s"] for r in plain]),
        "search.scan.idle_core_s": _median([jobs * r["scan_s"] - b for r, b in zip(plain, busy)]),
        "search.scan.kept_ratio": sum(r["counts"]["kept"] for r in records) / non_degenerate,
        "search.scan.fail_ratio": sum(unfinished_fibers(r) for r in records) / attempted,
        "report.dumps.bytes": _median([r["report_bytes"] for r in records]),
        # traced rate minus the rate of the same scan without the spans' estimated cost
        "trace.overhead_fibers_per_s": _median(
            [_rate(r) - r["config"]["scan_budget"] / (r["scan_s"] - r["trace_overhead_s"]) for r in traced]
        ),
    })
    return m


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():  # the benchmark's own checkout may be a plain copy
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "sympy": metadata.version("sympy"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        f"{BUDGET_ENV}_set": BUDGET_ENV in os.environ,  # it is removed for the scans either way
    }


def run(name: str, seed: int, seconds: float, trace: bool, budget: int | None = None) -> dict:
    OUT.mkdir(exist_ok=True)
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    records = measure(name, seed, seconds, trace, budget)
    attempted = sum(r["config"]["scan_budget"] for r in records)
    problems = gate(records, pins)
    for p in problems:
        print(f"gate: {p}", file=sys.stderr)
    correct = not problems
    failed = sum(r["counts"]["errors"] for r in records) if correct else attempted
    usable = [r for r in records if "counts" in r]
    if not usable:
        values = dict.fromkeys(PER_LAYER if trace else END_TO_END, 0.0)
    elif trace:
        values = per_layer(usable, WORKLOADS[name].jobs)
    else:
        values = end_to_end(usable)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "env": environment(), "result": result, "repetitions": records}
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return {"env": record["env"], "result": result}


# ------------------------------------------------------------------ modes

def smoke(bench: dict) -> int:
    """Every workload at a tiny size, traced and not; check names and units against BENCHMARK.json."""
    ok = True
    for name, wl in WORKLOADS.items():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            out = run(name, 0, 1, trace, budget=wl.smoke_budget)["result"]
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {m: v["unit"] for m, v in out["metrics"].items()}
            verdict = out["correct"] and got == want
            ok &= verdict
            print(f"smoke {name} trace={int(trace)}: {'ok' if verdict else 'FAIL'}"
                  + ("" if got == want else f" metrics differ: {sorted(set(got.items()) ^ set(want.items()))}"))
    return 0 if ok else 1


def write_pins() -> int:
    """Pin counts and report hashes of every config the workloads can generate."""
    OUT.mkdir(exist_ok=True)
    pins = {}
    for name, wl in WORKLOADS.items():
        reps = len(FORCED_POOL) if wl.forced else 1
        for budget in (None, wl.smoke_budget):
            for i in range(reps):
                rec = run_child(wl.config_for(0, i, budget), wl.jobs, False, time.monotonic() + 600)
                _log(rec)
                if rec["violations"]:
                    print(f"not pinned, gate fails: {rec['violations'][:5]}", file=sys.stderr)
                    return 1
                pins[_canonical(rec["config"])] = {**rec["counts"], "sha256": rec["sha256"]}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "shabound" / "cli.py").is_file():
        print(f"error: no shabound sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(bench)
    if args.write_pins:
        return write_pins()
    if args.workload is None:
        ap.error("--workload is required")
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for k, v in out["result"]["metrics"].items():
        print(f"{args.workload} {k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps({"env": out["env"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
