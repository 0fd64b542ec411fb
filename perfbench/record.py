"""Run the benchmark over several seeds and summarize, optionally as a BENCH point.

    python3 perfbench/record.py --runs 10 [--workload NAME ...] [--out perfbench/BENCH_<n>.json]

For every workload: ``--runs`` untraced runs with seeds 1, 2, ..., then
one traced run with seed 1.  Prints, per end-to-end metric, the median
over runs and the spread (third minus first quartile over the median),
and flags a spread at or above the metric's bound in BENCHMARK.json or
above a third of it.  Per-layer metrics come from the traced run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    point = {"run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for w in args.workload or [w["name"] for w in bench["workloads"]]:
        results = []
        for seed in range(1, args.runs + 1):
            env, res = one_run(w, seed, bench["run_seconds"], 0)
            results.append(res)
            print(f"{w} seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                  file=sys.stderr)
        traced = one_run(w, 1, bench["run_seconds"], 1)[1]
        point["env"] = env
        e2e = {m: summarize([r["metrics"][m]["value"] for r in results]) for m in bounds}
        point["workloads"][w] = {
            "correct": all(r["correct"] for r in results + [traced]),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": e2e,
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
        }
        ok &= point["workloads"][w]["correct"]
        for m, s in e2e.items():
            flag = "" if s["spread"] is None or s["spread"] < bounds[m] / 3 else (
                "  ABOVE BOUND/3" if s["spread"] < bounds[m] else "  ABOVE BOUND")
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3%}"
            print(f"{w:22} {m:14} median {s['median']:.5g}  spread {spread}  bound {bounds[m]:.0%}{flag}")
    if args.out:
        args.out.write_text(json.dumps(point, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
