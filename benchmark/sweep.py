"""Run the benchmark on seeds 1-10 and summarize each end-to-end metric.

    python3 benchmark/sweep.py --workload NAME [--workload NAME ...]

Every run lasts BENCHMARK.json's ``run_seconds``.  For every workload and
metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (Q3 - Q1) / median,
next to the bound in BENCHMARK.json.  It then makes one traced run of each
workload at seed 1.  The last line is the summary as JSON, in the layout of
``benchmark/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> list[str]:
    """Standard output lines of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return proc.stdout.splitlines()


def tagged(lines: list[str], tag: str) -> dict:
    """The JSON printed after ``tag: `` in a run's output."""
    return next(json.loads(line.partition(": ")[2]) for line in lines if line.startswith(tag + ": "))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"seconds": seconds, "seeds": SEEDS, "median": {}, "spread": {}, "failed": {},
               "traced": {}}
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in SEEDS:
            lines = run(workload, seed, seconds, 0)
            result = json.loads(lines[-1])
            summary.setdefault("manifest", tagged(lines, "manifest"))
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{name}={metric['value']:.5g}" for name, metric in result["metrics"].items()),
                flush=True)
        summary["median"][workload], summary["spread"][workload] = {}, {}
        summary["failed"][workload] = failed
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary["median"][workload][name] = med
            summary["spread"][workload][name] = spread
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
            print(f"  {workload:<11} {name:<12} median {med:<12.6g} Q1 {q1:<12.6g} Q3 {q3:<12.6g} "
                  f"spread {spread:.4f} bound {bound}{flag}", flush=True)
    for workload in args.workload:
        lines = run(workload, SEEDS[0], seconds, 1)
        result = json.loads(lines[-1])
        summary["traced"][workload] = {
            "seed": SEEDS[0],
            "failed": result["failed"],
            "absent": tagged(lines, "notes")["absent"],
            "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
        }
        print(f"{workload} traced: failed {result['failed']}", flush=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
