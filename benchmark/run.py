"""poolshrink benchmark: end-to-end metrics from untraced runs, per-layer
metrics from a traced run.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of table1, hb_quad, dense_pool, per_sample, or ``all`` (every
workload, one after another in fresh processes).  Run from the repository
root; the program is imported from ``src/``.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Workloads, metrics and the layer map are described in
``benchmark/DESIGN.md``.

A run is closed loop with one client: each op is an in-process
``poolshrink.cli.main`` call whose output is captured and checked.

Times are reported at a reference machine speed.  The speed of the shared
machine this was built on drifts by tens of percent within minutes, the
same for every process (CPU time tracks wall time), so a fixed calibration
loop that uses no poolshrink code runs between every two ops, and each
op's time is scaled by CALIBRATION_REF_S over the mean of the calibration
times just before and after it.  Raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("table1", "hb_quad", "dense_pool", "per_sample")
SETUP_REPEATS = 5
# Share of --seconds given to the untraced pass of a traced run; the traced
# pass then repeats the same ops.
TRACE_SHARE = 1.0 / 3.0
# Reference time of one calibration loop.
CALIBRATION_REF_S = 0.020


def calibration_loop() -> float:
    """Seconds taken by a fixed mix of interpreter work, small numpy
    operations and generator construction, like the program's own mix."""
    import numpy as np

    start = perf_counter()
    acc = 0.0
    for i in range(400):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=7, spawn_key=(i,))))
        z = gen.standard_normal((5, 5))
        acc += float(np.einsum("ij,ij->", z, z))
    total = 0
    for j in range(60000):
        total += j * j % 7
    m = 3.0 * np.eye(32)
    for _ in range(50):
        m = np.linalg.solve(m + np.eye(32), m) + np.eye(32)
    return perf_counter() - start


def speed_factor() -> float:
    """CALIBRATION_REF_S over the median of three calibration loops."""
    return CALIBRATION_REF_S / statistics.median(calibration_loop() for _ in range(3))


def import_program() -> None:
    src = ROOT / "src"
    if not (src / "poolshrink" / "__init__.py").is_file():
        sys.exit(f"error: no poolshrink sources under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))


@contextlib.contextmanager
def work_dir(workload: str):
    """Scratch directory inside the checkout for the files a workload writes."""
    base = ROOT / ".bench_work"
    path = base / f"{workload}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


def setup_probe(workload: str, seed: int) -> None:
    """Fresh-process set-up time: import poolshrink and build the workload."""
    start = perf_counter()
    import_program()
    import poolshrink  # noqa: F401
    from workloads import WORKLOADS

    with work_dir(workload) as path:
        WORKLOADS[workload](seed, path)
        elapsed = perf_counter() - start
    calibration_loop()  # first-call costs stay out of the calibration
    print(json.dumps({"setup_s": elapsed * speed_factor(), "raw_s": elapsed}))


def setup_times(workload: str, seed: int) -> list[dict]:
    """Scaled and raw set-up times of SETUP_REPEATS fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


@dataclass
class Record:
    """One op: its latency, evaluations, output and check result."""

    i: int
    latency: float
    evals: int
    output: str
    problem: str | None  # exit failures at once; output checks by check_records()
    reports: tuple[str, ...]
    parsed: object = None
    speed: float = 1.0  # set by measure()

    @property
    def scaled(self) -> float:
        """Latency at the reference machine speed."""
        return self.latency * self.speed


def run_op(wl, i: int, reports: list) -> Record:
    from poolshrink import cli

    out, err = io.StringIO(), io.StringIO()
    before = len(reports)
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(wl.argv(i))
    except SystemExit as exc:
        code = exc.code
    latency = perf_counter() - start
    problem = None if code == 0 else f"exit code {code}: {err.getvalue().strip()}"
    return Record(i, latency, wl.evals(i), out.getvalue(), problem, tuple(reports[before:]))


def check_records(wl, records: list[Record]) -> None:
    """Check the output of every op that exited cleanly.  This runs after
    the metrics are taken, so the oracles' imports (scipy) stay out of the
    measured process's peak RSS."""
    for r in records:
        if r.problem is None:
            try:
                r.problem, r.parsed = wl.check(r.i, r.output)
            except Exception as exc:  # noqa: BLE001 - unparseable output fails the op
                r.problem = f"output check raised {exc!r}"


@contextlib.contextmanager
def report_tap(reports: list):
    """Record every RiskReport the CLI computes, to compare traced and
    untraced runs exactly rather than through the CSV's rounding."""
    from poolshrink import cli

    original = cli.simulate_risk

    def tap(*args, **kwargs):
        report = original(*args, **kwargs)
        reports.append(repr(report))
        return report

    cli.simulate_risk = tap
    try:
        yield
    finally:
        cli.simulate_risk = original


def measure(wl, seconds: float | None = None, ops: int | None = None,
            tap: bool = False) -> list[Record]:
    """Run ops 0, 1, ... until ``seconds`` have passed, or exactly ``ops`` ops,
    with a calibration loop between every two ops.  With ``tap`` each record
    keeps the reprs of the RiskReports its op computed."""
    records, reports = [], []
    start = perf_counter()
    before = calibration_loop()
    with report_tap(reports) if tap else contextlib.nullcontext():
        while len(records) < ops if ops is not None else perf_counter() - start < seconds:
            record = run_op(wl, len(records), reports)
            after = calibration_loop()
            record.speed = CALIBRATION_REF_S / (0.5 * (before + after))
            records.append(record)
            before = after
    return records


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, by nearest rank; the median when no percentile above
    the median has ten samples beyond it (fewer than 20 samples)."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = max(n - 11, math.ceil(n / 2) - 1)
    return ordered[idx], 100.0 * (idx + 1) / n


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def manifest(args, ops: int) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    baseline = BENCH_DIR / "baseline.json"
    spread = None
    if baseline.is_file():
        doc = json.loads(baseline.read_text(encoding="utf-8"))
        if doc.get("seconds") == args.seconds:  # spreads hold only at the run length measured
            spread = doc.get("spread", {}).get(args.workload)
    return {
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": ops,
        "setup_repeats": SETUP_REPEATS if not args.trace else 0,
        "baseline_spread_iqr_over_median": spread,
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def untraced_run(wl, args, setup: list[dict]) -> tuple[dict, list[Record], dict]:
    records = measure(wl, seconds=args.seconds)
    tail_s, tail_pct = tail([r.scaled for r in records])
    metrics = {
        "setup_s": (statistics.median(t["setup_s"] for t in setup), "s"),
        "evals_per_s": (statistics.median(r.evals / r.scaled for r in records), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(r.scaled for r in records), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw_tail_s, _ = tail([r.latency for r in records])
    notes = {
        "ops": len(records),
        "op_tail_percentile": tail_pct,
        "raw_setup_s": statistics.median(t["raw_s"] for t in setup),
        "raw_evals_per_s": statistics.median(r.evals / r.latency for r in records),
        "raw_op_p50_ms": 1e3 * statistics.median(r.latency for r in records),
        "raw_op_tail_ms": 1e3 * raw_tail_s,
        "speed_factor_median": statistics.median(r.speed for r in records),
    }
    return metrics, records, notes


def traced_run(wl, args) -> tuple[dict, list[Record], dict]:
    from kernels import kernel_timings
    from tracer import Tracer

    untraced = measure(wl, seconds=args.seconds * TRACE_SHARE, tap=True)
    n = len(untraced)
    reference, serial = untraced, []
    parallel_eff = 0.0
    workers = wl.workers
    if workers > 1:
        # Pool workers' spans are out of reach, so the traced pass runs
        # serially; parallel efficiency compares untraced walls of the same ops.
        wl.workers = 1
        serial = measure(wl, ops=n, tap=True)
        reference = serial
        parallel_eff = sum(r.scaled for r in serial) / (
            workers * sum(r.scaled for r in untraced))

    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(wl, ops=n, tap=True)
    finally:
        tracer.uninstall()
    for ref, got in zip(untraced, traced):
        if got.problem is None and (got.output != ref.output or got.reports != ref.reports):
            got.problem = "traced output differs from the untraced run"

    traced_wall = sum(r.latency for r in traced)
    traced_scaled = sum(r.scaled for r in traced)
    kernels, absent_kernels = kernel_timings(args.seed)
    metrics = {**tracer.metrics(n), **kernels}
    metrics["risksim.pool.parallel_eff"] = (parallel_eff, "ratio")
    metrics["trace.overhead_frac"] = (traced_scaled / sum(r.scaled for r in reference) - 1.0, "ratio")
    metrics["trace.uncovered_s"] = ((traced_wall - tracer.top_level_s) / n, "s/op")
    notes = {"ops": n, "absent": tracer.absent + absent_kernels}
    return metrics, untraced + serial + traced, notes


def run_workload(args) -> int:
    import_program()
    setup = [] if args.trace else setup_times(args.workload, args.seed)
    from workloads import WARMUP_OP, WORKLOADS

    with work_dir(args.workload) as path:
        wl = WORKLOADS[args.workload](args.seed, path)
        warmup = run_op(wl, WARMUP_OP, [])
        calibration_loop()  # first-call costs stay out of the calibration
        if args.trace:
            metrics, records, notes = traced_run(wl, args)
        else:
            metrics, records, notes = untraced_run(wl, args, setup)
        records.append(warmup)
        check_records(wl, records)
        first_pass = [r for r in records[: notes["ops"]] if r.problem is None]
        try:
            checks = wl.final_checks([r.parsed for r in first_pass])
        except Exception as exc:  # noqa: BLE001 - a failed check still yields a result
            checks = [("whole-run checks", f"raised {exc!r}")]

    problems = [f"op {r.i}: {r.problem}" for r in records if r.problem is not None]
    problems += [f"{name}: {problem}" for name, problem in checks if problem is not None]
    attempted = len(records) + len(checks)
    failed = len(problems)
    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:14.6g} {unit}")
    print(f"  failed_frac {failed / attempted:.6g} ({failed}/{attempted} ops and checks)")
    print(f"notes: {json.dumps(notes)}")
    print(f"manifest: {json.dumps(manifest(args, notes['ops']))}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; prints each one's report."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"][workload] = result["metrics"]
    print(json.dumps(summary))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
