"""Command-line front end.

Three subcommands:

* ``simulate`` -- run a Monte Carlo risk comparison (a named preset or a
  JSON config) and write a CSV/JSON report;
* ``estimate`` -- evaluate the shrinkage estimators on one observed data
  set read from a CSV file;
* ``check`` -- print the minimaxity condition report for a model as JSON.

Config files are JSON documents with a ``model`` section (scalar-matrix
shorthand supported: a number c stands for c * I) and an ``estimators``
list; each entry holds only its own kind's constants, and those it omits
are derived as ``estimators.preset_config`` derives them.

Exit codes: 0 success (and, for ``check``, conditions hold); 1 conditions
fail; 2 invalid config, data or arguments, reported before any output; 3
runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import io
import json
import sys
from typing import Sequence

import numpy as np

from .estimators import CONFIG_KINDS, ESTIMATORS, EstimatorConfig, preset_config, rule_estimates
from .minimax import (
    double_shrinkage_report,
    lincomb_shrinkage_report,
    single_shrinkage_report,
)
from .model import ModelSpec, validate_spec
# ``simulate_risk`` stays importable from here: benchmark/run.py's report tap
# patches ``cli.simulate_risk``.
from .risksim import SimPlan, simulate_many, simulate_risk, table1_preset  # noqa: F401
from .statistics import batch_pooled_stats

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONDITION_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_RUNTIME_ERROR = 3


@functools.cache
def _keep_freed_memory() -> None:
    """Keep freed arrays under 32 MiB mapped for the rest of the process.

    By default glibc hands a freed chunk array back to the kernel once its
    dynamic trim threshold is passed, and the next chunk faults the same
    pages in again (hundreds of faults per table1 run).  Fixed thresholds
    keep them; forked pool workers inherit the setting.  Set once per
    process, by the CLI only: the library leaves its host's allocator alone.
    A no-op where the C library has no ``mallopt``, as on macOS or Windows."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # Blocks under 32 MiB, glibc's own ceiling for its dynamic mmap
    # threshold, come from the heap, whose top is trimmed past 64 MiB free.
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


class ConfigError(ValueError):
    """Invalid configuration, data file or arguments; raised before any
    output is written."""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _number(section: dict, key: str, cast, where: str, default=None):
    """``section[key]`` converted by ``cast`` (int or float); a missing value
    without a default, a boolean, one that does not convert, a non-finite
    one, and a non-integral one for an int field are config errors."""
    value = section.get(key, default)
    if value is None:
        raise ConfigError(f"{where}: missing required field '{key}'")
    if isinstance(value, bool):
        raise ConfigError(f"{where}.{key}: expected a number, got {value!r}")
    if cast is int and isinstance(value, int):
        return value  # exact: a float round trip would alter seeds above 2^53
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}.{key}: expected a number, got {value!r}") from None
    if not np.isfinite(number):
        raise ConfigError(f"{where}.{key}: must be finite, got {value!r}")
    if cast is int and not number.is_integer():
        raise ConfigError(f"{where}.{key}: expected an integer, got {value!r}")
    return cast(number)


def _as_shaped(entry, unit: np.ndarray, name: str) -> np.ndarray:
    """Accept the shorthand c -> c * unit (I for matrices, ones for
    vectors) or a full array of the unit's shape, of finite numbers.  A JSON
    boolean is not a number here, though numpy reads true as 1."""
    values = np.asarray(entry, dtype=object)
    if bool in set(map(type, values.flat)):
        raise ConfigError(f"{name}: expected numbers, got {entry!r}")
    if isinstance(entry, (int, float)):
        arr = float(entry) * unit
    else:
        try:
            arr = values.astype(float)
        except (TypeError, ValueError):
            raise ConfigError(f"{name}: expected numbers, got {entry!r}") from None
        if arr.shape != unit.shape:
            raise ConfigError(f"{name}: expected a scalar or shape {unit.shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name}: expected finite numbers, got {entry!r}")
    return arr


def parse_model(section: dict, require_mu: bool = True) -> ModelSpec:
    """Build a ModelSpec from the ``model`` section of a config."""
    if not isinstance(section, dict):
        raise ConfigError("model: expected an object")
    p, k, n = (_number(section, key, int, "model") for key in ("p", "k", "n"))
    sigma2 = _number(section, "sigma2", float, "model", default=1.0)
    if p < 1:
        raise ConfigError(f"model.p: dimension must be >= 1, got {p}")
    v_entries = section.get("V")
    if not isinstance(v_entries, list) or len(v_entries) != k:
        raise ConfigError(f"model.V: expected a list of {k} entries")
    V = [_as_shaped(entry, np.eye(p), f"model.V[{i}]") for i, entry in enumerate(v_entries)]

    q_entry = section.get("Q", "inv_v1")
    if q_entry == "inv_v1":
        try:
            Q = np.linalg.inv(V[0])
        except np.linalg.LinAlgError:
            raise ConfigError('model.Q: "inv_v1" needs an invertible V[0]') from None
    else:
        Q = _as_shaped(q_entry, np.eye(p), "model.Q")

    mu_entries = section.get("mu")
    if mu_entries is None:
        if require_mu:
            raise ConfigError("model.mu: required for simulation configs")
        mu = [np.zeros(p) for _ in range(k)]
    else:
        if not isinstance(mu_entries, list) or len(mu_entries) != k:
            raise ConfigError(f"model.mu: expected a list of {k} entries")
        mu = [_as_shaped(mu_i, np.ones(p), f"model.mu[{i}]") for i, mu_i in enumerate(mu_entries)]

    spec = ModelSpec(p=p, k=k, n=n, V=tuple(V), Q=Q, sigma2=sigma2, mu=tuple(mu))
    errors = validate_spec(spec)
    if errors:
        raise ConfigError("model: " + "; ".join(errors))
    return spec


def parse_estimators(
    entries, spec: ModelSpec, default_alpha: float
) -> tuple[EstimatorConfig, ...]:
    """Build and validate estimator configs; omitted constants become the
    preset's (see ``preset_config``), and omitted entries the five preset
    estimators.  An entry may hold only its own kind's fields, and no two
    entries may share a name (label, else kind, in any case)."""
    if entries is None:
        entries = [{"kind": kind} for kind in CONFIG_KINDS]
    if not isinstance(entries, list) or not entries:
        raise ConfigError("estimators: expected a nonempty list")
    configs = []
    names: dict[str, int] = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ConfigError(f"estimators[{i}]: expected an object with a 'kind' field")
        kind = str(entry["kind"]).upper()
        if kind not in CONFIG_KINDS:
            raise ConfigError(
                f"estimators[{i}]: kind {kind!r} is not supported in config files "
                f"({', '.join(CONFIG_KINDS)})"
            )
        where = f"estimators[{i}] ({entry.get('label') or kind})"
        fields = ESTIMATORS[kind].fields
        unknown = set(entry) - {"kind", "label", *fields}
        if unknown:
            raise ConfigError(f"{where}: fields {sorted(unknown)} do not apply to {kind}")
        given = {
            field: _number(entry, field, float, f"estimators[{i}]")
            for field in fields
            if entry.get(field) is not None
        }
        try:
            cfg = preset_config(kind, spec, default_alpha, given, entry.get("label"))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        problems = cfg.validate(spec)
        if problems:
            raise ConfigError(f"{where}: " + "; ".join(problems))
        j = names.setdefault(cfg.name.upper(), i)
        if j != i:
            raise ConfigError(f"estimators[{j}] and estimators[{i}] share the name {cfg.name!r}")
        configs.append(cfg)
    return tuple(configs)


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path}: expected a JSON object at top level")
    return doc


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return format(value, ".6g")


def _report_rows(label: str, report) -> list[dict]:
    rows = []
    for est in report.estimators:
        rows.append(
            {
                "mean_config": label,
                "estimator": est.name,
                "risk": _fmt(est.risk),
                "risk_se": _fmt(est.std_error),
                "prial": _fmt(est.prial),
                "prial_se": _fmt(est.prial_std_error),
                "replications": report.replications,
                "seed": report.seed,
            }
        )
    return rows


def _check_finite(label: str, report) -> None:
    """Raise on a non-finite reported value.  A standard error is undefined,
    and reported as nan, at a single replication only."""
    for est in report.estimators:
        values = {"risk": est.risk, "prial": est.prial}
        if report.replications > 1:
            values.update(risk_se=est.std_error, prial_se=est.prial_std_error)
        bad = [f"{name} = {value}" for name, value in values.items() if not np.isfinite(value)]
        if bad:
            cause = " (baseline risk is 0)" if est.baseline_risk == 0 else ""
            raise RuntimeError(
                f"{label}: estimator {est.name} reported non-finite {', '.join(bad)}{cause}"
            )


def _emit(rows: list[dict], fmt: str, out_path: str | None):
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buffer.getvalue()
    else:
        text = json.dumps(rows, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_simulate(args) -> int:
    if (args.preset is None) == (args.config is None):
        raise ConfigError("simulate: exactly one of --preset or --config is required")
    if args.reps is not None and args.reps < 1:
        raise ConfigError(f"--reps: must be >= 1, got {args.reps}")
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed: must be >= 0, got {args.seed}")
    if args.workers < 1:
        raise ConfigError(f"--workers: must be >= 1, got {args.workers}")
    if not 0.0 < args.alpha < 1.0:
        raise ConfigError(f"--alpha: must be in (0, 1), got {args.alpha}")

    jobs: list[tuple[str, SimPlan]] = []
    if args.preset is not None:
        if args.preset != "table1":
            raise ConfigError(f"unknown preset {args.preset!r} (available: table1)")
        jobs = table1_preset(
            replications=args.reps if args.reps is not None else 100_000,
            seed=args.seed if args.seed is not None else 0,
            alpha=args.alpha,
        )
    else:
        doc = _load_config(args.config)
        spec = parse_model(doc.get("model", {}), require_mu=True)
        configs = parse_estimators(doc.get("estimators"), spec, default_alpha=args.alpha)
        reps = args.reps or _number(doc, "replications", int, "config", 100_000)
        seed = args.seed if args.seed is not None else _number(doc, "seed", int, "config", 0)
        if reps < 1:
            raise ConfigError(f"replications: must be >= 1, got {reps}")
        if seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {seed}")
        name = "config" if doc.get("name") is None else doc["name"]
        if not (isinstance(name, str) and name):
            raise ConfigError(f"name: expected a non-empty string, got {name!r}")
        plan = SimPlan(spec=spec, estimators=configs, replications=reps, seed=seed)
        jobs = [(name, plan)]

    reports = simulate_many([plan for _, plan in jobs], workers=args.workers)
    # Every value is checked before the first row is written, so a
    # non-finite result leaves no partial output.
    rows: list[dict] = []
    for (label, _), report in zip(jobs, reports):
        _check_finite(label, report)
        rows.extend(_report_rows(label, report))
    _emit(rows, args.format, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _read_data_file(path: str, p: int, k: int) -> tuple[np.ndarray, float]:
    """Read k rows of p comma-separated values followed by one row holding
    the positive scale statistic S.  A non-numeric first row is treated as
    a header."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_rows = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    except OSError as exc:
        raise ConfigError(f"cannot read data file {path}: {exc}") from None
    if raw_rows:
        try:
            [float(cell) for cell in raw_rows[0]]
        except ValueError:
            raw_rows = raw_rows[1:]
    if len(raw_rows) != k + 1:
        raise ConfigError(
            f"data file must hold {k} observation rows plus a final row with S; "
            f"got {len(raw_rows)} rows"
        )
    rows = []
    for i, row in enumerate(raw_rows[:k]):
        try:
            vals = [float(cell) for cell in row]
        except ValueError as exc:
            raise ConfigError(f"data row {i}: {exc}") from None
        if len(vals) != p:
            raise ConfigError(f"data row {i}: expected {p} values, got {len(vals)}")
        rows.append(vals)
    s_row = raw_rows[k]
    if len(s_row) != 1:
        raise ConfigError(f"final row must hold the single value S, got {len(s_row)} values")
    try:
        s_val = float(s_row[0])
    except ValueError as exc:
        raise ConfigError(f"S: {exc}") from None
    if not 0.0 < s_val < np.inf:
        raise ConfigError(f"S must be positive and finite, got {s_val}")
    x = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ConfigError("data rows must hold finite values")
    return x, s_val


def _select_estimators(
    configs: Sequence[EstimatorConfig], wanted: Sequence[str]
) -> list[EstimatorConfig | None]:
    """The entry each upper-case name in ``wanted`` selects, or None: the
    entry of that name (its label, else its kind, in any case), else the one
    entry of that kind.  Selecting by kind among several entries of that
    kind is a config error; ``parse_estimators`` rejects two of one name."""
    by_name = {cfg.name.upper(): i for i, cfg in enumerate(configs)}
    by_kind: dict[str, list[int]] = {}
    for i, cfg in enumerate(configs):
        by_kind.setdefault(cfg.kind, []).append(i)
    selected = []
    for name in wanted:
        if name in by_name:
            selected.append(configs[by_name[name]])
        elif len(by_kind.get(name, ())) > 1:
            entries = ", ".join(f"estimators[{i}]" for i in by_kind[name])
            raise ConfigError(f"--estimators {name}: {entries} are all {name}; select one by label")
        else:
            selected.append(configs[by_kind[name][0]] if name in by_kind else None)
    return selected


def cmd_estimate(args) -> int:
    doc = _load_config(args.config)
    spec = parse_model(doc.get("model", {}), require_mu=False)
    x, s = _read_data_file(args.data, spec.p, spec.k)

    wanted = [name.strip().upper() for name in args.estimators.split(",") if name.strip()]
    entries = doc.get("estimators")
    if entries is None:
        # Without a section only the preset kinds asked for are built, so no
        # constant is derived for an entry that is not printed.
        entries = [{"kind": kind} for kind in CONFIG_KINDS if kind in wanted]
        configs = parse_estimators(entries, spec, default_alpha=args.alpha) if entries else ()
    else:
        configs = parse_estimators(entries, spec, default_alpha=args.alpha)
    selected = _select_estimators(configs, wanted)
    missing = [name for name, cfg in zip(wanted, selected) if cfg is None]
    if missing:
        raise ConfigError(f"estimators not configured: {', '.join(missing)}")

    # Every value is computed and checked before the first line is written,
    # so a runtime failure leaves no partial output.
    xs, ss = x[np.newaxis], np.array([s])
    nu, f_stat, g_stat = batch_pooled_stats(spec, xs, ss)
    values = [("nu_hat", nu[0]), ("F", f_stat), ("G", g_stat)]
    for name, cfg in zip(wanted, selected):
        try:
            x = ESTIMATORS[cfg.kind].estimand(cfg, spec) @ xs
            value = rule_estimates(cfg, spec, x, ss, nu, f_stat)[0]
        except Exception as exc:
            raise RuntimeError(f"estimator {cfg.name} failed: {exc}") from exc
        values.append((name, value))
    for name, value in values:
        if not np.all(np.isfinite(value)):
            raise RuntimeError(f"{name} is not finite: {value}")
    lines = [f"{name}: {' '.join(format(v, '.10g') for v in value)}" for name, value in values]
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _json_report(report) -> dict:
    """A report's fields, with undefined (non-finite) values as null."""
    return {key: val if np.isfinite(val) else None for key, val in report.as_dict().items()}


def cmd_check(args) -> int:
    doc = _load_config(args.config)
    spec = parse_model(doc.get("model", {}), require_mu=False)
    reports = {
        "single_shrinkage": single_shrinkage_report(spec),
        "double_shrinkage": double_shrinkage_report(spec),
    }
    if args.weights:
        try:
            d = [float(tok) for tok in args.weights.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--weights: {exc}") from None
        if len(d) != spec.k:
            raise ConfigError(f"--weights: expected {spec.k} values, got {len(d)}")
        if not np.all(np.isfinite(d)):
            raise ConfigError(f"--weights: expected finite values, got {args.weights}")
        reports["lincomb_shrinkage"] = lincomb_shrinkage_report(spec, d)
    all_hold = all(report.condition_holds for report in reports.values())
    payload = {key: _json_report(report) for key, report in reports.items()}
    payload["conditions_hold"] = all_hold
    sys.stdout.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    return EXIT_OK if all_hold else EXIT_CONDITION_FAILED


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and every call of ``main`` gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="poolshrink",
        description="Shrinkage estimation toward a pooled mean: risk simulation, "
        "point estimation, and minimaxity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo risk comparison")
    sim.add_argument("--preset", help="named experiment preset (table1)")
    sim.add_argument("--config", help="path to a JSON run config")
    sim.add_argument("--reps", type=int, default=None, help="replication count override")
    sim.add_argument("--seed", type=int, default=None, help="RNG seed override")
    sim.add_argument("--alpha", type=float, default=0.05, help="PT significance level")
    sim.add_argument("--out", default=None, help="output file (default: stdout)")
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    sim.set_defaults(func=cmd_simulate)

    est = sub.add_parser("estimate", help="evaluate the estimators on one data set")
    est.add_argument("data", help="CSV with k rows of p values plus a final row holding S")
    est.add_argument("--config", required=True, help="path to a JSON config with the model")
    est.add_argument(
        "--estimators",
        default=",".join(CONFIG_KINDS),
        help="comma-separated estimator names: an entry's label, else its kind",
    )
    est.add_argument("--alpha", type=float, default=0.05, help="PT significance level")
    est.set_defaults(func=cmd_estimate)

    chk = sub.add_parser("check", help="print the minimaxity condition report")
    chk.add_argument("--config", required=True, help="path to a JSON config with the model")
    chk.add_argument("--weights", default=None, help="comma-separated linear-combination weights")
    chk.set_defaults(func=cmd_check)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception as exc:  # noqa: BLE001 - runtime failures map to a distinct code
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
