"""The four benchmark workloads.

Each workload generates its inputs from the benchmark seed, writes any
files the CLI reads into its work directory, and builds the program's plans
or model (the set-up the ``setup_s`` metric times).  An op is one in-process
``poolshrink.cli.main`` call; ``check`` validates one op's output and
``final_checks`` runs the checks that need a whole run (pooled Monte Carlo
tolerances) or a single untimed computation.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from oracles import (
    EQUAL_MEAN_LABELS,
    REFERENCE_ESTIMATORS,
    REFERENCE_PRIAL,
    hb_constant,
    phi_hb_lpos,
    point_estimates,
    trace_ratio,
)
from poolshrink import cli, estimators
from poolshrink.risksim import TABLE1_MEANS, SimPlan, preset_estimators, simulate_risk, table1_preset

# table1 replications per op: one engine chunk per plan, so per-chunk costs
# keep the share they have in a 10^5-replication run.
TABLE1_REPS = 2048
HB_QUAD_REPS = 8
HB_QUAD_L = 0.5
HB_QUAD_MEANS = (TABLE1_MEANS[0], TABLE1_MEANS[4])
DENSE_REPS = 8192
DENSE_P, DENSE_K, DENSE_N = 20, 6, 20
PER_SAMPLE_FILES = 64
ALPHA = 0.05
# Op indices outside the measured range, for the untimed warm-up op and the
# one-shot checks.
WARMUP_OP = 1_000_000
CHECK_OP = 1_000_001

# A run's PRIAL may differ from the reference by the reference table's noise
# (the acceptance suite's 1.5 points) plus this many of the run's own
# standard errors.
PRIAL_NOISE = 1.5
PRIAL_SIGMAS = 4.0
# Minimax risk check, as in acceptance criterion 3: risk <= tr(V_1 Q) + 3 SE.
RISK_SIGMAS = 3.0


def op_seed(seed: int, i: int) -> int:
    """Seed handed to the CLI for op i of a run."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0] >> 1)


def _table1_model(means) -> dict:
    return {
        "p": 5,
        "k": 5,
        "n": 20,
        "sigma2": 4.0,
        "V": [0.1 * i for i in range(1, 6)],
        "mu": list(means),
    }


def _dense_spd(rng: np.random.Generator, p: int, scale: float) -> np.ndarray:
    """scale * (I + W W' / (2p)): dense, eigenvalues within about [1, 3]."""
    w = rng.standard_normal((p, p))
    return scale * (np.eye(p) + w @ w.T / (2.0 * p))


def dense_model(rng: np.random.Generator) -> tuple[list[np.ndarray], np.ndarray]:
    """Dense SPD V_1..V_k and Q.  Redrawn until both trace ratios exceed 3,
    so the preset estimators' minimax constants exist with room to spare."""
    while True:
        V = [_dense_spd(rng, DENSE_P, 0.5 + 0.25 * i) for i in range(DENSE_K)]
        Q = np.linalg.inv(_dense_spd(rng, DENSE_P, 0.5))
        A = np.linalg.inv(sum(np.linalg.inv(v) for v in V))
        if trace_ratio(V[0] - A, Q) > 3.0 and trace_ratio(A, Q) > 3.0:
            return V, 0.5 * (Q + Q.T)


def dense_means(rng: np.random.Generator) -> list[list[np.ndarray]]:
    """Three mean configurations: equal means, scattered means, and a first
    population set apart from the rest."""
    base = rng.normal(0.0, 1.0, DENSE_P)
    equal = [base] * DENSE_K
    scattered = [base + rng.normal(0.0, 0.3, DENSE_P) for _ in range(DENSE_K)]
    outlier = [base + 1.0] + [base] * (DENSE_K - 1)
    return [equal, scattered, outlier]


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _build(doc: dict) -> None:
    """What the CLI does before simulating: parse and validate the model and
    derive the bound-optimal estimator constants."""
    spec = cli.parse_model(doc["model"], require_mu=False)
    cli.parse_estimators(doc.get("estimators"), spec, default_alpha=ALPHA)


def _csv_rows(text: str) -> dict:
    """(mean_config, estimator) -> numeric fields of a simulate CSV."""
    rows = {}
    for row in csv.DictReader(io.StringIO(text)):
        rows[(row["mean_config"], row["estimator"])] = {
            key: float(row[key]) for key in ("risk", "risk_se", "prial", "prial_se")
        }
    return rows


def _finite_problem(rows: dict, expected: int) -> str | None:
    if len(rows) != expected:
        return f"expected {expected} result rows, got {len(rows)}"
    for key, vals in rows.items():
        if not all(math.isfinite(v) for v in vals.values()) or not vals["risk"] > 0.0:
            return f"non-finite or non-positive result for {key}: {vals}"
    return None


def _pooled(parsed: list[dict], key, field: str) -> tuple[float, float]:
    """Mean of a field over a run's ops (independent seeds, equal sizes) and
    its standard error."""
    vals = [p[key][field] for p in parsed if key in p]
    ses = [p[key][field + "_se"] for p in parsed if key in p]
    return sum(vals) / len(vals), math.sqrt(sum(se * se for se in ses)) / len(ses)


def _risk_checks(parsed: list[dict], labels, estimators, trace_v1q: float) -> list[tuple[str, str | None]]:
    checks = []
    for label in labels:
        for est in estimators:
            risk, se = _pooled(parsed, (label, est), "risk")
            bound = trace_v1q + RISK_SIGMAS * se
            problem = None if risk <= bound else f"risk {risk:.5g} > tr(V1 Q) + 3 SE = {bound:.5g}"
            checks.append((f"minimax risk {label} {est}", problem))
    return checks


class Workload:
    """Base class: ops are CLI calls; subclasses define the calls and checks."""

    name = ""
    workers = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def argv(self, i: int) -> list[str]:
        raise NotImplementedError

    def evals(self, i: int) -> int:
        raise NotImplementedError

    def check(self, i: int, text: str):
        """(problem or None, parsed output) for op i."""
        raise NotImplementedError

    def final_checks(self, parsed: list) -> list[tuple[str, str | None]]:
        return []


class Table1(Workload):
    """The paper's experiment: ``simulate --preset table1``."""

    name = "table1"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        table1_preset(replications=TABLE1_REPS, seed=op_seed(seed, 0))

    def argv(self, i):
        return ["simulate", "--preset", "table1", "--workers", "1",
                "--reps", str(TABLE1_REPS), "--seed", str(op_seed(self.seed, i))]

    def evals(self, i):
        return len(TABLE1_MEANS) * 5 * TABLE1_REPS

    def check(self, i, text):
        rows = _csv_rows(text)
        problem = _finite_problem(rows, len(TABLE1_MEANS) * 5)
        if problem is None:
            pt = {tuple(rows[(label, "PT")].values()) for label in EQUAL_MEAN_LABELS}
            if len(pt) != 1:
                problem = f"PT results differ across the equal-mean rows: {sorted(pt)}"
        return problem, rows

    def final_checks(self, parsed):
        checks = []
        for label, ref in REFERENCE_PRIAL.items():
            for est, ref_prial in zip(REFERENCE_ESTIMATORS, ref):
                if est == "PT":
                    continue
                prial, se = _pooled(parsed, (label, est), "prial")
                tol = PRIAL_NOISE + PRIAL_SIGMAS * se
                problem = None
                if abs(prial - ref_prial) > tol:
                    problem = f"PRIAL {prial:.4g} vs reference {ref_prial:.4g}, tolerance {tol:.3g}"
                checks.append((f"PRIAL {label} {est}", problem))
        return checks + _risk_checks(parsed, REFERENCE_PRIAL, ("EB", "HB", "HEB"), 5.0)


class HbQuad(Workload):
    """The table1 model with HB at L > 0 (adaptive quadrature per
    replication) and EB as a cheap control."""

    name = "hb_quad"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.configs = []
        for j, means in enumerate(HB_QUAD_MEANS):
            doc = {
                "name": f"hb_quad_{j}",
                "model": _table1_model(means),
                "estimators": [{"kind": "EB"}, {"kind": "HB", "c": 1.0, "L": HB_QUAD_L}],
            }
            _build(doc)
            self.configs.append(_write_json(workdir / f"hb_quad_{j}.json", doc))

    def argv(self, i):
        return ["simulate", "--config", self.configs[i % len(self.configs)], "--workers", "1",
                "--reps", str(HB_QUAD_REPS), "--seed", str(op_seed(self.seed, i))]

    def evals(self, i):
        return 2 * HB_QUAD_REPS

    def check(self, i, text):
        rows = _csv_rows(text)
        return _finite_problem(rows, 2), rows

    def final_checks(self, parsed):
        a = hb_constant(5.0, 5, 5, 20)
        problem = None
        for F in (0.05, 0.3, 1.0, 3.0, 10.0):
            for S in (20.0, 80.0, 200.0):
                got = estimators.phi_hb(F, S, 5, 5, 20, a, 1.0, HB_QUAD_L)
                want = phi_hb_lpos(F, S, 5, 5, 20, a, 1.0, HB_QUAD_L)
                if not abs(got - want) <= 1e-8 * abs(want):
                    problem = f"phi_hb(F={F}, S={S}, L={HB_QUAD_L}) = {got!r}, scipy oracle {want!r}"
        labels = [f"hb_quad_{j}" for j in range(len(HB_QUAD_MEANS))]
        return [("phi_hb L>0 vs scipy oracle", problem)] + _risk_checks(parsed, labels, ("EB", "HB"), 5.0)


class DensePool(Workload):
    """Dense p = 20, k = 6 plans with the five preset estimators through the
    process pool."""

    name = "dense_pool"
    workers = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 1])
        self.V, self.Q = dense_model(rng)
        self.configs = []
        for j, mu in enumerate(dense_means(rng)):
            doc = {
                "name": f"dense_{j}",
                "model": {
                    "p": DENSE_P, "k": DENSE_K, "n": DENSE_N, "sigma2": 1.0,
                    "V": [v.tolist() for v in self.V], "Q": self.Q.tolist(),
                    "mu": [m.tolist() for m in mu],
                },
            }
            _build(doc)
            self.configs.append(_write_json(workdir / f"dense_{j}.json", doc))

    def argv(self, i):
        return ["simulate", "--config", self.configs[i % len(self.configs)],
                "--workers", str(self.workers),
                "--reps", str(DENSE_REPS), "--seed", str(op_seed(self.seed, i))]

    def evals(self, i):
        return 5 * DENSE_REPS

    def check(self, i, text):
        rows = _csv_rows(text)
        return _finite_problem(rows, 5), rows

    def final_checks(self, parsed):
        doc = json.loads(Path(self.configs[0]).read_text(encoding="utf-8"))
        spec = cli.parse_model(doc["model"])
        plan = SimPlan(spec=spec, estimators=preset_estimators(spec),
                       replications=2560, seed=op_seed(self.seed, CHECK_OP))
        one, two = simulate_risk(plan, workers=1), simulate_risk(plan, workers=2)
        same = None if repr(one) == repr(two) else "reports differ between workers 1 and 2"
        labels = [f"dense_{j}" for j in range(len(self.configs))]
        trace_v1q = float(np.trace(self.V[0] @ self.Q))
        return [("workers 1 vs 2 bit-identical", same)] + _risk_checks(
            parsed, labels, ("EB", "HB", "HEB"), trace_v1q)


class PerSample(Workload):
    """Repeated ``estimate`` calls on data files of the dense model."""

    name = "per_sample"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 2])
        self.V, self.Q = dense_model(rng)
        doc = {"model": {"p": DENSE_P, "k": DENSE_K, "n": DENSE_N, "sigma2": 1.0,
                         "V": [v.tolist() for v in self.V], "Q": self.Q.tolist()}}
        _build(doc)
        self.config = _write_json(workdir / "model.json", doc)
        chol = [np.linalg.cholesky(v) for v in self.V]
        means = dense_means(rng)
        self.data = []
        for f in range(PER_SAMPLE_FILES):
            mu = means[f % len(means)]
            X = np.stack([m + c @ rng.standard_normal(DENSE_P) for m, c in zip(mu, chol)])
            S = float(rng.chisquare(DENSE_N))
            path = workdir / f"data_{f}.csv"
            lines = [",".join(format(x, ".17g") for x in row) for row in X] + [format(S, ".17g")]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            self.data.append((str(path), X, S))

    def argv(self, i):
        return ["estimate", self.data[i % len(self.data)][0], "--config", self.config]

    def evals(self, i):
        return 5

    def check(self, i, text):
        _, X, S = self.data[i % len(self.data)]
        want = point_estimates(self.V, self.Q, DENSE_N, X, S, ALPHA)
        got = {}
        for line in text.splitlines():
            key, _, vals = line.partition(":")
            got[key] = np.array([float(v) for v in vals.split()])
        for key in ("nu_hat", "F", "G", "PT", "JS", "EB", "HB", "HEB"):
            if key not in got:
                return f"missing output line {key}", None
            options = [want[key]] + ([want["PT_alt"]] if key == "PT" and want["PT_alt"] is not None else [])
            if not any(_close(got[key], np.atleast_1d(w)) for w in options):
                return f"{key}: got {got[key]}, oracle {want[key]}", None
        return None, None


def _close(got: np.ndarray, want: np.ndarray, rtol: float = 1e-9) -> bool:
    """Agreement to rtol relative to the vector's largest component."""
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= rtol * np.max(np.abs(want))))


WORKLOADS = {cls.name: cls for cls in (Table1, HbQuad, DensePool, PerSample)}
