"""Monte Carlo risk and PRIAL engine, benchmark presets, and samplers for
the Stein / chi-square integration-by-parts identities.

Determinism contract: replications are drawn in fixed chunks of
``_CHUNK_SIZE``, chunk c from one RNG stream keyed by (seed, c) and always
drawn in full, so replication r's draw depends only on (seed, r): not on
the worker count, nor on the plan's replication count, nor on which other
plans run beside it.  ``simulate_many`` groups plans that share the seed and
the noise model (p, k, n, sigma^2 and the Cholesky factors of sigma^2 V_i)
and draws each chunk once per group; each plan adds its own means to the
shared draw.  Chunk partial sums are reduced per plan in chunk order, so a
plan produces bit-identical reports for any degree of parallelism.  A run
opens at most one pool; its workers are fork-started and inherit the plans,
so shrink functions need not be picklable; only plan indices, chunk indices
and chunk sums cross the process boundary.
"""

from __future__ import annotations

import logging
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .estimators import CONFIG_KINDS, ESTIMATORS, EstimatorConfig, estimate, preset_config
from .model import ModelSpec, Sample, scalar_spec, validate_spec
from .numerics import trace_product
from .statistics import batch_pooled_stats

__all__ = [
    "EstimatorRisk",
    "IdentityCheck",
    "RiskReport",
    "SimPlan",
    "SimulationError",
    "TABLE1_MEANS",
    "chisq_identity_check",
    "preset_estimators",
    "replication_sample",
    "simulate_many",
    "simulate_risk",
    "stein_identity_check",
    "table1_preset",
]

# Fixed chunk size: results must not depend on how chunks map to workers.
_CHUNK_SIZE = 2048

_log = logging.getLogger(__name__)


class SimulationError(RuntimeError):
    """An estimator failed during simulation; message carries the
    replication index and seed."""


@dataclass(frozen=True, eq=False)
class SimPlan:
    """A full simulation request: model, estimators, replication count and
    seed.  Every estimator sees the same draws (common random numbers)."""

    spec: ModelSpec
    estimators: tuple[EstimatorConfig, ...]
    replications: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "estimators", tuple(self.estimators))

    def validate(self) -> list[str]:
        errors = validate_spec(self.spec)
        if self.replications < 1:
            errors.append(f"replications: must be >= 1, got {self.replications}")
        for idx, cfg in enumerate(self.estimators):
            for msg in cfg.validate(self.spec):
                errors.append(f"estimators[{idx}] ({cfg.name}): {msg}")
        return errors


@dataclass(frozen=True)
class EstimatorRisk:
    """Estimated risk and PRIAL of one estimator."""

    name: str
    risk: float
    std_error: float
    prial: float
    prial_std_error: float


@dataclass(frozen=True)
class RiskReport:
    """Risk estimates for every estimator in a plan plus the unshrunk
    baseline X_1, whose exact risk is tr(V_1 Q)."""

    baseline_risk: float
    baseline_std_error: float
    trace_v1q: float
    replications: int
    seed: int
    estimators: tuple[EstimatorRisk, ...]


# ---------------------------------------------------------------------------
# Deterministic chunk streams
# ---------------------------------------------------------------------------


def replication_rng(seed: int, chunk: int) -> np.random.Generator:
    """Independent generator for one chunk of ``_CHUNK_SIZE`` replications,
    derived from (seed, chunk)."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(chunk,))
    return np.random.Generator(np.random.PCG64(seq))


def _noise_key(plan: SimPlan) -> tuple:
    """What a chunk's draw depends on besides the chunk index: plans with
    equal keys share every chunk's draw."""
    spec = plan.spec
    return (spec.p, spec.k, spec.n, spec.sigma2, plan.seed, spec.chol_scaled.tobytes())


def _draw_noise(spec: ModelSpec, seed: int, chunk: int):
    """The whole of chunk ``chunk`` without the means: X - mu of shape
    (_CHUNK_SIZE, k, p) and S of shape (_CHUNK_SIZE,).  The only draw path;
    it reads nothing of ``spec`` that ``_noise_key`` leaves out."""
    rng = replication_rng(seed, chunk)
    z = rng.standard_normal((_CHUNK_SIZE, spec.k, spec.p))
    noise = np.einsum("kij,bkj->bki", spec.chol_scaled, z, optimize=True)
    ss = spec.sigma2 * rng.gamma(0.5 * spec.n, 2.0, size=_CHUNK_SIZE)
    return noise, ss


def _draw_chunk(spec: ModelSpec, seed: int, chunk: int, rows: int = _CHUNK_SIZE):
    """Draws for the first ``rows`` replications of chunk ``chunk``: X of
    shape (rows, k, p) and S of shape (rows,).

    The whole chunk is drawn and transformed whatever ``rows`` is, so a
    replication's draw does not depend on how many rows are kept."""
    noise, ss = _draw_noise(spec, seed, chunk)
    return spec.mu_stack + noise[:rows], ss[:rows]


def replication_sample(plan: SimPlan, rep: int) -> Sample:
    """The draw the engine evaluates for replication ``rep`` of the plan."""
    if not 0 <= rep < plan.replications:
        raise IndexError(f"replication {rep} outside [0, {plan.replications})")
    chunk, row = divmod(rep, _CHUNK_SIZE)
    xs, ss = _draw_chunk(plan.spec, plan.seed, chunk)
    return Sample(X=xs[row], S=ss[row])


# ---------------------------------------------------------------------------
# Vectorized evaluation over a chunk of replications
# ---------------------------------------------------------------------------


def _batch_loss(est: np.ndarray, spec: ModelSpec) -> np.ndarray:
    diff = est - spec.mu[0]
    return np.einsum("bi,bi->b", diff @ spec.Q, diff) / spec.sigma2


def _locate_failure(
    cfg: EstimatorConfig, spec: ModelSpec, xs: np.ndarray, ss: np.ndarray, start: int
) -> int:
    """Re-evaluate the rows of a failed chunk one at a time to name the
    culprit replication."""
    for row in range(len(ss)):
        try:
            val = estimate(Sample(X=xs[row], S=ss[row]), spec, cfg)
            if not np.all(np.isfinite(val)):
                return start + row
        except Exception:
            return start + row
    return start


def _chunk_sums(plan: SimPlan, start: int, xs: np.ndarray, ss: np.ndarray) -> np.ndarray:
    """Loss accumulators for the plan's draws ``xs``, ``ss`` of replications
    ``start``, ``start + 1``, ...

    Layout: [count, sum_l1, sumsq_l1] + per estimator [sum_l, sumsq_l,
    sum_d, sumsq_d] where d is the per-replication loss difference
    l1 - l_est on the same draws.
    """
    spec = plan.spec
    n_est = len(plan.estimators)
    out = np.zeros(3 + 4 * n_est)
    out[0] = len(ss)

    base_loss = _batch_loss(xs[:, 0, :], spec)
    out[1] = base_loss.sum()
    out[2] = (base_loss**2).sum()
    nu, f_stat, g_stat = batch_pooled_stats(spec, xs, ss)

    for idx, cfg in enumerate(plan.estimators):
        try:
            est = ESTIMATORS[cfg.kind].rule(cfg, spec, xs, ss, nu, f_stat, g_stat)
            est_loss = _batch_loss(est, spec)
            if not np.all(np.isfinite(est_loss)):
                raise FloatingPointError("non-finite loss")
        except Exception as exc:
            rep = _locate_failure(cfg, spec, xs, ss, start)
            raise SimulationError(
                f"estimator {cfg.name} failed at replication {rep} (seed {plan.seed}): {exc}"
            ) from exc
        diff = base_loss - est_loss
        base = 3 + 4 * idx
        out[base] = est_loss.sum()
        out[base + 1] = (est_loss**2).sum()
        out[base + 2] = diff.sum()
        out[base + 3] = (diff**2).sum()
    return out


# The plans of a pool worker process, set once by ``_adopt_plans`` when the
# worker starts.
_WORKER_PLANS: tuple[SimPlan, ...] = ()


def _adopt_plans(plans: tuple[SimPlan, ...]) -> None:
    global _WORKER_PLANS
    _WORKER_PLANS = plans


def _group_chunk_sums(plans: Sequence[SimPlan], task: tuple[tuple[int, ...], int]) -> list:
    """Chunk sums of the plans ``task = (indices, chunk)`` names, which
    share one noise model and all reach the chunk, on one draw of it."""
    members, chunk = task
    first = plans[members[0]]
    noise, s_all = _draw_noise(first.spec, first.seed, chunk)
    start = chunk * _CHUNK_SIZE
    sums = []
    for i in members:
        plan = plans[i]
        rows = min(_CHUNK_SIZE, plan.replications - start)
        # The last plan adds its means in place, as no plan reads the noise after it.
        out = noise[:rows] if i == members[-1] else None
        xs = np.add(noise[:rows], plan.spec.mu_stack, out=out)
        sums.append(_chunk_sums(plan, start, xs, s_all[:rows]))
    return sums


def _worker_group_chunk_sums(task: tuple[tuple[int, ...], int]) -> list:
    return _group_chunk_sums(_WORKER_PLANS, task)


def _mean_se(total: float, total_sq: float, count: float) -> tuple[float, float]:
    mean = total / count
    if count < 2:
        return mean, float("nan")
    var = max((total_sq - total * total / count) / (count - 1.0), 0.0)
    return mean, float(np.sqrt(var / count))


def _report(plan: SimPlan, partials: list[np.ndarray]) -> RiskReport:
    """The plan's report from its chunk sums, listed in chunk order."""
    sums = np.zeros_like(partials[0])
    for part in partials:  # fixed chunk order keeps the reduction deterministic
        sums += part

    count = sums[0]
    base_risk, base_se = _mean_se(sums[1], sums[2], count)
    reports = []
    for idx, cfg in enumerate(plan.estimators):
        base = 3 + 4 * idx
        risk, se = _mean_se(sums[base], sums[base + 1], count)
        d_mean, d_se = _mean_se(sums[base + 2], sums[base + 3], count)
        prial = 100.0 * d_mean / base_risk
        prial_se = 100.0 * d_se / base_risk
        reports.append(
            EstimatorRisk(
                name=cfg.name,
                risk=risk,
                std_error=se,
                prial=prial,
                prial_std_error=prial_se,
            )
        )
    return RiskReport(
        baseline_risk=base_risk,
        baseline_std_error=base_se,
        trace_v1q=trace_product(plan.spec.V[0], plan.spec.Q),
        replications=plan.replications,
        seed=plan.seed,
        estimators=tuple(reports),
    )


def simulate_many(plans: Sequence[SimPlan], workers: int = 1) -> list[RiskReport]:
    """Estimate the risk of every estimator in every plan by Monte Carlo;
    one report per plan, in plan order.

    Evaluates a plan's estimators on the same draws and reports PRIAL
    relative to the unshrunk X_1 with a standard error computed from the
    paired per-replication loss differences.  Plans that share the seed and
    the noise model (see ``_noise_key``) share each chunk's draw, and each
    report is bit-identical to the plan's report run alone, for any
    ``workers``.  Workers are fork-started processes of one pool per call,
    which inherit the plans (so shrink functions may be lambdas); where fork
    is unavailable the chunks run serially and a warning is logged.
    """
    plans = tuple(plans)
    for idx, plan in enumerate(plans):
        errors = plan.validate()
        if errors:
            raise ValueError(f"invalid simulation plan {idx}: " + "; ".join(errors))
    if not plans:
        return []
    groups: dict[tuple, list[int]] = {}
    for idx, plan in enumerate(plans):
        groups.setdefault(_noise_key(plan), []).append(idx)
    n_chunks = [-(-plan.replications // _CHUNK_SIZE) for plan in plans]
    # Chunk-major, so each plan's chunk sums arrive in chunk order.
    tasks = []
    for chunk in range(max(n_chunks)):
        for members in groups.values():
            reached = tuple(i for i in members if chunk < n_chunks[i])
            if reached:
                tasks.append((reached, chunk))

    if workers > 1 and "fork" not in multiprocessing.get_all_start_methods():
        _log.warning(
            "fork start method unavailable: running serially instead of on %d workers", workers
        )
        workers = 1
    if workers > 1:
        # With fork the initializer's argument is inherited, never pickled.
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_adopt_plans,
            initargs=(plans,),
        ) as pool:
            results = list(pool.map(_worker_group_chunk_sums, tasks))
    else:
        results = [_group_chunk_sums(plans, task) for task in tasks]

    partials: list[list[np.ndarray]] = [[] for _ in plans]
    for (members, _), sums in zip(tasks, results):
        for idx, part in zip(members, sums):
            partials[idx].append(part)
    return [_report(plan, parts) for plan, parts in zip(plans, partials)]


def simulate_risk(plan: SimPlan, workers: int = 1) -> RiskReport:
    """The report of one plan: ``simulate_many([plan], workers)[0]``."""
    return simulate_many([plan], workers)[0]


# ---------------------------------------------------------------------------
# Benchmark preset
# ---------------------------------------------------------------------------

# Mean constants for the 11 benchmark configurations: mean i is the constant
# times the all-ones vector.  The first four are equal-means cases, the next
# three have means summing to zero, and the last four are unbalanced.
TABLE1_MEANS: tuple[tuple[float, ...], ...] = (
    (0.0, 0.0, 0.0, 0.0, 0.0),
    (1.0, 1.0, 1.0, 1.0, 1.0),
    (2.0, 2.0, 2.0, 2.0, 2.0),
    (3.0, 3.0, 3.0, 3.0, 3.0),
    (-0.4, -0.2, 0.0, 0.2, 0.4),
    (2.0, -0.5, -0.5, -0.5, -0.5),
    (4.0, -1.0, -1.0, -1.0, -1.0),
    (1.2, 1.4, 1.6, 1.8, 2.0),
    (0.2, 2.0, 2.0, 2.0, 2.0),
    (0.4, 4.0, 4.0, 4.0, 4.0),
    (2.0, 0.0, 0.0, 0.0, 0.0),
)


def _mean_label(means: Sequence[float]) -> str:
    return "(" + ",".join(format(m, "g") for m in means) + ")"


def preset_estimators(spec: ModelSpec, alpha: float = 0.05) -> tuple[EstimatorConfig, ...]:
    """The five benchmark estimators with bound-optimal constants derived
    from the model: PT(alpha), JS, EB, HB (c=1, L=0), HEB."""
    return tuple(preset_config(kind, spec, alpha) for kind in CONFIG_KINDS)


def table1_preset(
    replications: int = 100_000,
    seed: int = 0,
    alpha: float = 0.05,
) -> list[tuple[str, SimPlan]]:
    """The benchmark experiment: p = k = 5, n = 20, V_i = 0.1 i I,
    Q = V_1^{-1}, variance scale 4, and the 11 mean configurations of
    ``TABLE1_MEANS``, each run with the five preset estimators.

    The variance scale is the square of the nominal scale parameter 2;
    the squared-scale convention is the one under which the benchmark's
    published PRIAL values are reproducible (the James-Stein column pins
    the mean-to-noise ratio through its closed-form risk).

    All plans share the same seed, so translation-equivariant estimators
    produce identical PRIAL values across mean configurations that differ
    by a common shift.  They share the noise model too, so ``simulate_many``
    draws each chunk once for all of them.  The estimators' constants depend
    on V, Q, n, p, k and alpha but not on the means, so they are derived
    once and shared.
    """
    specs = [
        scalar_spec(
            p=5,
            k=5,
            n=20,
            v_scalars=[0.1 * i for i in range(1, 6)],
            sigma2=4.0,
            mu_scalars=means,
        )
        for means in TABLE1_MEANS
    ]
    estimators = preset_estimators(specs[0], alpha=alpha)
    return [
        (_mean_label(means), SimPlan(spec, estimators, replications, seed))
        for means, spec in zip(TABLE1_MEANS, specs)
    ]


# ---------------------------------------------------------------------------
# Integration-by-parts identity validators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    """Monte Carlo estimates of both sides of an identity and the standard
    error of their paired difference."""

    lhs: float
    rhs: float
    std_error: float

    @property
    def difference(self) -> float:
        return self.lhs - self.rhs

    def agrees(self, n_sigma: float = 4.0) -> bool:
        return abs(self.difference) <= n_sigma * self.std_error


_ID_CHUNK = 50_000


def _identity_check(sides: Callable, replications: int) -> IdentityCheck:
    """Accumulate both sides of an identity over blocks of at most
    ``_ID_CHUNK`` draws; ``sides(block)`` draws one block and returns its
    per-draw left- and right-hand sides."""
    sums = np.zeros(5)  # count, sum_lhs, sum_rhs, sum_d, sumsq_d
    remaining = replications
    while remaining > 0:
        block = min(_ID_CHUNK, remaining)
        lhs, rhs = sides(block)
        diff = lhs - rhs
        sums += [block, lhs.sum(), rhs.sum(), diff.sum(), (diff**2).sum()]
        remaining -= block
    count = sums[0]
    _, d_se = _mean_se(sums[3], sums[4], count)
    return IdentityCheck(lhs=sums[1] / count, rhs=sums[2] / count, std_error=d_se)


def stein_identity_check(
    h: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    mu: np.ndarray,
    sigma: np.ndarray,
    replications: int = 100_000,
    seed: int = 0,
) -> IdentityCheck:
    """Monte Carlo check of the Stein identity for Y ~ N_p(mu, Sigma):

        E[(Y - mu)' h(Y)] = E[tr(Sigma grad h(Y)')].

    ``h`` maps (B, p) -> (B, p); ``jacobian`` maps (B, p) -> (B, p, p)
    with entry [b, i, j] = d h_i / d y_j.
    """
    mu = np.asarray(mu, dtype=float).reshape(-1)
    sigma = np.asarray(sigma, dtype=float)
    chol = np.linalg.cholesky(0.5 * (sigma + sigma.T))
    rng = np.random.default_rng(seed)

    def sides(block):
        y = mu + rng.standard_normal((block, mu.size)) @ chol.T
        hy = np.asarray(h(y), dtype=float)
        jac = np.asarray(jacobian(y), dtype=float)
        return np.einsum("bi,bi->b", y - mu, hy), np.einsum("ij,bij->b", sigma, jac)

    return _identity_check(sides, replications)


def chisq_identity_check(
    g: Callable[[np.ndarray], np.ndarray],
    g_prime: Callable[[np.ndarray], np.ndarray],
    n: int,
    sigma2: float,
    replications: int = 100_000,
    seed: int = 0,
) -> IdentityCheck:
    """Monte Carlo check of the chi-square identity for S/sigma^2 ~ chi^2_n:

        E[S g(S)] = sigma^2 E[n g(S) + 2 S g'(S)].
    """
    rng = np.random.default_rng(seed)

    def sides(block):
        s = sigma2 * rng.gamma(0.5 * n, 2.0, size=block)
        gs = np.asarray(g(s), dtype=float)
        return s * gs, sigma2 * (n * gs + 2.0 * s * np.asarray(g_prime(s), dtype=float))

    return _identity_check(sides, replications)
