"""Monte Carlo risk and PRIAL engine, benchmark presets, and samplers for
the Stein / chi-square integration-by-parts identities.

Determinism contract: replications are drawn in fixed chunks of
``_CHUNK_SIZE``, chunk c from one RNG stream keyed by (seed, c).  The stream
first gives S for every row of the chunk, then the normals row by row, and
the noise is always computed over the whole chunk's shape, so a draw of the
chunk's first r rows is the prefix of its full draw and replication r's
draw depends only on (seed, r): not on the worker count, nor on the plan's
replication count, nor on which other plans run beside it.
``simulate_many`` groups the plans that share the seed, the replication
count, p, k, n, sigma^2 and V, which draw identical rows, and draws each
chunk once per group.  Within a group and chunk, the part of the pooled
statistics that depends only on the noise (its nu_hat, weighted deviations
and dispersion) is computed once, and each plan adds its means to it
through linearity.  Each estimator is evaluated with the means shifted by
its origin, mu_1 for the shift-equivariant kinds (PT, EB, HB, CLASS1) and
0 for the others and X_1: its rule reads S, F and the sizes G and J of
the sample's nu_hat and X_1, taken once per plan, and returns the
coefficients (u, v) of its estimates u x + v nu_hat, x = w . (noise + mu
- origin) the unshrunk estimate of its estimand, scored against
w . (mu - origin) with the loss of x as its baseline.  No plan copies or
writes the draw, and no estimate is formed: each loss is a quadratic in
(u, v) whose coefficients are Q-forms of the draw that every estimator of
a frame shares.  One memo per group and chunk holds these forms under
(w, Q), Q and each frame, and each estimator's chunk sums under (config,
shifted means, Q), each a function of its key and the group's draw alone,
so each plan's chunk sums are bit-identical to those of the plan run alone.
Chunk partial sums are reduced per plan in chunk order, so a plan produces
bit-identical reports for any degree of parallelism.  A parallel run forks
w = min(workers, tasks) children, child j running (group, chunk) tasks j,
j + w, ..., so a group's equal-cost chunks spread evenly.  They inherit the
plans, so shrink functions need not be picklable, and each pipes back one
pickle: its chunk sums, or the error of its first failed task.  The parent
reads each pipe to its end and reaps its child; a child that dies or sends
a truncated result is a RuntimeError naming it, and no child outlives the
call.  Every plan is validated before any chunk runs, and validation
computes the memoized constants, which the children inherit.  While the
children run the calling process holds OpenBLAS at one thread, so each
child inherits single-threaded BLAS and starts no helper threads of its
own; other BLAS builds run as they are.
"""

from __future__ import annotations

import contextlib
import ctypes
import logging
import math
import os
import pickle
import signal
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .estimators import CONFIG_KINDS, ESTIMATORS, EstimatorConfig, _first_unit, preset_config
from .model import ModelSpec, Sample, scalar_spec, validate_spec
from .numerics import trace_product
from .statistics import _pooled_mean, pooled_noise_stats, shifted_pooled_stats, size_statistics

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
        """Violation messages; the estimators are checked only on a valid model."""
        errors = validate_spec(self.spec)
        spec_valid = not errors
        if not _is_integer(self.replications):
            errors.append(f"replications: must be an integer, got {self.replications!r}")
        elif self.replications < 1:
            errors.append(f"replications: must be >= 1, got {self.replications}")
        if not (_is_integer(self.seed) and self.seed >= 0):
            errors.append(f"seed: must be a non-negative integer, got {self.seed!r}")
        for idx, cfg in enumerate(self.estimators if spec_valid else ()):
            for msg in cfg.validate(self.spec):
                errors.append(f"estimators[{idx}] ({cfg.name}): {msg}")
        return errors


def _is_integer(value) -> bool:
    """A Python or numpy integer, but not a boolean."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class EstimatorRisk:
    """Estimated risk and PRIAL of one estimator, and the risk of its
    baseline, the unshrunk sum_i w_i X_i of its estimand sum_i w_i mu_i
    (X_1 for every kind but LINCOMB), taken at the estimator's origin."""

    name: str
    risk: float
    std_error: float
    prial: float
    prial_std_error: float
    baseline_risk: float
    baseline_std_error: float


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
    """The seed, replication count, p, k, n, sigma^2 and V: plans with equal
    keys draw the same rows of the same chunks, bit for bit."""
    spec = plan.spec
    v_bytes = b"".join(v.tobytes() for v in spec.V)
    return (spec.p, spec.k, spec.n, spec.sigma2, plan.seed, plan.replications, v_bytes)


def _draw_noise(spec: ModelSpec, seed: int, chunk: int, rows: int):
    """The first ``rows`` rows of chunk ``chunk`` without the means: X - mu
    of shape (rows, k, p) and S of shape (rows,).  The only draw path; it
    reads nothing of ``spec`` that ``_noise_key`` leaves out.

    S is drawn for the whole chunk first, so the normals that follow start
    at the same point of the stream whatever ``rows`` is.  Only the first
    ``rows`` rows of normals are drawn; the rest stay zero, and the product
    with the Cholesky factors is still taken over the whole chunk.  einsum
    picks its summation loop from the operands' shapes: a product over one
    row of a dense p = 20, k = 6 model differed in the last bits from the
    same row of the full chunk's product.  With the shapes fixed, a draw of
    r rows is the prefix of the full chunk's draw."""
    rng = replication_rng(seed, chunk)
    ss = spec.sigma2 * rng.gamma(0.5 * spec.n, 2.0, size=_CHUNK_SIZE)
    z = np.zeros((_CHUNK_SIZE, spec.k, spec.p))
    rng.standard_normal(out=z[:rows])
    noise = np.einsum("kij,bkj->bki", spec.chol_scaled, z, optimize=True)
    return noise[:rows], ss[:rows]


def replication_sample(plan: SimPlan, rep: int) -> Sample:
    """The draw the engine evaluates for replication ``rep`` of the plan:
    its row of the chunk's noise plus the plan's means.  The engine forms
    x = w . noise + w . (mu - origin): at origin 0 and w = e_1 this X_1 bit
    for bit, else this sample's up to rounding and the origin's shift."""
    if not 0 <= rep < plan.replications:
        raise IndexError(f"replication {rep} outside [0, {plan.replications})")
    chunk, row = divmod(rep, _CHUNK_SIZE)
    noise, ss = _draw_noise(plan.spec, plan.seed, chunk, row + 1)
    return Sample(X=noise[row] + plan.spec.mu_stack, S=ss[row])


# ---------------------------------------------------------------------------
# Vectorized evaluation over a chunk of replications
# ---------------------------------------------------------------------------


def _frame_forms(q, aq, nq, base, m, t) -> tuple:
    """The forms of one frame's losses r'qr of u x + v nu_hat, with
    x = a + t, nu_hat = n + m and t and m constant p-vectors:
    r = y + K with y = u a + v n and K = v m + (u - 1) t.  They are
    ``base`` = (a'qa, 2 a'qn, n'qn) (B,) for y'qy, then the slots of the
    nonzero constants d_j of (m, t) (0 for m, 1 for t) each with the power
    of 2 tau_j that puts its largest |component| in [1, 2), their cross
    forms 2 a'q d_j and 2 n'q d_j over the scaled d_j (one row of B per
    d_j), and R, the rows of the upper triangular factor of their Gram
    matrix under q from the diagonal on, the second from the part of d_2
    q-orthogonal to d_1.  With c = (v tau_m,
    (u - 1) tau_t), 2 y'qK = sum_j c_j (u 2 a'q d_j + v 2 n'q d_j) and
    K'qK = ||R c||^2: no form of a large constant is subtracted from
    another where K cancels, none overflows where the loss is finite, and a
    coefficient of exactly 0 adds exactly 0.  ``aq`` and ``nq`` are a q and
    n q (B, p)."""
    slots, cols = [], []
    for slot, vector in enumerate((m, t)):
        if vector.any():
            tau = math.ldexp(1.0, math.frexp(float(np.max(np.abs(vector))))[1] - 1)
            slots.append((slot, tau))
            cols.append(vector / tau)
    D = np.array(cols).reshape(len(cols), len(t))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        gram = D @ q @ D.T
        R = [[np.sqrt(gram[0, 0])]] if cols else []
        if len(cols) == 2:
            perp = D[1] - (gram[0, 1] / gram[0, 0]) * D[0]
            R = [[R[0][0], gram[0, 1] / R[0][0]], [np.sqrt(max(perp @ q @ perp, 0.0))]]
        return (*base, tuple(slots), (2.0 * D) @ aq.T, (2.0 * D) @ nq.T, R)


def _form_loss(coefs, forms) -> np.ndarray:
    """The loss r'qr of the estimates u x + v nu_hat of ``coefs`` = (u, v)
    from their frame's ``_frame_forms``: O(B) arithmetic.  The terms of K
    are summed before they are added, so that where they cancel they add
    nothing.  A loss that overflows is inf or NaN, without a warning, so
    that the caller's finiteness check names the estimator and the
    replication."""
    u, v = coefs
    A, C2, N, slots, a_forms, n_forms, R = forms
    with np.errstate(over="ignore", invalid="ignore"):
        loss = u * A
        loss += v * C2
        loss *= u
        loss += v * v * N
        if slots:
            c = [(u - 1.0 if slot else v) * tau for slot, tau in slots]
            terms = []
            for c_j, a_form, n_form in zip(c, a_forms, n_forms):
                term = u * a_form
                term += v * n_form
                term *= c_j
                terms.append(term)
            for i, row in enumerate(R):
                z = row[0] * c[i]
                for r_ij, c_j in zip(row[1:], c[i + 1:]):
                    z += r_ij * c_j
                z *= z
                terms.append(z)
            for term in terms[1:]:
                terms[0] += term
            loss += terms[0]
        return loss


def _failing_row(cfg: EstimatorConfig, spec: ModelSpec, ss, stats, forms) -> int:
    """The first row of a chunk on which ``cfg``'s rule, run on that row
    alone with its statistics ``stats`` = (F, G, J), raises or gives a
    non-finite loss from its frame's ``forms`` (the chunk's first row if
    none does)."""
    rule = ESTIMATORS[cfg.kind].rule
    A, C2, N, slots, a_forms, n_forms, R = forms
    for row in range(len(ss)):
        one = slice(row, row + 1)
        try:
            coefs = rule(cfg, spec, ss[one], *(stat[one] for stat in stats))
            row_forms = (A[one], C2[one], N[one], slots, a_forms[:, one], n_forms[:, one], R)
            if not np.isfinite(_form_loss(coefs, row_forms)[0] / spec.sigma2):
                return row
        except Exception:
            return row
    return 0


def _estimator_sums(plan: SimPlan, cfg: EstimatorConfig, start: int, ss, stats, forms, base):
    """``_moments`` of the loss l of ``cfg``'s rule on the ``ss`` of
    replications ``start``, ``start + 1``, ... and their statistics
    ``stats`` = (F, G, J), from its frame's ``forms``, and of the paired
    difference ``base`` - l.  If the rule fails, raises the SimulationError
    that names the first failing replication."""
    spec = plan.spec
    try:
        coefs = ESTIMATORS[cfg.kind].rule(cfg, spec, ss, *stats)
        est_loss = _form_loss(coefs, forms) / spec.sigma2
    except Exception as exc:
        row, cause = _failing_row(cfg, spec, ss, stats, forms), exc
    else:
        finite = np.isfinite(est_loss)
        if finite.all():
            return _moments(est_loss, base - est_loss)
        row, cause = int(np.argmin(finite)), FloatingPointError("non-finite loss")
    raise SimulationError(
        f"estimator {cfg.name} failed at replication {start + row} (seed {plan.seed}): {cause}"
    ) from cause


def _moments(*quantities: np.ndarray) -> np.ndarray:
    """One (sum, sum of squares) row per quantity of a block of draws."""
    return np.array([(q.sum(), (q**2).sum()) for q in quantities])


def _reduce(blocks: Sequence[np.ndarray], count: int) -> list[tuple[float, float]]:
    """(mean, standard error) of each quantity over ``count`` draws from the
    blocks' ``_moments`` rows, added in block order so the result does not
    depend on where the blocks were computed; the standard error is NaN at
    one draw."""
    totals = np.zeros_like(blocks[0])
    for block in blocks:
        totals += block
    n = float(count)
    total, total_sq = totals.T
    means = total / n
    if count < 2:
        return [(mean, float("nan")) for mean in means]
    var = np.maximum((total_sq - total * total / n) / (n - 1.0), 0.0)
    return list(zip(means, map(float, np.sqrt(var / n))))


def _chunk_sums(plan: SimPlan, start: int, noise: np.ndarray, ss: np.ndarray, noise_stats,
                memo: dict) -> np.ndarray:
    """``_moments`` of the plan's losses on replications ``start``,
    ``start + 1``, ..., whose draws are ``noise`` plus the plan's means and
    ``ss``, with ``noise_stats = pooled_noise_stats(spec, noise)``: first
    the loss of X_1, then per estimator its loss l, the paired difference
    b - l and its baseline loss b.

    X_1 and each estimator are evaluated with the means shifted by an
    origin, mu_1 for an equivariant kind and 0 otherwise: the rule reads S,
    F and G and J, the ``size_statistics`` of the sample's X_1 and nu_hat,
    taken once for every rule.  Its estimates are u x + v nu_hat with
    x = a + t and nu_hat = n + m: a = w . noise, n the noise's nu_hat,
    t = w . (mu - origin) its target and m = nu_hat(mu - origin).  Their
    loss is a quadratic in the rule's (u, v) over the Q-forms of a, n, m
    and t (``_frame_forms``), and b is the loss a'Qa / sigma^2 of x.
    ``memo`` holds, for the plans of one noise group, (Q's symmetric part
    q, n q, n'qn) under Q, (a, a q, a'qa, 2 a'qn, n'qn, b, moments of b)
    under (w, Q), the frame's forms alone under (w, t, m, Q) and each
    estimator's sums under (config, shifted means, Q).  The estimators run
    in plan order, so the first that fails raises; ``noise`` is only
    read."""
    spec = plan.spec
    mu_1 = spec.mu_stack[0]
    centred = spec.mu_stack - mu_1
    f_stat = shifted_pooled_stats(spec, noise_stats, centred, ss)
    shift = _pooled_mean(spec, centred) if centred.any() else np.zeros(spec.p)
    m_abs = shift + mu_1
    frames = {True: (centred, shift), False: (spec.mu_stack, m_abs)}
    n = noise_stats[0]
    q_key = spec.Q.tobytes()
    if ("Q", q_key) not in memo:
        q = 0.5 * (spec.Q + spec.Q.T)
        with np.errstate(over="ignore", invalid="ignore"):
            nq = n @ q
            memo["Q", q_key] = (q, nq, np.einsum("bi,bi->b", nq, n))
    q, nq, N = memo["Q", q_key]

    def weight_forms(w, w_key):
        if ("w", w_key, q_key) not in memo:
            a = np.einsum("k,bki->bi", w, noise)
            with np.errstate(over="ignore", invalid="ignore"):
                aq = a @ q
                A = np.einsum("bi,bi->b", aq, a)
                base = A / spec.sigma2
                forms = (A, 2.0 * np.einsum("bi,bi->b", aq, n), N)
            memo["w", w_key, q_key] = (a, aq, forms, base, _moments(base))
        return memo["w", w_key, q_key]

    e_1 = _first_unit(spec.k)
    a_1, *_, moments = weight_forms(e_1, e_1.tobytes())
    blocks = [moments]
    stats = (f_stat, *size_statistics(spec, a_1 + mu_1, n + m_abs, ss))
    for cfg in plan.estimators:
        kind = ESTIMATORS[cfg.kind]
        w = kind.estimand(cfg, spec)
        w_key = w.tobytes()
        a, aq, forms, base, moments = weight_forms(w, w_key)
        means, m = frames[kind.equivariant]
        key = (cfg, means.tobytes(), q_key)
        if key not in memo:
            t = w @ means
            frame = ("frame", w_key, t.tobytes(), m.tobytes(), q_key)
            if frame not in memo:
                memo[frame] = _frame_forms(q, aq, nq, forms, m, t)
            memo[key] = _estimator_sums(plan, cfg, start, ss, stats, memo[frame], base)
        blocks += [memo[key], moments]
    return np.concatenate(blocks)


def _group_chunk_sums(plans: Sequence[SimPlan], task: tuple[tuple[int, ...], int]) -> list:
    """Chunk sums of the plans ``task = (indices, chunk)`` names, which
    draw identical rows, on one draw of the chunk and one computation of
    its noise statistics."""
    members, chunk = task
    first = plans[members[0]]
    start = chunk * _CHUNK_SIZE
    rows = min(_CHUNK_SIZE, first.replications - start)
    noise, ss = _draw_noise(first.spec, first.seed, chunk, rows)
    noise_stats = pooled_noise_stats(first.spec, noise)
    memo: dict = {}
    return [_chunk_sums(plans[i], start, noise, ss, noise_stats, memo) for i in members]


def _fork_worker(plans: Sequence[SimPlan], tasks: list, first: int, step: int):
    """Fork a child that runs ``tasks[first::step]`` up to its first failure
    and pipes back one pickle, the list of (task index, chunk sums or
    exception); returns the child's pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, os.fdopen(read_fd, "rb")
    try:
        os.close(read_fd)
        done = []
        for index in range(first, len(tasks), step):
            try:
                done.append((index, _group_chunk_sums(plans, tasks[index])))
            except Exception as exc:
                try:
                    pickle.loads(pickle.dumps(exc))
                except Exception:
                    exc = RuntimeError(f"{type(exc).__name__}: {exc}")
                done.append((index, exc))
                break
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(done, pipe)
        os._exit(0)
    finally:
        os._exit(1)


def _fork_map(plans: Sequence[SimPlan], tasks: list, workers: int) -> list:
    """Every task's ``_group_chunk_sums`` from ``workers`` forked children,
    striped over the tasks; raises the failure of the first task that
    failed, or a RuntimeError for a child that sends no whole result.
    Every child is reaped, or killed and reaped, before the call returns."""
    # numpy loads numpy.random lazily; loaded here, it is imported once
    # rather than once in every child that draws.
    import numpy.random  # noqa: F401

    results: list = [None] * len(tasks)
    children = []
    try:
        for first in range(workers):
            children.append(_fork_worker(plans, tasks, first, workers))
        for first, (pid, pipe) in enumerate(list(children)):
            payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.remove((pid, pipe))
            pipe.close()
            with contextlib.suppress(pickle.UnpicklingError, EOFError):
                if code == 0:
                    for index, result in pickle.loads(payload):
                        results[index] = result
                    continue
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise RuntimeError(f"simulation worker {pid} {how} before sending its results"
                               f" (its first task: chunk {tasks[first][1]})")
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def _report(plan: SimPlan, partials: list[np.ndarray]) -> RiskReport:
    """The plan's report from its chunk sums, listed in chunk order."""
    (base_risk, base_se), *rows = _reduce(partials, plan.replications)
    reports = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for cfg, (risk, se), (d_mean, d_se), (own_risk, own_se) in zip(
            plan.estimators, rows[::3], rows[1::3], rows[2::3]
        ):
            reports.append(
                EstimatorRisk(
                    name=cfg.name,
                    risk=risk,
                    std_error=se,
                    prial=100.0 * d_mean / own_risk,
                    prial_std_error=100.0 * d_se / own_risk,
                    baseline_risk=own_risk,
                    baseline_std_error=own_se,
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


# (get, set) thread-count symbols of the OpenBLAS builds, tried in order.
_OPENBLAS_THREAD_SYMBOLS = tuple(
    (f"{prefix}openblas_get_num_threads{suffix}", f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("scipy_", "")
    for suffix in ("64_", "")
)


def _openblas_thread_controls() -> list[tuple[Callable, Callable]]:
    """The (get, set) thread-count functions of every OpenBLAS library the
    process has loaded, found through /proc/self/maps; none without /proc,
    OpenBLAS or the symbols."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
        libraries = [ctypes.CDLL(path) for path in sorted(paths)]
    except OSError:
        return []
    controls = []
    for lib in libraries:
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                controls.append((getattr(lib, get_name), getattr(lib, set_name)))
                break
    return controls


@contextlib.contextmanager
def _single_blas_thread():
    """Hold every loaded OpenBLAS at one thread, then restore its count.  A
    process forked inside inherits the count and never starts a helper
    thread; setting the count inside the fork instead starts one."""
    controls = _openblas_thread_controls()
    counts = [get() for get, _ in controls]
    for _, set_count in controls:
        set_count(1)
    try:
        yield
    finally:
        for (_, set_count), count in zip(controls, counts):
            set_count(count)


def simulate_many(plans: Sequence[SimPlan], workers: int = 1) -> list[RiskReport]:
    """Estimate the risk of every estimator in every plan by Monte Carlo;
    one report per plan, in plan order.

    Evaluates a plan's estimators on the same draws and reports each one's
    PRIAL relative to the unshrunk estimate of its estimand (X_1, or
    sum_i d_i X_i for LINCOMB) with a standard error computed from the
    paired per-replication loss differences.  Plans that share the seed,
    the replication count, p, k, n, sigma^2 and V (see ``_noise_key``) draw
    identical rows: they share each chunk's draw and the work that does not
    depend on their means, and each report is bit-identical to the plan's
    report run alone, for any ``workers``.
    ``workers`` children are forked once per call and striped over the
    (group, chunk) tasks; they inherit the plans (so shrink functions may be
    lambdas), run OpenBLAS on one thread and are reaped before it returns.
    Where ``os`` has no fork the chunks run serially and a warning is logged.
    """
    if not (_is_integer(workers) and workers >= 1):
        raise ValueError(f"workers: must be an integer >= 1, got {workers!r}")
    plans = tuple(plans)
    # Validation fills the rules' memos, which the fork workers inherit.
    groups: dict[tuple, list[int]] = {}
    for idx, plan in enumerate(plans):
        errors = plan.validate()
        if errors:
            raise ValueError(f"invalid simulation plan {idx}: " + "; ".join(errors))
        groups.setdefault(_noise_key(plan), []).append(idx)
    if not plans:
        return []
    # Each plan's chunk sums arrive in chunk order.
    tasks = [
        (tuple(members), chunk)
        for members in groups.values()
        for chunk in range(-(-plans[members[0]].replications // _CHUNK_SIZE))
    ]

    # Every child forks at once: no more of them than there are tasks.
    workers = min(workers, len(tasks))
    if workers > 1 and not hasattr(os, "fork"):
        _log.warning(
            "fork start method unavailable: running serially instead of on %d workers", workers
        )
        workers = 1
    if workers > 1:
        # The children are reaped before the BLAS thread count is restored.
        with _single_blas_thread():
            results = _fork_map(plans, tasks, workers)
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
    draws each chunk once for all of them.  Their models derive from one by
    ``ModelSpec.with_means``, so its checks and constants, and the
    estimators' (which do not depend on the means), are computed once.
    """
    base = scalar_spec(5, 5, 20, [0.1 * i for i in range(1, 6)], 4.0, TABLE1_MEANS[0])
    specs = [base.with_means(np.multiply.outer(means, np.ones(5))) for means in TABLE1_MEANS]
    estimators = preset_estimators(base, alpha=alpha)
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
    """Reduce both sides of an identity over blocks of at most ``_ID_CHUNK``
    draws; ``sides(block)`` draws one block and returns its per-draw left-
    and right-hand sides."""
    if replications < 1:
        raise ValueError(f"replications: must be >= 1, got {replications}")
    blocks = []
    for start in range(0, replications, _ID_CHUNK):
        lhs, rhs = sides(min(_ID_CHUNK, replications - start))
        blocks.append(_moments(lhs, rhs, lhs - rhs))
    (lhs_mean, _), (rhs_mean, _), (_, d_se) = _reduce(blocks, replications)
    return IdentityCheck(lhs=lhs_mean, rhs=rhs_mean, std_error=d_se)


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
