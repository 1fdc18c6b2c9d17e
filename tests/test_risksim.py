"""Monte Carlo engine: determinism, paired PRIAL accounting, the benchmark
preset, and the integration-by-parts identity validators."""

import collections
import dataclasses
import logging
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from poolshrink import estimators, model, numerics, risksim
from poolshrink.cli import main
from poolshrink.estimators import EstimatorConfig, estimate, preset_config, pt_threshold
from poolshrink.model import scalar_spec
from poolshrink.risksim import (
    SimPlan,
    SimulationError,
    TABLE1_MEANS,
    chisq_identity_check,
    preset_estimators,
    replication_sample,
    simulate_many,
    simulate_risk,
    stein_identity_check,
    table1_preset,
)
from poolshrink.statistics import batch_pooled_stats

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def small_plan(reps=4000, seed=3, mu=(0, 0, 0, 0, 0), estimators=None):
    spec = scalar_spec(5, 5, 20, [0.1 * i for i in range(1, 6)], 2.0, mu)
    if estimators is None:
        estimators = preset_estimators(spec)
    return SimPlan(spec=spec, estimators=tuple(estimators), replications=reps, seed=seed)


def record_forks(monkeypatch, probe=lambda: None):
    """Hook ``risksim._fork_map`` and ``os.fork``: the list returned gets one
    list per batch of forks, with ``probe()`` as it stood at each fork."""
    batches = []
    fork, fork_map = os.fork, risksim._fork_map

    def recording_fork():
        batches[-1].append(probe())
        return fork()

    def recording_map(*args):
        batches.append([])
        return fork_map(*args)

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(risksim, "_fork_map", recording_map)
    return batches


def replication_f(plan, rep):
    """F of replication ``rep``: its ``replication_sample`` as a batch of one."""
    sample = replication_sample(plan, rep)
    _, f_stat, _ = batch_pooled_stats(plan.spec, sample.X[np.newaxis], np.array([sample.S]))
    return f_stat[0]


class TestSimulateRisk:
    def test_zero_phi_estimator_has_exactly_zero_prial(self):
        zero = EstimatorConfig(
            kind="CLASS1",
            phi=lambda f, s: np.zeros_like(np.asarray(f, dtype=float)),
            label="NOOP",
        )
        plan = small_plan(reps=2000, estimators=[zero])
        report = simulate_risk(plan)
        assert report.estimators[0].prial == 0.0
        assert report.estimators[0].prial_std_error == 0.0

    def test_baseline_risk_matches_trace(self):
        plan = small_plan(reps=20_000, mu=(1, 2, 0, -1, 3))
        report = simulate_risk(plan)
        assert report.trace_v1q == pytest.approx(5.0, rel=1e-12)
        assert abs(report.baseline_risk - 5.0) <= 4.0 * report.baseline_std_error

    def test_deterministic_repeat(self):
        plan = small_plan(reps=3000)
        r1 = simulate_risk(plan)
        r2 = simulate_risk(plan)
        assert r1 == r2

    def test_worker_count_does_not_change_bits(self):
        plan = small_plan(reps=5000)
        serial = simulate_risk(plan, workers=1)
        parallel = simulate_risk(plan, workers=3)
        assert serial == parallel

    @pytest.mark.parametrize("reps", [1, 2047, 2049])
    def test_worker_count_does_not_change_bits_off_chunk_boundary(self, reps):
        # Compared by repr, which is exact for floats and equates the NaN
        # standard errors of a single replication.
        plan = small_plan(reps=reps)
        assert repr(simulate_risk(plan, workers=1)) == repr(simulate_risk(plan, workers=2))

    def test_lambda_shrink_function_runs_on_workers(self):
        # Workers inherit the plan from a fork, so a shrink function need
        # not be picklable.
        lam = EstimatorConfig(kind="CLASS1", phi=lambda f, s: np.minimum(0.4, f))
        plan = small_plan(reps=4096, estimators=[lam])
        assert repr(simulate_risk(plan, workers=1)) == repr(simulate_risk(plan, workers=2))

    def test_without_fork_workers_run_serially(self, monkeypatch, caplog):
        def no_pool(*args, **kwargs):
            raise AssertionError("workers were forked without os.fork")

        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(risksim, "_fork_map", no_pool)
        lam = EstimatorConfig(kind="CLASS1", phi=lambda f, s: np.minimum(0.4, f))
        plan = small_plan(reps=2049, estimators=[lam])
        with caplog.at_level(logging.WARNING, logger="poolshrink.risksim"):
            report = simulate_risk(plan, workers=2)
        assert "fork start method unavailable" in caplog.text
        assert repr(report) == repr(simulate_risk(plan, workers=1))

    def test_replication_draw_does_not_depend_on_replication_count(self, dense_spec):
        dense = (SimPlan(dense_spec, (), 2049, 3), SimPlan(dense_spec, (), 4096, 3))
        for short, full in [(small_plan(reps=2049), small_plan(reps=4096)), dense]:
            for rep in (0, 1, 2047, 2048):
                a, b = replication_sample(short, rep), replication_sample(full, rep)
                assert np.array_equal(a.X, b.X) and a.S == b.S

    CLASS2 = EstimatorConfig(
        kind="CLASS2", phi=lambda f, s: np.minimum(0.4, f), psi=lambda g, s: np.minimum(0.6, g)
    )

    @pytest.mark.parametrize(
        "mu, extra", [((0,) * 5, ()), (TABLE1_MEANS[5], (CLASS2,))], ids=["zero", "shifted"]
    )
    def test_matches_per_sample_estimators(self, mu, extra):
        # The engine's chunked evaluation must agree with estimate(), the
        # B = 1 call of the same rules, on the draws replication_sample names.
        # At non-zero means the engine takes G and J once per frame, at the
        # kind's origin; CLASS2 reads G there too.
        plan = small_plan(reps=64, mu=mu)
        plan = dataclasses.replace(plan, estimators=plan.estimators + extra)
        report = simulate_risk(plan)
        spec = plan.spec
        losses = {cfg.name: [] for cfg in plan.estimators}
        base = []
        for rep in range(plan.replications):
            sample = replication_sample(plan, rep)
            diff = sample.X[0] - spec.mu[0]
            base.append(float(diff @ spec.Q @ diff) / spec.sigma2)
            for cfg in plan.estimators:
                est = estimate(sample, spec, cfg)
                d = est - spec.mu[0]
                losses[cfg.name].append(float(d @ spec.Q @ d) / spec.sigma2)
        assert report.baseline_risk == pytest.approx(np.mean(base), rel=1e-12)
        for entry in report.estimators:
            assert entry.risk == pytest.approx(np.mean(losses[entry.name]), rel=1e-10)

    def test_equal_mean_configs_share_translation_invariant_prials(self):
        reports = {}
        for mu in [(0, 0, 0, 0, 0), (1, 1, 1, 1, 1), (3, 3, 3, 3, 3)]:
            reports[mu] = simulate_risk(small_plan(reps=4000, mu=mu))
        by_name = {}
        for report in reports.values():
            for entry in report.estimators:
                by_name.setdefault(entry.name, []).append(entry.prial)
        for name in ("PT", "EB", "HB"):
            vals = by_name[name]
            assert max(vals) - min(vals) < 1e-8
        assert max(by_name["JS"]) - min(by_name["JS"]) > 1.0

    def test_equal_mean_configs_share_equivariant_losses_exactly(self):
        # Equal means centre to the same zeros, so PT, EB and HB see the same
        # draws and give the same losses bit for bit, and each divides by the
        # loss of the centred X_1.  Their baselines were X_1's loss in the
        # plan's own coordinates, whose bits move with the shift: at 1e15 the
        # PRIALs moved in the third digit.
        reports = [
            simulate_risk(small_plan(reps=4000, mu=(c,) * 5)) for c in (0.0, 1.0, 3.0, 1e15)
        ]
        for name in ("PT", "EB", "HB"):
            entries = {
                repr(entry) for report in reports for entry in report.estimators if entry.name == name
            }
            assert len(entries) == 1, name
        js = {report.estimators[1].risk for report in reports}
        assert len(js) == 4

    def test_failure_names_replication_and_seed(self):
        def exploding(f, s):
            f = np.asarray(f, dtype=float)
            if np.any(f > 2.0):
                raise FloatingPointError("boom")
            return np.zeros_like(f)

        plan = small_plan(
            reps=500, estimators=[EstimatorConfig(kind="CLASS1", phi=exploding, label="BAD")]
        )
        with pytest.raises(SimulationError, match=r"replication \d+ \(seed 3\)"):
            simulate_risk(plan)

    def test_non_finite_loss_names_the_first_culprit(self):
        # phi/F = 1e160 where F > 3: the loss overflows on those rows only.
        spec = table1_preset(replications=500, seed=3)[0][1].spec
        huge = EstimatorConfig(
            kind="CLASS1", phi=lambda f, s: np.where(f > 3.0, 1e160 * f, 0.0), label="HUGE"
        )
        plan = SimPlan(spec, (huge,), 500, 3)
        first = next(rep for rep in range(plan.replications) if replication_f(plan, rep) > 3.0)
        assert first > 0
        with pytest.raises(SimulationError) as failure:
            simulate_risk(plan)
        assert str(failure.value) == (
            f"estimator HUGE failed at replication {first} (seed 3): non-finite loss"
        )

    def test_invalid_plan_rejected(self):
        plan = small_plan(reps=0)
        with pytest.raises(ValueError, match="replications"):
            simulate_risk(plan)
        bad = small_plan(estimators=[EstimatorConfig(kind="EB")])
        with pytest.raises(ValueError, match="a0"):
            simulate_risk(bad)


class TestFrameForms:
    """The loss forms take the constants m (nu_hat's) and t (the target)
    apart, scaled by powers of 2, and K = v m + (u - 1) t as a sum of
    squares: a coefficient of exactly 0 adds exactly 0, a loss that is
    finite is taken as such, and where K cancels no large form is
    subtracted from another.  The property test in test_properties.py
    covers random frames with means up to 1e15."""

    q = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]])

    @pytest.mark.parametrize(
        "m, t, coefs, overflows",
        [
            # m ~ 1e200, t = 0: v = 2^-600 scales m to about 1e20.
            ([1e200, -2e200, 5e199], [0.0] * 3,
             [(1.0, 0.0), (1.0, 2.0**-600), (0.0, 2.0**-600), (0.0, 1.0)], [3]),
            # t ~ 1e200: finite only where u - 1 is exactly 0.
            ([0.3, -1.2, 2.0], [1e200, 1e200, -1e200],
             [(1.0, 0.0), (1.0, 0.5), (0.5, 0.5), (0.0, 0.0)], [2, 3]),
            # m = t / 2 ~ 1e200: K = (v / 2 + u - 1) t is exactly 0 at (0, 2).
            ([5e199, 5e199, -5e199], [1e200, 1e200, -1e200],
             [(1.0, 0.0), (0.0, 2.0), (0.5, 1.0), (0.0, 1.0)], [3]),
        ],
        ids=["huge_m", "huge_t", "huge_parallel"],
    )
    def test_huge_constants_stay_apart(self, m, t, coefs, overflows):
        rng = np.random.default_rng(5)
        a, n = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        aq, nq = a @ self.q, n @ self.q
        base = [np.einsum("bi,bi->b", x, y) for x, y in ((aq, a), (2.0 * aq, n), (nq, n))]
        m, t = np.array(m), np.array(t)
        u, v = (np.array(c) for c in zip(*coefs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = risksim._form_loss((u, v), risksim._frame_forms(self.q, aq, nq, base, m, t))
        assert loss[0] == base[0][0]
        r = u[:, None] * a + v[:, None] * n + (v[:, None] * m + (u - 1.0)[:, None] * t)
        for row in range(4):
            if row in overflows:
                assert not np.isfinite(loss[row])
            else:
                assert loss[row] == pytest.approx(r[row] @ self.q @ r[row], rel=1e-12)

    def test_lincomb_error_does_not_move_with_a_common_mean(self):
        # d = (1, 1, 0, 0, 0) on the table1 model at every mean c: t = 2c
        # and m = c, and the error u a + v n does not depend on c.  Taking
        # K'qK as products of the forms of m - t and t reads 9.59 at
        # c = 1e8 against 11.23.  What is left is u = 1 - f rounding by up
        # to 2^-54, which moves K by up to 2^-53 c per row: forming x - t
        # directly is 1.05e-10 relative apart on this input, so the bound
        # is 1e-9.
        cfg = EstimatorConfig(
            kind="LINCOMB", d=(1.0, 1.0, 0.0, 0.0, 0.0), phi=lambda f, s: np.minimum(0.4, f)
        )
        entries = []
        for c in (0.0, 1e8):
            spec = scalar_spec(5, 5, 20, [0.1 * i for i in range(1, 6)], 4.0, (c,) * 5)
            entries.append(simulate_risk(SimPlan(spec, (cfg,), 4096, 0)).estimators[0])
        assert entries[1].baseline_risk == entries[0].baseline_risk
        assert entries[1].risk == pytest.approx(entries[0].risk, rel=1e-9)

    def test_heb_matches_its_direct_loss_at_opposite_means(self):
        # nu_hat(mu) = 0, so K = (f - g) m - f t with m = 0 and f tiny;
        # taking K'qK as products of the forms of m - t = -t and t reads
        # 3.67 against 3.93.  The per-sample estimates round at 1e8, so
        # their direct loss is off by about 1e-8 per row.
        spec = scalar_spec(5, 4, 20, [0.2] * 4, 4.0, (1e8, -1e8, 1e8, -1e8))
        plan = SimPlan(spec, (preset_estimators(spec)[4],), 128, 3)
        entry = simulate_risk(plan).estimators[0]
        assert entry.name == "HEB"
        losses = []
        for rep in range(plan.replications):
            diff = estimate(replication_sample(plan, rep), spec, plan.estimators[0]) - spec.mu[0]
            losses.append(float(diff @ spec.Q @ diff) / spec.sigma2)
        assert entry.risk == pytest.approx(np.mean(losses), rel=1e-8)


class TestHotPathCounts:
    """The engine opens one stream per chunk, computes the PT quantile
    once per (p, k, n, alpha), and shares the noise statistics and the
    equivariant rules between the plans of a noise group."""

    def test_one_stream_per_chunk(self, monkeypatch):
        opened = []
        original = risksim.replication_rng
        monkeypatch.setattr(
            risksim, "replication_rng", lambda seed, chunk: opened.append(chunk) or original(seed, chunk)
        )
        simulate_risk(small_plan(reps=2 * 2048 + 1))
        assert opened == [0, 1, 2]

    def test_preset_computes_one_f_quantile(self, monkeypatch):
        calls = []
        original = numerics.f_quantile
        monkeypatch.setattr(
            estimators, "f_quantile", lambda *args: calls.append(args) or original(*args)
        )
        pt_threshold.cache_clear()
        for _, plan in table1_preset(replications=10, seed=0):
            simulate_risk(plan)
        assert calls == [(20, 20, 0.05)]

    def test_short_plan_draws_only_its_rows(self, monkeypatch):
        drawn = []
        original = risksim.replication_rng

        class Recording:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def standard_normal(self, size=None, *, out=None):
                drawn.append(len(out) if out is not None else size[0])
                return self.rng.standard_normal(size, out=out)

        monkeypatch.setattr(risksim, "replication_rng", lambda *args: Recording(original(*args)))
        simulate_risk(small_plan(reps=8))
        assert drawn == [8]

    def test_table1_shares_noise_statistics_and_equivariant_rules(self, monkeypatch):
        # 11 plans, 8 distinct centred mean sets: the four equal-means rows
        # all centre to zero.
        calls = {kind: 0 for kind in ("PT", "JS", "EB", "HB", "HEB")}

        def counted(kind, rule):
            def rule_counting(*args):
                calls[kind] += 1
                return rule(*args)

            return rule_counting

        for kind in calls:
            entry = estimators.ESTIMATORS[kind]
            monkeypatch.setitem(
                estimators.ESTIMATORS, kind, dataclasses.replace(entry, rule=counted(kind, entry.rule))
            )
        noise_stats = []
        original = risksim.pooled_noise_stats
        monkeypatch.setattr(
            risksim, "pooled_noise_stats", lambda *args: noise_stats.append(1) or original(*args)
        )
        simulate_many([plan for _, plan in table1_preset(replications=2048)])
        assert calls == {"PT": 8, "JS": 11, "EB": 8, "HB": 8, "HEB": 11}
        assert len(noise_stats) == 1

    def test_table1_losses_once_per_memo_key(self, monkeypatch):
        # One chunk of the 11 table1 plans, which share one Q and estimate
        # mu_1.  One set of m and t forms per distinct frame (t, m), not per
        # plan, and one G and J per plan: PT, EB and HB run at t = 0 with
        # m = nu_hat(mu - mu_1) over the 8 distinct centred means, of which
        # (-0.4, ..., 0.4) and (1.2, ..., 2.0) differ only in their last
        # bits, and their pooled means may round to the same m (here they
        # do): 7 or 8 frames.  JS and HEB run at t = mu_1 and m = nu_hat(mu),
        # 11 frames of which mu = 0's is the zero frame above: 17 or 18.
        # Then one rule loss per (config, shifted means): 8 each for PT, EB
        # and HB (centred means), 11 each for JS and HEB (absolute means).
        calls = collections.Counter()

        def count(name, tag):
            original = getattr(risksim, name)

            def counted(*args):
                calls[tag(args)] += 1
                return original(*args)

            monkeypatch.setattr(risksim, name, counted)

        count("_frame_forms", lambda args: "frame")
        count("size_statistics", lambda args: "sizes")
        count("_estimator_sums", lambda args: args[1].kind)
        simulate_many([plan for _, plan in table1_preset(replications=2048)])
        frames = calls.pop("frame")
        assert 17 <= frames <= 18
        assert calls == {"sizes": 11, "PT": 8, "EB": 8, "HB": 8, "JS": 11, "HEB": 11}

    def test_table1_factors_one_noise_model(self):
        # The 11 plans draw identical rows, so only the first one's draws
        # need the Cholesky factors of sigma^2 V_i.
        plans = [plan for _, plan in table1_preset(replications=2048)]
        simulate_many(plans)
        assert sum("chol_scaled" in vars(plan.spec) for plan in plans) == 1

    def test_table1_checks_its_model_once(self, monkeypatch):
        # The 11 plans share one model's V and Q: V[0..4], Q and V[0] - A
        # are checked once, not once per plan (77 checks).
        checked = []
        original = model.validate_spd
        monkeypatch.setattr(
            model, "validate_spd", lambda m, name: checked.append(name) or original(m, name)
        )
        simulate_many([plan for _, plan in table1_preset(replications=2048)])
        assert checked == [*(f"V[{i}]" for i in range(5)), "Q", "V[0] - A"]


class TestLincombEstimand:
    """A LINCOMB estimator is scored against sum_i d_i mu_i, with the
    unshrunk sum_i d_i X_i as its baseline."""

    D = (1.0, -1.0, 0.0, 0.0, 0.0)
    MU = (0, 1, 0, 0, 0)

    def spec(self):
        return scalar_spec(5, 5, 20, [0.1 * i for i in range(1, 6)], 4.0, self.MU)

    def test_unshrunk_difference_has_the_exact_risk(self):
        # phi = 0 leaves X_1 - X_2, whose risk is tr((V_1 + V_2) Q) = 15.
        # The engine read 27.53 +- 0.11 against mu_1, a PRIAL of about -199%.
        zero = EstimatorConfig(
            kind="LINCOMB", d=self.D, phi=lambda f, s: np.zeros_like(np.asarray(f, dtype=float))
        )
        report = simulate_risk(SimPlan(self.spec(), (zero,), 20_480, 0))
        entry = report.estimators[0]
        assert abs(entry.risk - 15.0) <= 4.0 * entry.std_error
        assert entry.prial == 0.0 and entry.prial_std_error == 0.0
        assert (entry.baseline_risk, entry.baseline_std_error) == (entry.risk, entry.std_error)

    def test_first_population_weights_match_class1(self):
        phi = lambda f, s: np.minimum(0.4, f)  # noqa: E731
        spec = self.spec()
        class1 = EstimatorConfig(kind="CLASS1", phi=phi, label="shrink")
        lincomb = EstimatorConfig(kind="LINCOMB", d=(1, 0, 0, 0, 0), phi=phi, label="shrink")
        reports = [simulate_risk(SimPlan(spec, (cfg,), 4097, 5)) for cfg in (class1, lincomb)]
        assert repr(reports[0]) == repr(reports[1])

    def test_matches_per_sample_estimate(self):
        spec = self.spec()
        cfg = EstimatorConfig(kind="LINCOMB", d=self.D, phi=lambda f, s: np.minimum(0.25, f))
        plan = SimPlan(spec, (cfg,), 64, 3)
        entry = simulate_risk(plan).estimators[0]
        target = np.asarray(self.D) @ spec.mu_stack
        losses, base = [], []
        for rep in range(plan.replications):
            sample = replication_sample(plan, rep)
            for value, out in ((estimate(sample, spec, cfg), losses), (self.D @ sample.X, base)):
                diff = value - target
                out.append(float(diff @ spec.Q @ diff) / spec.sigma2)
        assert entry.risk == pytest.approx(np.mean(losses), rel=1e-10)
        assert entry.baseline_risk == pytest.approx(np.mean(base), rel=1e-12)
        assert entry.prial == pytest.approx(
            100.0 * (np.mean(base) - np.mean(losses)) / np.mean(base), rel=1e-8
        )


class TestSimulateMany:
    """Plans that share a seed and a noise model share each chunk's draw,
    and each report is the plan's report run alone."""

    @staticmethod
    def _plan(spec, reps):
        return SimPlan(spec, preset_estimators(spec), reps, 3)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_separate_runs(self, workers, dense_spec):
        zero = (0, 0, 0, 0, 0)
        # sigma^2 V_i equal to small_plan's bit for bit, but S scales by 1, not 2.
        other_sigma2 = scalar_spec(5, 5, 20, [0.2 * i for i in range(1, 6)], 1.0, zero)
        assert other_sigma2.chol_scaled.tobytes() == small_plan().spec.chol_scaled.tobytes()
        other_n = scalar_spec(5, 5, 30, [0.1 * i for i in range(1, 6)], 2.0, zero)
        other_v = scalar_spec(5, 5, 20, [0.1 * i for i in range(5, 0, -1)], 2.0, zero)
        other_shape = scalar_spec(3, 4, 12, [0.5, 1.0, 1.5, 2.0], 1.5, (1, 0, -1, 2))
        plans = [
            small_plan(reps=2049, mu=(1, 2, 0, -1, 3)),
            small_plan(reps=2049, seed=4),
            self._plan(other_shape, 3000),
            self._plan(other_v, 2049),
            small_plan(reps=1),
            self._plan(other_sigma2, 2049),
            small_plan(reps=4096, mu=(2, 2, 2, 2, 2)),
            self._plan(other_n, 2049),
            small_plan(reps=2047, mu=(0.4, 4, 4, 4, 4)),
            # 2049 replications leave a one-row last chunk on the dense model.
            self._plan(dense_spec, 2049),
            # Drawn alone it takes one row; beside the plan above, 2,048.
            self._plan(dense_spec, 1),
        ]
        expected = [repr(simulate_risk(plan)) for plan in plans]
        assert [repr(report) for report in simulate_many(plans, workers)] == expected

    def test_failure_in_a_later_plan_names_its_replication_and_seed(self):
        def exploding(f, s):
            f = np.asarray(f, dtype=float)
            if np.any(f > 2.0):
                raise FloatingPointError("boom")
            return np.zeros_like(f)

        bad = small_plan(
            reps=500, estimators=[EstimatorConfig(kind="CLASS1", phi=exploding, label="BAD")]
        )
        with pytest.raises(SimulationError) as alone:
            simulate_risk(bad)
        assert "estimator BAD failed at replication" in str(alone.value)
        with pytest.raises(SimulationError) as shared:
            simulate_many([small_plan(reps=500), bad])
        assert str(shared.value) == str(alone.value)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_past_the_first_chunk_names_its_replication(self, workers):
        # The F each replication's rule sees, recorded in chunk order.
        seen = []
        recording = EstimatorConfig(
            kind="CLASS1", phi=lambda f, s: seen.append(f.copy()) or np.zeros_like(f)
        )
        probe = small_plan(reps=3 * 2048, estimators=[recording])
        simulate_risk(probe)
        f_stat = np.concatenate(seen)
        # Chunk 0's largest F: the rule first raises past chunk 0.
        threshold = f_stat[:2048].max()
        first = 2048 + int(np.argmax(f_stat[2048:] > threshold))
        assert f_stat[first] > threshold
        assert replication_f(probe, first) == pytest.approx(f_stat[first], rel=1e-12)

        def exploding(f, s):
            if np.any(f > threshold):
                raise FloatingPointError("boom")
            return np.zeros_like(f)

        bad = small_plan(
            reps=3 * 2048, estimators=[EstimatorConfig(kind="CLASS1", phi=exploding, label="BAD")]
        )
        expected = f"estimator BAD failed at replication {first} (seed 3): boom"
        with pytest.raises(SimulationError) as alone:
            simulate_risk(bad)
        assert str(alone.value) == expected
        healthy = small_plan(reps=3 * 2048, mu=(1, 2, 0, -1, 3))
        with pytest.raises(SimulationError) as shared:
            simulate_many([healthy, bad], workers)
        assert str(shared.value) == expected

    @pytest.mark.parametrize("workers", [2, 3])
    def test_first_failure_in_task_order_is_raised(self, workers):
        # One row of chunk 1 and one of chunk 2 fail; at two and at three
        # workers the two chunks belong to different workers.
        seen = []
        recording = EstimatorConfig(
            kind="CLASS1", phi=lambda f, s: seen.append(f.copy()) or np.zeros_like(f)
        )
        simulate_risk(small_plan(reps=3 * 2048, estimators=[recording]))
        f_stat = np.concatenate(seen)
        failing = f_stat[[2048 + 1000, 2 * 2048 + 10]]

        def exploding(f, s):
            if np.isin(f, failing).any():
                raise FloatingPointError("boom")
            return np.zeros_like(f)

        bad = small_plan(
            reps=3 * 2048, estimators=[EstimatorConfig(kind="CLASS1", phi=exploding, label="BAD")]
        )
        with pytest.raises(SimulationError) as serial:
            simulate_risk(bad)
        assert str(serial.value) == "estimator BAD failed at replication 3048 (seed 3): boom"
        with pytest.raises(SimulationError) as forked:
            simulate_risk(bad, workers=workers)
        assert str(forked.value) == str(serial.value)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_failure_in_plan_order(self, workers):
        # Row (2,-0.5,-0.5,-0.5,-0.5): CLASS1 reads the centred draw and
        # CLASS2 the plan's own, and both fail on the first replication.
        spec = table1_preset(replications=2048)[5][1].spec

        def raising(name):
            def shrink(stat, s):
                raise ValueError(name)

            return shrink

        zero = lambda stat, s: np.zeros_like(stat)  # noqa: E731
        a = EstimatorConfig(kind="CLASS2", phi=zero, psi=raising("psi"), label="A")
        b = EstimatorConfig(kind="CLASS1", phi=raising("phi"), label="B")
        for entries, expected in (((a, b), "A failed at replication 0 (seed 4): psi"),
                                  ((b, a), "B failed at replication 0 (seed 4): phi")):
            with pytest.raises(SimulationError) as failed:
                simulate_risk(SimPlan(spec, entries, 3 * 2048, 4), workers)
            assert str(failed.value) == f"estimator {expected}"

    @staticmethod
    def _chunk_f(reps):
        """The F each replication's CLASS1 rule sees, in replication order."""
        seen = []
        recording = EstimatorConfig(
            kind="CLASS1", phi=lambda f, s: seen.append(f.copy()) or np.zeros_like(f)
        )
        simulate_risk(small_plan(reps=reps, estimators=[recording]))
        return np.concatenate(seen)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_earlier_non_finite_loss_is_named_before_a_raising_row(self, workers):
        # In chunk 1, row 500 raises and row 100 overflows its loss (phi/F =
        # 1e160): the batch raises, and the row-by-row losses name row 100,
        # with the batch's error.
        f_stat = self._chunk_f(2 * 2048)
        overflow, raising = f_stat[2048 + 100], f_stat[2048 + 500]

        def phi(f, s):
            if np.isin(raising, f):
                raise FloatingPointError("boom")
            return np.where(f == overflow, 1e160 * f, 0.0)

        bad = small_plan(
            reps=2 * 2048, estimators=[EstimatorConfig(kind="CLASS1", phi=phi, label="BAD")]
        )
        with pytest.raises(SimulationError) as failed:
            simulate_risk(bad, workers)
        assert str(failed.value) == "estimator BAD failed at replication 2148 (seed 3): boom"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_batch_failure_with_no_failing_row_names_the_chunk(self, workers):
        # Chunk 1's batch raises, but each of its rows passes alone: the
        # chunk's first replication is named, with the batch's error.
        marker = self._chunk_f(2 * 2048)[2048 + 7]

        def phi(f, s):
            if f.size > 1 and np.isin(marker, f):
                raise FloatingPointError("batch only")
            return np.zeros_like(f)

        bad = small_plan(
            reps=2 * 2048, estimators=[EstimatorConfig(kind="CLASS1", phi=phi, label="BAD")]
        )
        with pytest.raises(SimulationError) as failed:
            simulate_risk(bad, workers)
        assert str(failed.value) == (
            "estimator BAD failed at replication 2048 (seed 3): batch only"
        )

    def test_plans_differing_in_q_draw_once_per_q(self, monkeypatch):
        # The draw does not read Q, but the loss forms do: each Q is its
        # own group, whose reports equal the plans run alone.
        mu = (1, 2, 0, -1, 3)
        other_q = scalar_spec(5, 5, 20, [0.1 * i for i in range(1, 6)], 2.0, mu, q_scalar=3.0)
        plans = [small_plan(reps=2049, mu=mu), self._plan(other_q, 2049)]
        assert plans[0].spec.Q.tobytes() != other_q.Q.tobytes()
        expected = [repr(simulate_risk(plan)) for plan in plans]
        for workers in (1, 2):
            assert [repr(report) for report in simulate_many(plans, workers)] == expected
        drawn = collections.Counter()
        draw = risksim._draw_noise
        monkeypatch.setattr(
            risksim, "_draw_noise", lambda *args: drawn.update([args[2]]) or draw(*args)
        )
        simulate_many(plans)
        assert drawn == {0: 2, 1: 2}

    def test_plans_never_write_the_shared_draw(self, monkeypatch, dense_spec):
        runs = [
            [plan for _, plan in table1_preset(replications=2048)],
            [SimPlan(dense_spec, preset_estimators(dense_spec), 2048, 0)],
        ]
        expected = [repr(simulate_many(plans)) for plans in runs]
        draw = risksim._draw_noise

        def read_only(*args):
            noise, ss = draw(*args)
            noise.flags.writeable = False
            return noise, ss

        monkeypatch.setattr(risksim, "_draw_noise", read_only)
        assert [repr(simulate_many(plans)) for plans in runs] == expected

    def test_dead_worker_is_named_and_reaped(self):
        parent = os.getpid()

        def dying(f, s):
            if os.getpid() != parent:
                os._exit(7)
            return np.zeros_like(f)

        plan = small_plan(reps=3 * 2048, estimators=[EstimatorConfig(kind="CLASS1", phi=dying)])
        counts = _blas_counts()
        with pytest.raises(RuntimeError, match=r"^simulation worker \d+ exited with status 7 "):
            simulate_risk(plan, workers=2)
        assert _blas_counts() == counts
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_unpicklable_failure_arrives_as_runtime_error(self, monkeypatch):
        class Unpicklable(Exception):
            pass

        def failing(plans, task):
            raise Unpicklable(f"chunk {task[1]}")

        monkeypatch.setattr(risksim, "_group_chunk_sums", failing)
        with pytest.raises(RuntimeError, match=r"^Unpicklable: chunk 0$"):
            simulate_risk(small_plan(reps=2 * 2048), workers=2)

    def test_preset_opens_one_stream_per_chunk(self, monkeypatch):
        opened = []
        original = risksim.replication_rng
        monkeypatch.setattr(
            risksim, "replication_rng", lambda seed, chunk: opened.append(chunk) or original(seed, chunk)
        )
        simulate_many([plan for _, plan in table1_preset(replications=2 * 2048 + 1)])
        assert opened == [0, 1, 2]

    def test_preset_run_opens_one_pool(self, monkeypatch, capsys):
        batches = record_forks(monkeypatch)
        assert main(["simulate", "--preset", "table1", "--reps", "4097", "--workers", "2"]) == 0
        assert [len(forks) for forks in batches] == [2]
        assert len(capsys.readouterr().out.splitlines()) == 1 + 11 * 5

    def test_pool_has_no_more_workers_than_tasks(self, monkeypatch, capsys):
        # Every worker forks at once, whatever the task count.
        batches = record_forks(monkeypatch)
        assert main(["simulate", "--preset", "table1", "--reps", "2048", "--workers", "4"]) == 0
        assert batches == []
        assert main(["simulate", "--preset", "table1", "--reps", "4097", "--workers", "4"]) == 0
        assert [len(forks) for forks in batches] == [3]
        capsys.readouterr()

    def test_preset_derives_constants_once(self, monkeypatch):
        calls = []
        original = estimators.solve_hb_a
        monkeypatch.setattr(
            estimators, "solve_hb_a", lambda *args, **kw: calls.append(args) or original(*args, **kw)
        )
        jobs = table1_preset(replications=10)
        assert len(calls) == 1
        assert len({id(plan.estimators) for _, plan in jobs}) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_plans_no_reports(self, workers):
        assert simulate_many([], workers) == []

    def test_non_string_label_is_an_invalid_plan(self):
        plan = small_plan(reps=10, estimators=[EstimatorConfig(kind="EB", a0=0.1, label=5)])
        with pytest.raises(ValueError, match=r"invalid simulation plan 0: .*label: must be"):
            simulate_many([plan])

    def test_invalid_later_plan_named(self):
        with pytest.raises(ValueError, match=r"invalid simulation plan 1: replications"):
            simulate_many([small_plan(reps=10), small_plan(reps=0)])


class TestPlanValidation:
    """Library callers get the plan's own messages for bad counts and seeds,
    before any chunk runs."""

    @pytest.mark.parametrize("seed", [-1, 1.5, True], ids=["negative", "float", "bool"])
    def test_bad_seed(self, seed):
        message = f"invalid simulation plan 0: seed: must be a non-negative integer, got {seed!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate_many([small_plan(reps=10, seed=seed)])

    @pytest.mark.parametrize("reps", [10.5, True], ids=["float", "bool"])
    def test_non_integer_replications(self, reps):
        message = f"invalid simulation plan 0: replications: must be an integer, got {reps!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate_many([small_plan(reps=reps)])

    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker(self, workers):
        message = f"workers: must be an integer >= 1, got {workers}"
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate_many([small_plan(reps=10)], workers=workers)

    def test_numpy_integers_accepted(self):
        got = simulate_risk(small_plan(reps=np.int64(10), seed=np.uint32(3)), workers=np.int64(1))
        want = simulate_risk(small_plan(reps=10, seed=3))
        assert repr(got.estimators) == repr(want.estimators)

    @pytest.mark.parametrize(
        "shape, field", [((5, 5, 0), "n"), ((5, 1, 20), "k")], ids=["n=0", "k=1"]
    )
    def test_estimators_checked_only_on_a_valid_model(self, shape, field):
        # PT's check computes an F quantile, whose degrees of freedom need
        # k >= 2 and n >= 1; an invalid model must be named instead.
        p, k, n = shape
        spec = scalar_spec(p, k, n, [0.1 * i for i in range(1, k + 1)], 2.0, [0.0] * k)
        plan = SimPlan(spec, (EstimatorConfig(kind="PT", alpha=0.05),), 10, 0)
        with pytest.raises(ValueError, match=rf"^invalid simulation plan 0: {field}: "):
            simulate_many([plan])


class TestWarmWorkers:
    """The calling process computes the constants the rules memoize before
    it forks, so its workers inherit them instead of each computing its
    own."""

    @staticmethod
    def _cache_at_fork(monkeypatch, plan, memo):
        """The plan's report at two workers and ``memo.cache_info()`` as it
        stood when the workers were forked."""
        batches = record_forks(monkeypatch, memo.cache_info)
        report = simulate_risk(plan, workers=2)
        assert len(batches) == 1 and len(batches[0]) == 2
        assert batches[0][1] == batches[0][0]
        return report, batches[0][0]

    def _check(self, monkeypatch, plan, memo, entries):
        memo.cache_clear()
        report, at_fork = self._cache_at_fork(monkeypatch, plan, memo)
        assert at_fork.currsize == entries
        # The serial run finds every constant its rules read already there.
        assert repr(simulate_risk(plan, workers=1)) == repr(report)
        assert memo.cache_info().misses == at_fork.misses

    def test_pt_threshold_before_the_pool(self, monkeypatch):
        spec = small_plan().spec
        plan = small_plan(reps=2 * 2048, estimators=[preset_config("PT", spec)])
        self._check(monkeypatch, plan, pt_threshold, 1)

    def test_hb_quadrature_rules_before_the_pool(self, monkeypatch):
        spec = small_plan().spec
        hb = preset_config("HB", spec, given={"L": 0.5})
        # Gauss-Legendre rules at both orders.
        self._check(monkeypatch, small_plan(reps=2049, estimators=[hb]), numerics.gauss_legendre, 2)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork pool without os.fork")
    def test_numpy_random_before_the_pool(self):
        # numpy imports numpy.random lazily, and only the workers draw, so
        # each worker imported it.  A fresh interpreter shows whether the
        # calling process has.
        script = (
            "import sys\n"
            "from poolshrink.risksim import simulate_many, table1_preset\n"
            "[(_, plan)] = table1_preset(replications=2 * 2048, seed=0)[:1]\n"
            "simulate_many([plan], workers=2)\n"
            "print('numpy.random' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(risksim.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert run.stdout.split() == ["True"]


def _blas_counts():
    return [get() for get, _ in risksim._openblas_thread_controls()]


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS at two threads for the test, whatever the
    environment set, and at its own count again afterwards."""
    controls = risksim._openblas_thread_controls()
    if not (os.path.isdir("/proc/self/task") and controls):
        pytest.skip("no /proc or no OpenBLAS thread-count symbols in this process")
    before = _blas_counts()
    for _, set_count in controls:
        set_count(2)
    yield _blas_counts()
    for (_, set_count), count in zip(controls, before):
        set_count(count)


@pytest.mark.usefixtures("two_blas_threads")
class TestSingleBlasThread:
    """While its workers run the calling process holds OpenBLAS at one
    thread, so the forked workers start no BLAS helper threads, and it gets
    its own thread count back afterwards."""

    def test_workers_start_no_blas_threads(self, dense_spec):
        parent = os.getpid()

        def single_threaded(f, s):
            if os.getpid() != parent:
                threads = len(os.listdir("/proc/self/task"))
                if threads > 1:
                    raise RuntimeError(f"{threads} threads in worker {os.getpid()}")
            return np.minimum(f, 1.0)

        probe = EstimatorConfig(kind="CLASS1", phi=single_threaded, label="PROBE")
        plan = SimPlan(dense_spec, (probe,), 2 * 2048, 5)
        assert repr(simulate_risk(plan, workers=2)) == repr(simulate_risk(plan, workers=1))

    @staticmethod
    def _run_recording_counts(monkeypatch, plan):
        """Run the plan at two workers, checking that every OpenBLAS was at
        one thread when each worker was forked."""
        batches = record_forks(monkeypatch, _blas_counts)
        try:
            simulate_risk(plan, workers=2)
        finally:
            assert len(batches) == 1 and len(batches[0]) == 2
            assert all(set(at_fork) == {1} for at_fork in batches[0])

    def test_thread_count_restored_after_a_run(self, monkeypatch, two_blas_threads):
        self._run_recording_counts(monkeypatch, small_plan(reps=2 * 2048))
        assert _blas_counts() == two_blas_threads

    def test_thread_count_restored_after_a_failed_run(self, monkeypatch, two_blas_threads):
        def exploding(f, s):
            raise FloatingPointError("boom")

        bad = EstimatorConfig(kind="CLASS1", phi=exploding, label="BAD")
        with pytest.raises(SimulationError, match="estimator BAD failed at replication"):
            self._run_recording_counts(monkeypatch, small_plan(reps=2 * 2048, estimators=[bad]))
        assert _blas_counts() == two_blas_threads


class TestTable1Preset:
    def test_eleven_configurations(self):
        jobs = table1_preset(replications=10, seed=0)
        assert len(jobs) == 11
        assert len(TABLE1_MEANS) == 11

    def test_first_row_zero_means(self):
        _, plan = table1_preset(replications=10)[0]
        assert all(np.all(mu == 0.0) for mu in plan.spec.mu)

    def test_mean_sum_structure(self):
        # Rows 5-7 have means summing to zero; rows 1-4 are equal-mean.
        for means in TABLE1_MEANS[4:7]:
            assert sum(means) == pytest.approx(0.0, abs=1e-12)
        for means in TABLE1_MEANS[:4]:
            assert len(set(means)) == 1

    def test_estimator_constants(self):
        _, plan = table1_preset(replications=10)[0]
        by_kind = {cfg.kind: cfg for cfg in plan.estimators}
        assert sorted(by_kind) == ["EB", "HB", "HEB", "JS", "PT"]
        assert by_kind["PT"].alpha == 0.05
        assert by_kind["EB"].a0 == pytest.approx(3.0 / 22.0, rel=1e-12)
        assert by_kind["HB"].a == pytest.approx(-7.72, abs=1e-12)
        assert by_kind["HB"].c == 1.0 and by_kind["HB"].L == 0.0
        assert by_kind["HEB"].a0 == pytest.approx(3.0 / 44.0, rel=1e-12)
        assert by_kind["HEB"].b0 == pytest.approx(3.0 / 44.0, rel=1e-12)

    def test_labels_and_shared_seed(self):
        jobs = table1_preset(replications=10, seed=99)
        labels = [label for label, _ in jobs]
        assert labels[0] == "(0,0,0,0,0)"
        assert labels[5] == "(2,-0.5,-0.5,-0.5,-0.5)"
        assert len(set(plan.seed for _, plan in jobs)) == 1


class TestSteinIdentity:
    def test_linear_h(self):
        sigma = np.diag([1.0, 2.0, 0.5, 1.5, 1.0])
        res = stein_identity_check(
            h=lambda y: y,
            jacobian=lambda y: np.broadcast_to(np.eye(5), (y.shape[0], 5, 5)),
            mu=np.zeros(5),
            sigma=sigma,
            replications=100_000,
            seed=0,
        )
        assert res.rhs == pytest.approx(np.trace(sigma), rel=1e-12)
        assert res.agrees(4.0)

    def test_inverse_norm_h(self):
        p = 5

        def h(y):
            norm2 = (y**2).sum(axis=1, keepdims=True)
            return y / norm2

        def jacobian(y):
            norm2 = (y**2).sum(axis=1)
            eye = np.eye(p)[None, :, :] / norm2[:, None, None]
            outer = 2.0 * y[:, :, None] * y[:, None, :] / (norm2**2)[:, None, None]
            return eye - outer

        res = stein_identity_check(
            h, jacobian, mu=np.zeros(p), sigma=np.eye(p), replications=100_000, seed=1
        )
        assert res.agrees(4.0)
        assert res.std_error > 0.0

    def test_constant_h(self):
        res = stein_identity_check(
            h=lambda y: np.ones_like(y),
            jacobian=lambda y: np.zeros((y.shape[0], y.shape[1], y.shape[1])),
            mu=np.array([0.3, -0.2]),
            sigma=np.eye(2),
            replications=10_000,
            seed=2,
        )
        assert res.rhs == 0.0
        assert abs(res.lhs) <= 4.0 * 2.0 / np.sqrt(10_000)


class TestChisqIdentity:
    def test_constant_g(self):
        n, sigma2 = 20, 2.0
        res = chisq_identity_check(
            g=lambda s: np.ones_like(s),
            g_prime=lambda s: np.zeros_like(s),
            n=n,
            sigma2=sigma2,
            replications=100_000,
            seed=3,
        )
        assert res.rhs == pytest.approx(n * sigma2, rel=1e-12)
        assert res.agrees(4.0)

    def test_linear_g_second_moment(self):
        n, sigma2 = 20, 2.0
        res = chisq_identity_check(
            g=lambda s: s,
            g_prime=lambda s: np.ones_like(s),
            n=n,
            sigma2=sigma2,
            replications=100_000,
            seed=4,
        )
        # E[S g(S)] = E[S^2] = sigma^4 n (n+2) analytically.
        analytic = sigma2**2 * n * (n + 2)
        assert res.agrees(4.0)
        se_lhs = np.sqrt(8.0 * n * (n + 2) * (n + 3)) * sigma2**2 / np.sqrt(100_000)
        assert abs(res.lhs - analytic) <= 5.0 * se_lhs

    def test_rational_g(self):
        res = chisq_identity_check(
            g=lambda s: 1.0 / (1.0 + s),
            g_prime=lambda s: -1.0 / (1.0 + s) ** 2,
            n=20,
            sigma2=2.0,
            replications=100_000,
            seed=5,
        )
        assert res.agrees(4.0)


class TestIdentityReplications:
    @pytest.mark.parametrize("replications", [0, -5])
    def test_fewer_than_one_replication_is_rejected(self, replications):
        # Both checks returned lhs = rhs = std_error = nan after 0/0 warnings.
        with pytest.raises(ValueError, match="replications: must be >= 1"):
            stein_identity_check(
                h=lambda y: y,
                jacobian=lambda y: np.broadcast_to(np.eye(2), (y.shape[0], 2, 2)),
                mu=np.zeros(2),
                sigma=np.eye(2),
                replications=replications,
            )
        with pytest.raises(ValueError, match="replications: must be >= 1"):
            chisq_identity_check(
                g=lambda s: np.ones_like(s),
                g_prime=lambda s: np.zeros_like(s),
                n=5,
                sigma2=1.0,
                replications=replications,
            )


class TestReportShape:
    def test_report_fields(self):
        report = simulate_risk(small_plan(reps=256))
        assert report.replications == 256
        assert report.seed == 3
        names = [e.name for e in report.estimators]
        assert names == ["PT", "JS", "EB", "HB", "HEB"]
        for entry in report.estimators:
            assert np.isfinite(entry.risk)
            assert entry.std_error > 0.0
            assert dataclasses.is_dataclass(entry)
