"""Monte Carlo engine: determinism, paired PRIAL accounting, the benchmark
preset, and the integration-by-parts identity validators."""

import dataclasses
import logging
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from poolshrink import estimators, numerics, risksim
from poolshrink.cli import main
from poolshrink.estimators import EstimatorConfig, estimate, pt_threshold
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

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def small_plan(reps=4000, seed=3, mu=(0, 0, 0, 0, 0), estimators=None):
    spec = scalar_spec(5, 5, 20, [0.1 * i for i in range(1, 6)], 2.0, mu)
    if estimators is None:
        estimators = preset_estimators(spec)
    return SimPlan(spec=spec, estimators=tuple(estimators), replications=reps, seed=seed)


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
            raise AssertionError("a pool was started without the fork start method")

        monkeypatch.setattr(risksim.multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(risksim, "ProcessPoolExecutor", no_pool)
        lam = EstimatorConfig(kind="CLASS1", phi=lambda f, s: np.minimum(0.4, f))
        plan = small_plan(reps=2049, estimators=[lam])
        with caplog.at_level(logging.WARNING, logger="poolshrink.risksim"):
            report = simulate_risk(plan, workers=2)
        assert "fork start method unavailable" in caplog.text
        assert repr(report) == repr(simulate_risk(plan, workers=1))

    def test_replication_draw_does_not_depend_on_replication_count(self):
        short, full = small_plan(reps=2049), small_plan(reps=4096)
        for rep in (0, 2047, 2048):
            a, b = replication_sample(short, rep), replication_sample(full, rep)
            assert np.array_equal(a.X, b.X) and a.S == b.S

    def test_matches_per_sample_estimators(self):
        # The engine's chunked evaluation must agree with estimate(), the
        # B = 1 call of the same rules, on the draws replication_sample names.
        plan = small_plan(reps=64)
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

    def test_invalid_plan_rejected(self):
        plan = small_plan(reps=0)
        with pytest.raises(ValueError, match="replications"):
            simulate_risk(plan)
        bad = small_plan(estimators=[EstimatorConfig(kind="EB")])
        with pytest.raises(ValueError, match="a0"):
            simulate_risk(bad)


class TestHotPathCounts:
    """The engine opens one stream per chunk and computes the PT quantile
    once per (p, k, n, alpha)."""

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


class TestSimulateMany:
    """Plans that share a seed and a noise model share each chunk's draw,
    and each report is the plan's report run alone."""

    @staticmethod
    def _plan(spec, reps):
        return SimPlan(spec, preset_estimators(spec), reps, 3)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_separate_runs(self, workers):
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

    def test_preset_opens_one_stream_per_chunk(self, monkeypatch):
        opened = []
        original = risksim.replication_rng
        monkeypatch.setattr(
            risksim, "replication_rng", lambda seed, chunk: opened.append(chunk) or original(seed, chunk)
        )
        simulate_many([plan for _, plan in table1_preset(replications=2 * 2048 + 1)])
        assert opened == [0, 1, 2]

    def test_preset_run_opens_one_pool(self, monkeypatch, capsys):
        pools = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(risksim, "ProcessPoolExecutor", CountingPool)
        assert main(["simulate", "--preset", "table1", "--reps", "4097", "--workers", "2"]) == 0
        assert pools == [2]
        assert len(capsys.readouterr().out.splitlines()) == 1 + 11 * 5

    def test_preset_derives_constants_once(self, monkeypatch):
        calls = []
        original = estimators.solve_hb_a
        monkeypatch.setattr(
            estimators, "solve_hb_a", lambda *args, **kw: calls.append(args) or original(*args, **kw)
        )
        jobs = table1_preset(replications=10)
        assert len(calls) == 1
        assert len({id(plan.estimators) for _, plan in jobs}) == 1

    def test_no_plans_no_reports(self):
        assert simulate_many([]) == []

    def test_invalid_later_plan_named(self):
        with pytest.raises(ValueError, match=r"invalid simulation plan 1: replications"):
            simulate_many([small_plan(reps=10), small_plan(reps=0)])


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
