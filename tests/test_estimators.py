"""Point estimators: reductions, degenerate-statistic conventions, and the
hierarchical Bayes shrink function against brute-force oracles.  Each kind
is evaluated through ``estimate``, the B = 1 call of its batched rule."""

import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from poolshrink.estimators import (
    ESTIMATORS,
    EstimatorConfig,
    estimate,
    hb_small_f_factor,
    phi_hb,
    pt_threshold,
)
from poolshrink import estimators, numerics
from poolshrink.minimax import solve_hb_a
from poolshrink.model import Sample, scalar_spec
from poolshrink.numerics import QuadratureError
from poolshrink.risksim import SimPlan, replication_sample
from poolshrink.statistics import batch_pooled_stats, size_statistics

BENCH_A = -7.72  # HB constant for the benchmark model (c=1, L=0)


def benchmark_spec(mu=(0, 0, 0, 0, 0)):
    return scalar_spec(5, 5, 20, [0.1 * i for i in range(1, 6)], 2.0, mu)


def random_sample(spec, seed):
    """The engine's first replication at ``seed``."""
    return replication_sample(SimPlan(spec, (), 1, seed), 0)


def pooled_stats(sample, spec):
    """nu_hat, F and G of one sample: batch_pooled_stats on a batch of one."""
    nu, F, G = batch_pooled_stats(spec, sample.X[np.newaxis], np.array([sample.S]))
    return SimpleNamespace(nu_hat=nu[0], F=F[0], G=G[0])


# One helper per kind, each going through estimate().
def pt_estimate(sample, spec, alpha):
    return estimate(sample, spec, EstimatorConfig(kind="PT", alpha=alpha))


def js_estimate(sample, spec):
    return estimate(sample, spec, EstimatorConfig(kind="JS"))


def eb_estimate(sample, spec, a0):
    return estimate(sample, spec, EstimatorConfig(kind="EB", a0=a0))


def hb_estimate(sample, spec, a, c, L):
    return estimate(sample, spec, EstimatorConfig(kind="HB", a=a, c=c, L=L))


def heb_estimate(sample, spec, a0, b0):
    return estimate(sample, spec, EstimatorConfig(kind="HEB", a0=a0, b0=b0))


def class1_estimate(sample, spec, phi):
    return estimate(sample, spec, EstimatorConfig(kind="CLASS1", phi=phi))


def class2_estimate(sample, spec, phi, psi):
    return estimate(sample, spec, EstimatorConfig(kind="CLASS2", phi=phi, psi=psi))


def lincomb_estimate(sample, spec, d, phi):
    return estimate(sample, spec, EstimatorConfig(kind="LINCOMB", d=d, phi=phi))


def trapezoid_phi_hb(F, qa, m, panels=10_000_000):
    """Brute-force trapezoid evaluation of the L=0 shrink function."""
    num = 0.0
    den = 0.0
    edges = np.linspace(0.0, F, 11)
    for lo, hi in zip(edges[:-1], edges[1:]):
        x = np.linspace(lo, hi, panels // 10 + 1)
        w = (1.0 + x) ** -(m + 1.0)
        num += np.trapezoid(x**qa * w, x)
        den += np.trapezoid(x ** (qa - 1.0) * w, x)
    return num / den


# The benchmark model, and a model with m - qa = 0.1, where (1-z)^(m-qa-1)
# is nearly singular at z = 1.
HB_MODELS = {"benchmark": (5, 5, 20, BENCH_A, 1.0), "m_minus_qa_0.1": (1, 2, 20, 9.4, 0.5)}


class TestPhiHb:
    def test_large_f_limit(self):
        # sup phi_hb = (p(k-1) + 2a)/(n - 2(a+c)); equals 3/22 at the
        # benchmark constants by construction.
        val = phi_hb(1e6, 1.0, 5, 5, 20, BENCH_A, 1.0, 0.0)
        assert val == pytest.approx((20 + 2 * BENCH_A) / (20 - 2 * (BENCH_A + 1)), rel=1e-10)
        assert val == pytest.approx(3.0 / 22.0, rel=1e-10)

    def test_small_f_shrink_factor(self):
        factor = phi_hb(1e-6, 1.0, 5, 5, 20, BENCH_A, 1.0, 0.0) / 1e-6
        assert factor == pytest.approx(2.28 / 3.28, abs=1e-4)
        assert hb_small_f_factor(5, 5, BENCH_A) == pytest.approx(2.28 / 3.28, rel=1e-12)

    def test_matches_trapezoid_oracle_at_f_one(self):
        val = phi_hb(1.0, 1.0, 5, 5, 20, BENCH_A, 1.0, 0.0)
        oracle = trapezoid_phi_hb(1.0, 10.0 + BENCH_A, 19.0)
        assert val == pytest.approx(oracle, abs=1e-8)

    def test_zero_l_independent_of_s(self):
        f = np.array([0.3, 1.0, 7.5])
        v1 = phi_hb(f, 0.01, 5, 5, 20, BENCH_A, 1.0, 0.0)
        v2 = phi_hb(f, 100.0, 5, 5, 20, BENCH_A, 1.0, 0.0)
        np.testing.assert_array_equal(v1, v2)

    def test_positive_l_matches_mpmath_oracle(self):
        mpmath.mp.dps = 30
        p, k, n, a, c, L = 5, 5, 20, BENCH_A, 1.0, 0.8
        F, S = 1.3, 2.4
        qa = p * (k - 1) / 2.0 + a
        m = (n + p * (k - 1)) / 2.0 - c

        def outer(e):
            return mpmath.quad(
                lambda x: x**e
                * (1 + x) ** -(m + 1)
                * mpmath.gammainc(m + 1, L * S * (x + 1) / 2, mpmath.inf, regularized=True),
                [0, F],
            )

        oracle = float(outer(qa) / outer(qa - 1.0))
        assert phi_hb(F, S, p, k, n, a, c, L) == pytest.approx(oracle, rel=1e-9)

    def test_positive_l_decreasing_in_s(self):
        vals = [phi_hb(2.0, s, 5, 5, 20, BENCH_A, 1.0, 1.0) for s in (0.5, 2.0, 8.0, 32.0)]
        assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))

    def test_l_to_zero_recovers_zero_l_path(self):
        lim = phi_hb(1.0, 1.0, 5, 5, 20, BENCH_A, 1.0, 1e-12)
        assert lim == pytest.approx(phi_hb(1.0, 1.0, 5, 5, 20, BENCH_A, 1.0, 0.0), rel=1e-9)

    def test_monotone_nondecreasing_in_f(self):
        f = np.geomspace(1e-4, 1e3, 200)
        vals = phi_hb(f, 1.0, 5, 5, 20, BENCH_A, 1.0, 0.0)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_huge_f_is_finite_and_bounded(self):
        # z = F/(1+F) rounds to 1 from F ~ 1e16 on, where the ratio is at its
        # limit; values agree with the bound to rounding.
        bound = (20 + 2 * BENCH_A) / (20 - 2 * (BENCH_A + 1))
        vals = phi_hb(np.array([1e15, 1e16, 1e300]), 1.0, 5, 5, 20, BENCH_A, 1.0, 0.0)
        assert np.all(np.isfinite(vals))
        assert np.all(vals <= bound * (1.0 + 1e-12))
        assert vals[-1] == pytest.approx(bound, rel=1e-12)

    @pytest.mark.parametrize("L", [0.0, 0.5, 5.0])
    def test_infinite_f_is_the_limit(self, L):
        # F = inf gave NaN at L = 0 (z = inf/inf) and raised "negative
        # dimensions are not allowed" at L > 0.  Its value is the F -> inf
        # limit, as at F = 1e300: the bound at L = 0, and a value of S at
        # L > 0, which mpmath integrates to where the integrands vanish.
        args = (80.0, 5, 5, 20, BENCH_A, 1.0, L)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = phi_hb(np.array([2.0, np.inf]), *args)
        assert got[0] == phi_hb(2.0, *args)
        assert got[1] == phi_hb(1e300, *args)
        limit = 3.0 / 22.0 if L == 0.0 else mpmath_phi_hb([1e300], *args)[0]
        assert got[1] == pytest.approx(limit, rel=1e-12)

    def test_domain_violations(self):
        with pytest.raises(ValueError, match="p\\(k-1\\)/2"):
            phi_hb(1.0, 1.0, 5, 5, 20, -10.5, 1.0, 0.0)
        with pytest.raises(ValueError, match="n/2"):
            phi_hb(1.0, 1.0, 5, 5, 20, 9.5, 1.0, 0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            phi_hb(1.0, 1.0, 5, 5, 20, BENCH_A, 1.0, -1.0)
        with pytest.raises(ValueError, match="L must be nonnegative, got nan"):
            phi_hb(1.0, 2.0, 5, 5, 20, -7.72, 1.0, float("nan"))

    def test_small_m_minus_qa_regression(self):
        # m - qa = 0.1: the ratio of two log incomplete betas this replaced
        # was off by 2.5e-12 relative here (65.9463449335346).
        val = phi_hb(1e6, 1.0, 1, 2, 20, 9.4, 0.5, 0.0)
        assert val == pytest.approx(65.94634493369946, rel=1e-13)

    @pytest.mark.parametrize("model", ["benchmark", "m_minus_qa_0.1"])
    def test_zero_l_matches_mpmath_grid(self, model):
        p, k, n, a, c = HB_MODELS[model]
        F = np.geomspace(1e-12, 1e15, 28)
        with mpmath.workdps(40):
            qa = mpmath.mpf(p * (k - 1)) / 2 + a
            m = (n + mpmath.mpf(p * (k - 1))) / 2 - c
            want = [
                float(mpmath.betainc(qa + 1, m - qa, 0, z) / mpmath.betainc(qa, m - qa + 1, 0, z))
                for z in (mpmath.mpf(f) / (1 + mpmath.mpf(f)) for f in F)
            ]
        np.testing.assert_allclose(phi_hb(F, 1.0, p, k, n, a, c, 0.0), want, rtol=1e-12)

    @pytest.mark.parametrize("a", [0.0, "solved"])
    def test_zero_l_holds_at_the_largest_n(self, a):
        # At n = 1e8 this grid missed 1e-10 (1.5e-10 at a = 0), at 1e16 a
        # value was off by a factor of 5, and from 1e17 the fraction divided
        # by zero.
        n = estimators.HB_MAX_N
        assert n == 10**7
        if a == "solved":
            a = solve_hb_a(scalar_spec(5, 5, n, [0.1 * i for i in range(1, 6)], 2.0, [0] * 5))
        qa, m = 10.0 + a, 0.5 * (n + 20) - 1.0
        F = np.array([0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0]) * qa / m
        with mpmath.workdps(40):
            want = [
                float(mpmath.betainc(qa + 1, m - qa, 0, z) / mpmath.betainc(qa, m - qa + 1, 0, z))
                for z in (mpmath.mpf(f) / (1 + mpmath.mpf(f)) for f in F)
            ]
        np.testing.assert_allclose(phi_hb(F, 1.0, 5, 5, n, a, 1.0, 0.0), want, rtol=1e-10)

    @pytest.mark.parametrize("L", [0.0, 0.5])
    @pytest.mark.parametrize("n", [10**7 + 1, 10**16, 10**20])
    def test_past_the_largest_n_raises(self, n, L):
        with pytest.raises(ValueError, match=rf"n = {n} is above 10000000"):
            phi_hb(0.5, 1.0, 5, 5, n, 0.0, 1.0, L)

    @pytest.mark.parametrize("batch", ["mixed", "all_direct", "all_far"])
    def test_zero_l_batch_is_bit_identical_to_single_calls(self, batch):
        rng = np.random.default_rng(13)
        F = {
            "mixed": np.concatenate([rng.chisquare(20, 64) / rng.chisquare(20, 64), [1e-100, 1e-3, 1e8, 1e20]]),
            "all_direct": np.geomspace(1e-100, 0.2, 32),
            "all_far": np.geomspace(20.0, 1e20, 32),
        }[batch]
        for p, k, n, a, c in HB_MODELS.values():
            # The rows whose fraction is taken in z = F/(1+F), not in 1 - z.
            qa, m = 0.5 * p * (k - 1) + a, 0.5 * (n + p * (k - 1)) - c
            direct = F / (1.0 + F) <= (qa + 2.0) / (m + 3.0)
            if batch != "mixed":
                assert np.all(direct == (batch == "all_direct"))
            values = phi_hb(F, 1.0, p, k, n, a, c, 0.0)
            assert np.array_equal(values, [phi_hb(f, 1.0, p, k, n, a, c, 0.0) for f in F])

    @pytest.mark.parametrize("L", [0.0, 0.5])
    def test_nan_f_is_named(self, L):
        # At L = 0 a NaN F used to end in "did not converge".
        with pytest.raises(ValueError, match="F must be nonnegative and not NaN"):
            phi_hb(np.array([0.5, np.nan]), 20.0, 5, 5, 20, BENCH_A, 1.0, L)


def mpmath_phi_hb(F, S, p, k, n, a, c, L, dps=20):
    """phi_hb for L > 0 at each of the increasing values F, by mpmath: the two
    outer integrals in x, with Q(m+1, LS(1+x)/2) from mpmath.gammainc.
    [0, x_a] is integrated in u = (x/x_a)^qa, which removes the algebraic
    endpoint, and [x_a, F] in log x on panels of width 1/4, shared by all F.
    log x stops where Q has fallen below e^-60 or (1+x)^-(m-qa) has fallen
    e^-60 past the peak."""
    with mpmath.workdps(dps):
        q = mpmath.mpf(p * (k - 1)) / 2
        qa = q + a
        m = (n + mpmath.mpf(p * (k - 1))) / 2 - c
        beta = m - qa
        kappa = mpmath.mpf(L) * S / 2
        Q = lambda x: mpmath.gammainc(m + 1, kappa * (1 + x), mpmath.inf, regularized=True)
        y_cut = max(kappa, m + 1) + 60 + 12 * mpmath.sqrt(m + 1) + 2 * qa
        t_cut = min(
            mpmath.log(y_cut / kappa),
            mpmath.log((qa + 1) / beta) + 60 / beta + (m + 1) / (qa + 1),
        )
        t_a = mpmath.log(qa / (m + 1 + kappa)) - 2

        def outer(e):
            """The integral of x^(qa-1+e) (1+x)^-(m+1) Q over [0, f] for each f."""

            def left(x_a):
                def in_u(u):
                    x = x_a * u ** (1 / qa)
                    return x**e * (1 + x) ** -(m + 1) * Q(x)

                return x_a**qa / qa * mpmath.quad(in_u, mpmath.linspace(0, 1, 9))

            def in_log_x(t):
                return mpmath.exp((qa + e) * t - (m + 1) * mpmath.log1p(mpmath.exp(t))) * Q(mpmath.exp(t))

            total, t, out = left(mpmath.exp(t_a)), t_a, []
            for f in F:
                t_end = min(mpmath.log(f), t_cut)
                if t_end <= t_a:
                    out.append(left(mpmath.exp(t_end)))
                    continue
                while t + 0.25 <= t_end:
                    total += mpmath.quad(in_log_x, [t, t + 0.25])
                    t += 0.25
                out.append(total + (mpmath.quad(in_log_x, [t, t_end]) if t_end > t else 0))
            return out

        return [float(num / den) for num, den in zip(outer(1), outer(0))]


class TestPhiHbPositiveL:
    def test_large_f_regression(self):
        # The adaptive quadrature this replaced returned 4.274 here, above
        # the bound 3/22.
        val = phi_hb(1000.0, 600.0, 5, 5, 20, BENCH_A, 1.0, 0.5)
        [oracle] = mpmath_phi_hb([1000.0], 600.0, 5, 5, 20, BENCH_A, 1.0, 0.5)
        assert val == pytest.approx(oracle, rel=1e-10)
        assert val == pytest.approx(0.0150878299, rel=1e-9)

    def test_large_n(self):
        # At n = 8000 the incomplete gamma's shape m + 1 = 4010 is past
        # 3973, where its series needs more than 500 terms at the branch
        # edge; the nodes here lie off the edge.  The values are
        # mpmath_phi_hb([0.004, 1.5], 32000.0, 5, 5, 8000, BENCH_A, 1.0, 0.1),
        # pinned because it takes about 5 s.
        got = phi_hb(np.array([0.004, 1.5]), 32000.0, 5, 5, 8000, BENCH_A, 1.0, 0.1)
        np.testing.assert_allclose(got, [0.0005690304410698774, 0.0005690440060698028], rtol=1e-12)

    @pytest.mark.parametrize(
        "L, F, S, want",
        [
            (0.15, 0.00228, 53368.0, 0.0003691453839452151),
            (0.2, 0.003204, 40041.8, 0.00036978271844191385),
            (0.25, 0.001524, 32052.7, 0.0003607887432795901),
        ],
    )
    def test_large_n_where_kappa_nears_m_plus_one(self, L, F, S, want):
        # a = -8.5 is about the solved a of the n = 8000 table1-like model,
        # and kappa = LS/2 lies near m + 1 = 4010, where the series of
        # Q(m+1, .) needs more than 500 terms: these rows raised "incomplete
        # gamma series did not converge".  The values are
        # mpmath_phi_hb([F], S, 5, 5, 8000, -8.5, 1.0, L), pinned.
        assert phi_hb(F, S, 5, 5, 8000, -8.5, 1.0, L) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize(
        "a, want",
        [
            (0.0, [1.8034864790958917556e-7, 1.53822782403098309e-6, 1.9992843726637972644e-6,
                   1.803335186700513606e-7, 1.5336356268654812907e-6, 1.9801550178719863244e-6]),
            # The solved a of the table1 model at this n.
            (-8.499998050000976, [1.7689336900162293243e-8, 1.4793055787220183558e-7,
                                  2.9989286083670917669e-7, 1.7686317411079245533e-8,
                                  1.4761817489216270581e-7, 2.9702363781062024322e-7]),
        ],
    )
    def test_holds_at_the_largest_n(self, a, want):
        # kappa = LS/2 at m and at 1.01 m, and F = t qa/m for t = 0.1, 1 and
        # 20.  The values are mpmath's two integrals in u of the phi_hb
        # docstring at 40 digits, with mpmath.gammainc, pinned because they
        # take about a second each.
        n = estimators.HB_MAX_N
        qa, m = 10.0 + a, 0.5 * (n + 20) - 1.0
        F = np.tile(np.array([0.1, 1.0, 20.0]) * qa / m, 2)
        S = np.repeat([4.0 * m, 4.0 * 1.01 * m], 3)
        np.testing.assert_allclose(phi_hb(F, S, 5, 5, n, a, 1.0, 0.5), want, rtol=1e-12)

    @pytest.mark.parametrize("L", [0.5, 5.0])
    def test_gamma_evaluations_per_value_do_not_grow_with_n(self, monkeypatch, L):
        # The rule in x took 147 to 15,461 incomplete gammas per value over
        # these models, more as n grew.
        sizes = []
        log_lower_gamma = estimators._log_lower_gamma

        def counting(s, log_y):
            sizes.append(log_y.size)
            return log_lower_gamma(s, log_y)

        monkeypatch.setattr(estimators, "_log_lower_gamma", counting)
        per_value = []
        for n, a in ((20, BENCH_A), (200, 0.0), (2000, 0.0), (8000, 0.0)):
            rng = np.random.default_rng(n)
            S = 4.0 * rng.chisquare(n, 64)
            F = 4.0 * rng.chisquare(20, 64) / S
            sizes.clear()
            phi_hb(F, S, 5, 5, n, a, 1.0, L)
            per_value.append(sum(sizes) / F.size)
        assert max(per_value) <= 200
        assert np.all(np.diff(per_value) <= 0)

    @pytest.mark.parametrize("model", sorted(HB_MODELS))
    @pytest.mark.parametrize("L", [0.01, 0.5, 5.0])
    def test_matches_mpmath_grid(self, model, L):
        args = HB_MODELS[model]
        F = np.array([1e-4, 1e-1, 10.0, 1e3, 1e6])
        for S in (2.0, 200.0):
            got = phi_hb(F, S, *args, L)
            want = mpmath_phi_hb(F, S, *args, L)
            np.testing.assert_allclose(got, want, rtol=1e-10)

    @pytest.mark.parametrize("model", sorted(HB_MODELS))
    def test_tiny_s_recovers_zero_l(self, model):
        # Q(m+1, LS(1+x)/2) = 1 to rounding on [0, F] once LS F is tiny, so
        # phi_hb is the L = 0 ratio of incomplete beta functions.
        args = HB_MODELS[model]
        F = np.array([1e-3, 1.0, 1e3, 1e6])
        want = phi_hb(F, 1.0, *args, 0.0)
        np.testing.assert_allclose(phi_hb(F, 1e-16, *args, 0.5), want, rtol=1e-12)

    @pytest.mark.parametrize("model", sorted(HB_MODELS))
    def test_zero_kappa_is_the_zero_l_value(self, model):
        # kappa = LS/2 rounds to 0 at L = 5e-324, so Q(m+1, kappa (1+x)) = 1:
        # the L = 0 ratio, with no gamma taken at 0 (where its log would
        # divide by zero).
        args = HB_MODELS[model]
        F = np.array([1e-3, 1.0, 1e3, 1e6])
        S = np.array([1e-3, 1.0, 1e3, 1e300])
        assert np.all(0.5 * 5e-324 * S == 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = phi_hb(F, S, *args, 5e-324)
            want = phi_hb(F, S, *args, 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("L", [0.5, 5.0])
    def test_large_kappa(self, L):
        # n = 2000, so the gamma's shape is m + 1 = 1010.  kappa = LS/2 lies
        # on the series side of its branch edge at S = 200 and on the
        # continued-fraction side at S = 8000 (kappa up to 20,000), where
        # Q(m+1, kappa (1+x)) / Q(m+1, kappa) is taken through the
        # fractions' logs.  The values are
        # mpmath_phi_hb([0.004, 0.3, 1.5], S, 5, 5, 2000, 0.0, 1.0, L),
        # pinned because each S takes 1-2 s.
        pinned = {
            (0.5, 200.0): [0.0034907268482509113, 0.010010010010010017, 0.010010010010010017],
            (0.5, 8000.0): [0.00324797062425518, 0.004995024777800308, 0.004995024777800308],
            (5.0, 200.0): [0.0034907268483409105, 0.010010010010010027, 0.010010010010010027],
            (5.0, 8000.0): [0.0004999736885104107, 0.0004999736885104107, 0.0004999736885104107],
        }
        F = np.array([0.004, 0.3, 1.5])
        for S in (200.0, 8000.0):
            got = phi_hb(F, S, 5, 5, 2000, 0.0, 1.0, L)
            np.testing.assert_allclose(got, pinned[L, S], rtol=1e-10)

    def test_huge_f_and_tiny_s_are_finite_and_bounded(self):
        # F ~ 1/S where z = F/(1+F) rounds to 1 and Q cuts off far below it.
        bound = (20 + 2 * BENCH_A) / (20 - 2 * (BENCH_A + 1))
        for S in (1e-30, 1e-16, 1e-8):
            vals = phi_hb(np.array([1e8, 1e16, 1e30, 1e300]), S, 5, 5, 20, BENCH_A, 1.0, 0.5)
            assert np.all(np.isfinite(vals)) and np.all(vals <= bound * (1.0 + 1e-12))
            assert np.all(np.diff(vals) >= -1e-12 * bound)

    def test_batch_rows_are_independent(self):
        rng = np.random.default_rng(11)
        F = rng.chisquare(20, 16) / rng.chisquare(20, 16) * np.geomspace(1e-3, 1e3, 16)
        S = 4.0 * rng.chisquare(20, 16)
        batch = phi_hb(F, S, 5, 5, 20, BENCH_A, 1.0, 0.5)
        single = [phi_hb(f, s, 5, 5, 20, BENCH_A, 1.0, 0.5) for f, s in zip(F, S)]
        # Bit for bit: every series and fraction under the quadrature is cut
        # at one depth per shape, whatever the batch.
        assert np.array_equal(batch, single)

    @pytest.mark.parametrize("L", [0.0, 0.5])
    def test_empty_batch(self, L):
        assert phi_hb(np.array([]), np.array([]), 5, 5, 20, BENCH_A, 1.0, L).shape == (0,)

    def test_missed_tolerance_raises(self, monkeypatch):
        # A 2-point rule beside the 24-point one misses the module's own
        # tolerance by orders of magnitude, whatever the last bits of exp
        # and log.
        monkeypatch.setattr(estimators, "_HB_ORDERS", (2, 24))
        with pytest.raises(QuadratureError, match="F=.*S="):
            phi_hb(np.array([0.5, 2.0]), 20.0, 5, 5, 20, BENCH_A, 1.0, 0.5)

    def test_overflowing_kappa_is_the_limit(self):
        # kappa = LS/2 overflows at L = 1e308 and S = 80: those rows take the
        # kappa -> inf limit, 0.  They overflowed in a multiply, and without
        # warnings as errors raised "repeats may not contain negative
        # values".  At S = 1 kappa = 5e307 is finite and phi is about qa/kappa.
        F = np.array([0.0, 1e-200, 0.5, 1e6, np.inf, 2.0])
        S = np.array([80.0, 80.0, 80.0, 80.0, 80.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = phi_hb(F, S, 5, 5, 20, BENCH_A, 1.0, 1e308)
        assert np.array_equal(got[:5], np.zeros(5))
        assert got[5] == pytest.approx((10.0 + BENCH_A) / 5e307, rel=1e-3)

    @pytest.mark.parametrize("F", [1e-200, 0.5])
    def test_nan_s_is_named(self, F):
        # A NaN S used to warn in a cast and raise "negative dimensions are
        # not allowed", whether or not F is below the small-F cutoff.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="S must be positive and not NaN when L > 0"):
                phi_hb(F, np.nan, 5, 5, 20, BENCH_A, 1.0, 0.5)


class TestPtEstimate:
    def test_threshold_value(self):
        # (p(k-1)/n) F_{20,20,0.05} = 1.0 * 2.1242 at the benchmark dims.
        assert pt_threshold(5, 5, 20, 0.05) == pytest.approx(2.1242, abs=2e-4)

    @pytest.mark.parametrize(
        "p, k, want", [(5, 5, "0x1.0fe451698f211p+1"), (20, 6, "0x1.310c781353612p+3")]
    )
    def test_threshold_bits_are_pinned(self, p, k, want):
        # The table1 and dense models' thresholds; any change to the
        # F quantile's bisection or incomplete beta that moves a bit shows here.
        assert pt_threshold(p, k, 20, 0.05).hex() == want

    def test_all_equal_returns_pooled(self):
        spec = benchmark_spec()
        x = np.tile(np.linspace(1, 5, 5), (5, 1))
        sample = Sample(X=x, S=3.0)
        np.testing.assert_allclose(pt_estimate(sample, spec, 0.05), x[0], rtol=1e-12)

    def test_huge_dispersion_returns_x1(self):
        spec = benchmark_spec()
        x = np.zeros((5, 5))
        x[0] = 1e6
        sample = Sample(X=x, S=1e-6)
        np.testing.assert_array_equal(pt_estimate(sample, spec, 0.05), x[0])


class TestJsEstimate:
    def test_benchmark_coefficient(self):
        spec = benchmark_spec()
        sample = random_sample(spec, 0)
        x1 = sample.X[0]
        norm2 = float(x1 @ np.linalg.solve(spec.V[0], x1))
        expected = x1 * (1.0 - (3.0 / 22.0) * sample.S / norm2)
        np.testing.assert_allclose(js_estimate(sample, spec), expected, rtol=1e-12)

    def test_s_to_zero_returns_x1(self):
        spec = benchmark_spec()
        sample = random_sample(spec, 1)
        tiny = Sample(X=sample.X, S=1e-300)
        np.testing.assert_allclose(js_estimate(tiny, spec), sample.X[0], rtol=1e-12)

    def test_p_two_boundary_gives_x1(self):
        spec = scalar_spec(2, 3, 10, [1.0, 1.0, 1.0], 1.0, [0.0, 0.0, 0.0])
        sample = random_sample(spec, 2)
        np.testing.assert_allclose(js_estimate(sample, spec), sample.X[0], rtol=1e-12)

    def test_zero_x1_returns_zero(self):
        spec = benchmark_spec()
        x = np.zeros((5, 5))
        x[1:] = 1.0
        sample = Sample(X=x, S=2.0)
        np.testing.assert_array_equal(js_estimate(sample, spec), np.zeros(5))


class TestClassEstimates:
    def test_zero_phi_returns_x1(self):
        spec = benchmark_spec()
        sample = random_sample(spec, 3)
        out = class1_estimate(sample, spec, lambda f, s: np.zeros_like(np.asarray(f)))
        np.testing.assert_allclose(out, sample.X[0], rtol=1e-12)

    def test_identity_phi_returns_pooled(self):
        spec = benchmark_spec()
        sample = random_sample(spec, 4)
        st = pooled_stats(sample, spec)
        out = class1_estimate(sample, spec, lambda f, s: f)
        np.testing.assert_allclose(out, st.nu_hat, rtol=1e-10)

    def test_clipped_phi_midpoint(self):
        spec = benchmark_spec()
        sample = random_sample(spec, 5)
        st = pooled_stats(sample, spec)
        a0 = st.F / 2.0
        out = class1_estimate(sample, spec, lambda f, s: np.minimum(a0, f))
        expected = sample.X[0] - 0.5 * (sample.X[0] - st.nu_hat)
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_class2_matches_heb_with_clipped_handles(self):
        spec = benchmark_spec()
        sample = random_sample(spec, 6)
        a0, b0 = 3.0 / 44.0, 3.0 / 44.0
        via_class2 = class2_estimate(
            sample,
            spec,
            lambda f, s: np.minimum(a0, f),
            lambda g, s: np.minimum(b0, g),
        )
        np.testing.assert_allclose(via_class2, heb_estimate(sample, spec, a0, b0), rtol=1e-12)


class TestEbEstimate:
    def test_full_shrink_when_f_small(self):
        spec = benchmark_spec()
        sample = random_sample(spec, 7)
        st = pooled_stats(sample, spec)
        out = eb_estimate(sample, spec, a0=st.F * 2.0)
        np.testing.assert_allclose(out, st.nu_hat, rtol=1e-12)

    def test_partial_shrink_formula(self):
        spec = benchmark_spec()
        sample = random_sample(spec, 8)
        st = pooled_stats(sample, spec)
        a0 = st.F / 4.0
        out = eb_estimate(sample, spec, a0)
        expected = sample.X[0] - 0.25 * (sample.X[0] - st.nu_hat)
        np.testing.assert_allclose(out, expected, rtol=1e-12)


class TestHbEstimate:
    def test_lies_between_pooled_and_x1(self):
        spec = benchmark_spec(mu=(1, 0, -1, 2, 0))
        for seed in range(20):
            sample = random_sample(spec, seed)
            st = pooled_stats(sample, spec)
            out = hb_estimate(sample, spec, BENCH_A, 1.0, 0.0)
            factor = np.divide(
                sample.X[0] - out,
                sample.X[0] - st.nu_hat,
                out=np.zeros(5),
                where=np.abs(sample.X[0] - st.nu_hat) > 1e-12,
            )
            live = np.abs(sample.X[0] - st.nu_hat) > 1e-12
            assert np.all(factor[live] >= -1e-12)
            assert np.all(factor[live] <= 1.0 + 1e-12)

    def test_f_zero_uses_small_f_limit(self):
        spec = benchmark_spec()
        x = np.tile(np.arange(5.0), (5, 1))
        sample = Sample(X=x, S=2.0)
        out = hb_estimate(sample, spec, BENCH_A, 1.0, 0.0)
        np.testing.assert_allclose(out, x[0], rtol=1e-12)

    def test_matches_class1_with_phi_handle(self):
        spec = benchmark_spec()
        sample = random_sample(spec, 9)
        direct = hb_estimate(sample, spec, BENCH_A, 1.0, 0.0)
        via_class1 = class1_estimate(
            sample, spec, lambda f, s: phi_hb(f, s, 5, 5, 20, BENCH_A, 1.0, 0.0)
        )
        np.testing.assert_allclose(direct, via_class1, rtol=1e-12)


class TestHebEstimate:
    def test_zero_observations(self):
        spec = benchmark_spec()
        sample = Sample(X=np.zeros((5, 5)), S=2.0)
        np.testing.assert_array_equal(
            heb_estimate(sample, spec, 3 / 44, 3 / 44), np.zeros(5)
        )

    def test_b0_to_zero_recovers_eb(self):
        spec = benchmark_spec()
        sample = random_sample(spec, 10)
        a0 = 3.0 / 22.0
        heb = heb_estimate(sample, spec, a0, 1e-14)
        np.testing.assert_allclose(heb, eb_estimate(sample, spec, a0), atol=1e-10)

    def test_double_shrink_formula(self):
        spec = benchmark_spec()
        sample = random_sample(spec, 11)
        st = pooled_stats(sample, spec)
        a0, b0 = 3.0 / 44.0, 3.0 / 44.0
        out = heb_estimate(sample, spec, a0, b0)
        expected = (
            sample.X[0]
            - min(a0 / st.F, 1.0) * (sample.X[0] - st.nu_hat)
            - min(b0 / st.G, 1.0) * st.nu_hat
        )
        np.testing.assert_allclose(out, expected, rtol=1e-12)


class TestLincombEstimate:
    def test_first_basis_vector_reduces_to_class1(self):
        spec = benchmark_spec()
        sample = random_sample(spec, 17)
        phi = lambda f, s: np.minimum(0.1, f)
        d = [1.0, 0.0, 0.0, 0.0, 0.0]
        np.testing.assert_allclose(
            lincomb_estimate(sample, spec, d, phi),
            class1_estimate(sample, spec, phi),
            rtol=1e-12,
        )

    def test_zero_phi_returns_weighted_sum(self):
        spec = benchmark_spec()
        sample = random_sample(spec, 18)
        d = np.array([0.3, -0.1, 0.5, 0.2, 0.1])
        out = lincomb_estimate(sample, spec, d, lambda f, s: np.zeros_like(np.asarray(f)))
        np.testing.assert_allclose(out, d @ sample.X, rtol=1e-12)

    def test_equal_weights_linearity(self):
        spec = benchmark_spec()
        sample = random_sample(spec, 19)
        st = pooled_stats(sample, spec)
        phi = lambda f, s: np.minimum(0.2, f)
        d = np.full(5, 1.0 / 5.0)
        out = lincomb_estimate(sample, spec, d, phi)
        factor = float(phi(st.F, sample.S)) / st.F
        xbar = sample.X.mean(axis=0)
        np.testing.assert_allclose(out, xbar - factor * (xbar - st.nu_hat), rtol=1e-12)


def capped(t, s):
    """The shrink function min(0.2, t) of the degenerate-statistics tests."""
    return np.minimum(0.2, t)


class TestDegenerateStatistics:
    """Each kind's rule at F = 0 with X_1 off nu_hat, at G = 0 (nu_hat = 0)
    and at F = inf, bit for bit against its closed form with the factor's
    value there, under warnings as errors.  JS at ||X_1|| = 0 is
    ``TestJsEstimate.test_zero_x1_returns_zero``."""

    spec = benchmark_spec()
    x = np.array([0.3, -1.2, 0.8, 0.1, 2.0])
    S = np.array([2.0])
    D = (0.3, -0.1, 0.5, 0.2, 0.1)
    CONFIGS = {
        "PT": EstimatorConfig(kind="PT", alpha=0.05),
        "EB": EstimatorConfig(kind="EB", a0=0.25),
        "HB": EstimatorConfig(kind="HB", a=BENCH_A, c=1.0),
        "HB_L": EstimatorConfig(kind="HB", a=BENCH_A, c=1.0, L=0.5),
        "HEB": EstimatorConfig(kind="HEB", a0=0.25, b0=0.5),
        "CLASS1": EstimatorConfig(kind="CLASS1", phi=capped),
        "CLASS2": EstimatorConfig(kind="CLASS2", phi=capped, psi=capped),
        "LINCOMB": EstimatorConfig(kind="LINCOMB", d=D, phi=capped),
    }

    def rule(self, kind, nu, F):
        cfg = self.CONFIGS[kind]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return estimators.rule_estimates(
                cfg, self.spec, self.x[None], self.S, nu[None], np.array([F])
            )[0]

    def closed_form(self, kind, nu, f_factor, G):
        """(1 - f_factor) x + v nu_hat with v = f_factor sum_i d_i for
        LINCOMB, f_factor less the G factor of the kind at G for HEB and
        CLASS2 (min(b0/G, 1) or psi(G, S)/G, and 1 or 0 at G = 0), and
        f_factor for the rest."""
        v = sum(self.D) * f_factor if kind == "LINCOMB" else f_factor
        if kind == "HEB":
            v = f_factor - (min(0.5 / G, 1.0) if G > 0 else 1.0)
        if kind == "CLASS2":
            v = f_factor - (capped(G, 2.0) / G if G > 0 else 0.0)
        return (1.0 - f_factor) * self.x + v * nu

    # The factor of F at F = 0 and at F = 1: 1 and min(a0, 1) for EB and
    # HEB, the small-F limit and phi_hb(1, S) for HB, 0 and phi(1, S) for
    # the shrink functions.
    F_ZERO = {"EB": 1.0, "HEB": 1.0, "HB": hb_small_f_factor(5, 5, BENCH_A),
              "HB_L": hb_small_f_factor(5, 5, BENCH_A),
              "CLASS1": 0.0, "CLASS2": 0.0, "LINCOMB": 0.0}
    F_ONE = {"EB": 0.25, "HEB": 0.25, "HB": phi_hb(1.0, 2.0, 5, 5, 20, BENCH_A, 1.0),
             "HB_L": phi_hb(1.0, 2.0, 5, 5, 20, BENCH_A, 1.0, 0.5),
             "CLASS1": 0.2, "CLASS2": 0.2, "LINCOMB": 0.2}

    @pytest.mark.parametrize("kind", sorted(F_ZERO))
    def test_f_zero(self, kind):
        nu = np.array([0.5, 0.25, -0.75, 1.0, 0.125])
        G = float(size_statistics(self.spec, self.x[None], nu[None], self.S)[0][0])
        want = self.closed_form(kind, nu, self.F_ZERO[kind], G)
        assert np.array_equal(self.rule(kind, nu, 0.0), want)

    @pytest.mark.parametrize("kind", sorted(F_ONE))
    def test_g_zero(self, kind):
        nu = np.zeros(5)
        want = self.closed_form(kind, nu, self.F_ONE[kind], 0.0)
        assert np.array_equal(self.rule(kind, nu, 1.0), want)

    @pytest.mark.parametrize("kind", sorted(CONFIGS))
    def test_f_inf(self, kind):
        # Every factor of F is 0 at F = inf: phi(inf, S)/inf, min(a0, inf)/inf.
        nu = np.array([0.5, 0.25, -0.75, 1.0, 0.125])
        G = float(size_statistics(self.spec, self.x[None], nu[None], self.S)[0][0])
        assert np.array_equal(self.rule(kind, nu, np.inf), self.closed_form(kind, nu, 0.0, G))

    @pytest.mark.parametrize("kind", sorted(CONFIGS))
    def test_mixed_batch_matches_single_rows(self, kind):
        # Zero, positive and NaN statistics in one batch: each row's (u, v)
        # has the bits of the rule run on that row alone.
        cfg = self.CONFIGS[kind]
        S = np.array([2.0, 1.0, 3.0, 0.5])
        stats = (np.array([0.0, 1.5, np.nan, 0.25]), np.array([2.0, 0.0, 0.5, np.nan]),
                 np.array([np.nan, 3.0, 0.0, 1.0]))
        rule = lambda *args: ESTIMATORS[cfg.kind].rule(cfg, self.spec, *args)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = rule(S, *stats)
            rows = [rule(S[i:i + 1], *(stat[i:i + 1] for stat in stats)) for i in range(len(S))]
        for got, want in zip(batch, zip(*rows)):
            assert got.tobytes() == np.concatenate(want).tobytes()


class TestSharedSumsContract:
    """The engine hands every rule of a plan the G and J of its sample at
    origin 0, and shares an equivariant kind's sums over plans whose
    centred means are equal: so no equivariant rule may read G or J, and a
    rule that reads them must estimate mu_1 and run at origin 0."""

    spec = benchmark_spec()
    CONFIGS = {
        "PT": EstimatorConfig(kind="PT", alpha=0.05),
        "JS": EstimatorConfig(kind="JS"),
        "EB": EstimatorConfig(kind="EB", a0=0.25),
        "HB": EstimatorConfig(kind="HB", a=BENCH_A, c=1.0, L=0.5),
        "HEB": EstimatorConfig(kind="HEB", a0=0.25, b0=0.5),
        "CLASS1": EstimatorConfig(kind="CLASS1", phi=capped),
        "CLASS2": EstimatorConfig(kind="CLASS2", phi=capped, psi=capped),
        "LINCOMB": EstimatorConfig(kind="LINCOMB", d=(0.3, -0.1, 0.5, 0.2, 0.1), phi=capped),
    }
    S = np.array([2.0, 1.0, 3.0, 0.5, 4.0])
    F = np.array([0.05, 0.4, 1.5, 3.0, 20.0])
    SIZES = [(np.full(5, g), np.full(5, j)) for g, j in ((0.1, 0.1), (0.3, 5.0), (40.0, 0.2))]

    def reads_sizes(self, kind):
        cfg = self.CONFIGS[kind]
        rule = lambda G, J: ESTIMATORS[kind].rule(cfg, self.spec, self.S, self.F, G, J)
        first = rule(*self.SIZES[0])
        return any(
            not all(np.array_equal(a, b) for a, b in zip(first, rule(*sizes)))
            for sizes in self.SIZES[1:]
        )

    def test_every_kind_is_covered(self):
        assert set(self.CONFIGS) == set(ESTIMATORS)

    @pytest.mark.parametrize("kind", sorted(k for k, e in ESTIMATORS.items() if e.equivariant))
    def test_equivariant_rules_ignore_g_and_j(self, kind):
        assert not self.reads_sizes(kind)

    @pytest.mark.parametrize("kind", sorted(ESTIMATORS))
    def test_rules_reading_g_or_j_estimate_mu_1(self, kind):
        entry = ESTIMATORS[kind]
        if self.reads_sizes(kind):
            assert not entry.equivariant
            e_1 = np.eye(1, self.spec.k)[0]
            assert np.array_equal(entry.estimand(self.CONFIGS[kind], self.spec), e_1)

    def test_readers_are_the_double_shrinkage_kinds_and_js(self):
        assert {kind for kind in ESTIMATORS if self.reads_sizes(kind)} == {"JS", "HEB", "CLASS2"}


class TestTranslationEquivariance:
    def test_deviation_based_estimators_shift_with_the_data(self):
        # PT, EB and HB depend on the data only through deviations, so
        # adding a common vector to every X_i adds it to the output.
        spec = benchmark_spec()
        sample = random_sample(spec, 30)
        shift = np.array([0.7, -1.2, 0.4, 2.0, -0.3])
        shifted = Sample(X=sample.X + shift, S=sample.S)
        np.testing.assert_allclose(
            pt_estimate(shifted, spec, 0.05),
            pt_estimate(sample, spec, 0.05) + shift,
            rtol=1e-10,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            eb_estimate(shifted, spec, 3 / 22),
            eb_estimate(sample, spec, 3 / 22) + shift,
            rtol=1e-10,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            hb_estimate(shifted, spec, BENCH_A, 1.0, 0.0),
            hb_estimate(sample, spec, BENCH_A, 1.0, 0.0) + shift,
            rtol=1e-9,
            atol=1e-10,
        )

    def test_zero_shrinking_estimators_are_not_equivariant(self):
        spec = benchmark_spec()
        sample = random_sample(spec, 31)
        shift = np.full(5, 2.5)
        shifted = Sample(X=sample.X + shift, S=sample.S)
        js_diff = js_estimate(shifted, spec) - js_estimate(sample, spec)
        heb_diff = heb_estimate(shifted, spec, 3 / 44, 3 / 44) - heb_estimate(
            sample, spec, 3 / 44, 3 / 44
        )
        assert not np.allclose(js_diff, shift, atol=1e-6)
        assert not np.allclose(heb_diff, shift, atol=1e-6)


class TestEstimatorConfig:
    def test_dispatch_matches_direct_calls(self):
        # estimate() against each kind's formula written out with solves.
        spec = benchmark_spec()
        sample = random_sample(spec, 20)
        st = pooled_stats(sample, spec)
        x1, nu, F, G, S = sample.X[0], st.nu_hat, st.F, st.G, sample.S
        norm2 = float(x1 @ np.linalg.solve(spec.V[0], x1))
        hb = phi_hb(F, S, 5, 5, 20, BENCH_A, 1.0, 0.0) / F
        heb = x1 - min(3 / 44 / F, 1.0) * (x1 - nu) - min(3 / 44 / G, 1.0) * nu
        pt = x1 if F > pt_threshold(5, 5, 20, 0.05) else nu
        cases = [
            (EstimatorConfig(kind="PT", alpha=0.05), pt),
            (EstimatorConfig(kind="JS"), x1 - (3.0 / 22.0) * S / norm2 * x1),
            (EstimatorConfig(kind="EB", a0=3 / 22), x1 - min(3 / 22 / F, 1.0) * (x1 - nu)),
            (EstimatorConfig(kind="HB", a=BENCH_A, c=1.0, L=0.0), x1 - hb * (x1 - nu)),
            (EstimatorConfig(kind="HEB", a0=3 / 44, b0=3 / 44), heb),
        ]
        for cfg, expected in cases:
            np.testing.assert_allclose(estimate(sample, spec, cfg), expected, rtol=1e-12)

    def test_validation_messages(self):
        spec = benchmark_spec()
        assert EstimatorConfig(kind="PT", alpha=1.5).validate(spec)
        assert EstimatorConfig(kind="EB").validate(spec)
        assert EstimatorConfig(kind="HEB", a0=0.1).validate(spec)
        assert EstimatorConfig(kind="HB", a=-10.5, c=1.0).validate(spec)
        assert EstimatorConfig(kind="LINCOMB", d=(1.0, 0.0)).validate(spec)
        assert not EstimatorConfig(kind="JS").validate(spec)
        assert EstimatorConfig(kind="nonsense").validate(spec)

    @pytest.mark.parametrize("label", [5, "", ["a"]], ids=["int", "empty", "list"])
    def test_label_must_be_a_non_empty_string(self, label):
        spec = benchmark_spec()
        assert EstimatorConfig(kind="EB", a0=0.1, label=label).validate(spec) == [
            f"label: must be a non-empty string, got {label!r}"
        ]
        assert not EstimatorConfig(kind="EB", a0=0.1, label="eb1").validate(spec)

    def test_dispatch_rejects_invalid(self):
        spec = benchmark_spec()
        sample = random_sample(spec, 21)
        with pytest.raises(ValueError):
            estimate(sample, spec, EstimatorConfig(kind="EB"))

    @pytest.mark.parametrize(
        "cfg",
        [EstimatorConfig(kind="EB", a0=0.1), EstimatorConfig(kind="PT", alpha=0.05)],
        ids=["EB", "PT"],
    )
    def test_dispatch_rejects_an_invalid_model(self, cfg):
        # With k = 1, EB returned a value and PT raised f_quantile's
        # degrees-of-freedom error instead of naming k.
        spec = scalar_spec(5, 1, 20, [0.1], 2.0, [0.0])
        sample = Sample(X=np.ones((1, 5)), S=1.0)
        message = "k: at least two populations are required, got 1"
        with pytest.raises(ValueError, match=f"^{message}$"):
            estimate(sample, spec, cfg)

    @pytest.mark.parametrize("shape", [(4, 5), (5, 4), (25,)])
    def test_dispatch_names_a_wrong_shaped_sample(self, shape):
        # A (4, 5) sample raised "cannot reshape array of size 125 into
        # shape (20,5)" from inside the pooled statistics.
        spec = scalar_spec(5, 5, 20, [0.1 * i for i in range(1, 6)], 4.0, [0.0] * 5)
        cfg = estimators.preset_config("EB", spec)
        message = rf"^X: expected shape \(5, 5\), got \({shape[0]},( {shape[-1]})?\)$"
        with pytest.raises(ValueError, match=message):
            estimate(Sample(X=np.zeros(shape), S=1.0), spec, cfg)

    @pytest.mark.parametrize("strict", [False, True], ids=["default", "warnings_as_errors"])
    @pytest.mark.parametrize("kind", ["EB", "PT"])
    def test_overflowing_f_is_named(self, kind, strict):
        # The console smoke rows of ``estimate`` with S = 5e-324: F overflows.
        # estimate() returned X_1 after two RuntimeWarnings, and under
        # warnings as errors raised a bare "overflow encountered in divide".
        spec = scalar_spec(5, 5, 20, [0.1 * i for i in range(1, 6)], 4.0, [0.0] * 5)
        rows = [
            [0.1, 0.2, 0.3, 0.4, 0.5],
            [-0.3, 0.1, 0.7, 0.2, 0.0],
            [1.1, 0.9, -0.4, 0.3, 0.2],
            [0.5, 0.5, 0.5, -1.0, 0.8],
            [0.0, -0.2, 0.6, 1.4, 0.3],
        ]
        cfg = estimators.preset_config(kind, spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error" if strict else "default")
            with pytest.raises(RuntimeError, match=r"^F is not finite: \[inf\]$"):
                estimate(Sample(X=np.array(rows), S=5e-324), spec, cfg)

    @pytest.mark.parametrize("kind", ["EB", "PT", "JS"])
    def test_overflowing_g_is_not_read(self, kind):
        # Means of 1e160 overflow G but not nu_hat or F.  These rules never
        # read G, yet estimate() raised "G is not finite: [inf]".
        spec = scalar_spec(5, 5, 20, [0.1 * i for i in range(1, 6)], 4.0, [0.0] * 5)
        X = np.full((5, 5), 1e160)
        X[1, 0] = 1e160 + 1e150
        cfg = estimators.preset_config(kind, spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = estimate(Sample(X=X, S=1.0), spec, cfg)
        assert np.all(np.isfinite(value))

    def test_accepted_pt_config_computes_its_threshold(self):
        spec = benchmark_spec()
        pt_threshold.cache_clear()
        assert EstimatorConfig(kind="PT", alpha=0.07).validate(spec) == []
        assert pt_threshold.cache_info().currsize == 1

    def test_accepted_hb_config_computes_its_quadrature_rules(self):
        spec = benchmark_spec()
        numerics.gauss_legendre.cache_clear()
        assert EstimatorConfig(kind="HB", a=BENCH_A, c=1.0, L=0.5).validate(spec) == []
        # The Gauss-Legendre rules at both orders of _HB_ORDERS.
        assert numerics.gauss_legendre.cache_info().currsize == 2

    def test_kind_check_runs_only_after_the_field_checks_pass(self):
        # a + c = 10.5 is outside the HB domain (n/2 = 10), but the field
        # error on L is the only one listed.
        cfg = EstimatorConfig(kind="HB", a=9.5, c=1.0, L=-1.0)
        assert cfg.validate(benchmark_spec()) == ["L: must be nonnegative, got -1.0"]
