"""Numerical kernel tests: every routine is checked against an independent
brute-force oracle (dense eigensolvers, high-resolution Simpson/trapezoid
quadrature, mpmath, scipy) rather than against itself."""

import hashlib
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from poolshrink import numerics
from poolshrink.estimators import _HB_ORDERS
from poolshrink.minimax import (
    lincomb_shrinkage_report,
    single_shrinkage_report,
    solve_hb_a_from_ratio,
)
from poolshrink.model import ModelSpec, scalar_spec
from poolshrink.numerics import (
    chmax_product,
    f_quantile,
    gauss_legendre,
    reg_inc_beta,
    symmetrize,
    validate_spd,
)


def random_spd(rng, dim, scale=1.0):
    m = rng.standard_normal((dim, dim))
    return scale * (m @ m.T + dim * np.eye(dim))


def spec_with(V, Q):
    k, p = len(V), len(Q)
    return ModelSpec(p=p, k=k, n=10, V=tuple(V), Q=Q, sigma2=1.0, mu=tuple(np.zeros(p) for _ in V))


def simpson(f, lo, hi, panels):
    """Composite Simpson oracle (panels must be even)."""
    x = np.linspace(lo, hi, panels + 1)
    y = f(x)
    h = (hi - lo) / panels
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


class TestSpdHelpers:
    def test_symmetrize_rejects_asymmetry(self):
        m = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            symmetrize(m)

    def test_validate_spd_rejects_indefinite(self):
        m = np.diag([1.0, -0.5])
        with pytest.raises(ValueError, match="not positive definite"):
            validate_spd(m)

    def test_validate_spd_accepts_tiny_asymmetry(self):
        m = np.eye(3)
        m[0, 1] = 1e-14
        out = validate_spd(m)
        np.testing.assert_allclose(out, out.T)

    @pytest.mark.parametrize("scale", [1e-13, 1e-200, 1.0, 1e200])
    def test_symmetry_check_is_relative_at_every_scale(self, scale):
        # Below unit scale the check used to be absolute, so at 1e-13 this
        # matrix passed while at unit scale it failed.
        with pytest.raises(ValueError, match=r"not symmetric \(relative tolerance 1e-12\)"):
            validate_spd(scale * np.array([[1.0, 0.5], [0.0, 1.0]]))
        tiny = scale * np.array([[1.0, 0.9e-12], [0.0, 1.0]])
        assert np.array_equal(validate_spd(tiny), 0.5 * (tiny + tiny.T))


class TestChmaxProduct:
    def test_benchmark_scalar_case(self):
        # V_i = 0.1 i I5 pooled: A = (sum 10/i)^-1 I = (6/137) I, and
        # V1 - A = (7.7/137) I = 0.0562044... I; with Q = 10 I the largest
        # root is 0.562044.
        m = (0.1 - 6.0 / 137.0) * np.eye(5)
        q = 10.0 * np.eye(5)
        assert chmax_product(m, q) == pytest.approx(0.562043795620438, rel=1e-12)

    def test_zero_matrix(self):
        assert chmax_product(np.zeros((4, 4)), 2.0 * np.eye(4)) == 0.0

    def test_matches_general_eigensolver(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            dim = rng.integers(2, 7)
            m = random_spd(rng, dim)
            q = random_spd(rng, dim)
            expected = np.max(np.linalg.eigvals(m @ q).real)
            assert chmax_product(m, q) == pytest.approx(expected, rel=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            chmax_product(np.eye(3), np.eye(4))

    def test_q_not_positive_definite(self):
        with pytest.raises(ValueError, match="Q is not positive definite"):
            chmax_product(np.eye(3), np.diag([1.0, 1.0, 0.0]))
        with pytest.raises(ValueError, match="Q is not positive definite"):
            chmax_product(np.eye(3), np.diag([1.0, -1.0, 2.0]))

    def test_non_finite_q_named(self):
        with pytest.raises(ValueError, match="Q has non-finite entries"):
            chmax_product(np.eye(3), np.full((3, 3), np.nan))

    def test_q_is_factored_once(self, monkeypatch):
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: calls.append(m) or cholesky(m))
        m, q = np.diag([1.0, 2.0, 3.0]), np.diag([3.0, 2.0, 1.0])
        assert chmax_product(m, q) == pytest.approx(4.0)
        assert len(calls) == 1
        # Q is still checked before the dimensions, by the same messages.
        with pytest.raises(ValueError, match="Q is not positive definite"):
            chmax_product(np.eye(2), -q)
        with pytest.raises(ValueError, match=r"Q is not symmetric \(relative tolerance 1e-12\)"):
            chmax_product(np.eye(2), np.triu(q + 1.0))
        with pytest.raises(ValueError, match=r"dimension mismatch: M \(2, 2\) vs Q \(3, 3\)"):
            chmax_product(np.eye(2), q)
        assert len(calls) == 3


class TestTraceRatio:
    """tr(MQ)/Ch_max(MQ) as the minimax reports compute it."""

    def test_benchmark_ratio_is_dimension(self):
        # M = V_1 - A = (0.1 - 6/137) I and Q = 10 I.
        spec = scalar_spec(5, 5, 20, [0.1 * i for i in range(1, 6)], 1.0, [0.0] * 5)
        assert single_shrinkage_report(spec).ratio == pytest.approx(5.0, rel=1e-12)

    def test_diagonal_arithmetic(self):
        # Two equal V_i = 2D give M = V_1 - A = D = diag(3, 1, 1).
        v = np.diag([6.0, 2.0, 2.0])
        ratio = single_shrinkage_report(spec_with([v, v], np.eye(3))).ratio
        assert ratio == pytest.approx(5.0 / 3.0)

    def test_ratio_at_least_one_and_scale_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            dim = rng.integers(2, 6)
            V = [random_spd(rng, dim) for _ in range(3)]
            q = random_spd(rng, dim)
            ratio = single_shrinkage_report(spec_with(V, q)).ratio
            assert ratio >= 1.0 - 1e-12
            scaled = single_shrinkage_report(spec_with([3.7 * v for v in V], q)).ratio
            assert scaled == pytest.approx(ratio, rel=1e-12)

    def test_degenerate_chmax_raises(self):
        # Weights proportional to the pooling weights make M_d = 0: the ratio
        # is undefined and the constants derived from it raise.
        spec = scalar_spec(3, 2, 10, [1.0, 1.0], 1.0, [0.0, 0.0])
        report = lincomb_shrinkage_report(spec, [0.5, 0.5])
        assert report.chmax == 0.0 and np.isnan(report.ratio)
        with pytest.raises(ValueError, match="condition fails"):
            solve_hb_a_from_ratio(report.ratio, 3, 2, 10)


class TestRegIncBeta:
    def test_uniform_cdf(self):
        assert reg_inc_beta(1.0, 1.0, 0.3) == pytest.approx(0.3, abs=1e-14)

    def test_symmetry_point(self):
        assert reg_inc_beta(2.0, 2.0, 0.5) == pytest.approx(0.5, abs=1e-14)

    def test_against_simpson_oracle(self):
        a, b, x = 10.0, 10.0, 0.515
        ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        oracle = simpson(
            lambda t: np.exp((a - 1) * np.log(t) + (b - 1) * np.log1p(-t) - ln_beta),
            1e-12,
            x,
            1_000_000,
        )
        assert reg_inc_beta(a, b, x) == pytest.approx(oracle, abs=1e-9)

    def test_against_mpmath_grid(self):
        mpmath.mp.dps = 30
        rng = np.random.default_rng(3)
        for _ in range(40):
            a = float(rng.uniform(0.2, 30.0))
            b = float(rng.uniform(0.2, 30.0))
            x = float(rng.uniform(0.0, 1.0))
            expected = float(mpmath.betainc(a, b, 0, x, regularized=True))
            assert reg_inc_beta(a, b, x) == pytest.approx(expected, rel=1e-12, abs=1e-13)

    def test_complement_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            a = float(rng.uniform(0.3, 20.0))
            b = float(rng.uniform(0.3, 20.0))
            x = float(rng.uniform(0.0, 1.0))
            total = reg_inc_beta(a, b, x) + reg_inc_beta(b, a, 1.0 - x)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_endpoints_and_vectorized(self):
        vals = reg_inc_beta(3.0, 5.0, np.array([0.0, 0.25, 1.0]))
        assert vals[0] == 0.0
        assert vals[-1] == 1.0
        assert vals.shape == (3,)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_inc_beta(-1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            reg_inc_beta(1.0, 2.0, 1.5)

    def test_unregularized_against_mpmath_at_moderate_x(self):
        # B(a, b) I_x(a, b) is the lower incomplete beta B_x(a, b).
        rng = np.random.default_rng(5)
        for _ in range(30):
            a = float(rng.uniform(0.5, 15.0))
            b = float(rng.uniform(0.5, 15.0))
            x = float(rng.uniform(0.05, 0.95))
            expected = float(mpmath.betainc(a, b, 0, x))
            beta = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
            assert beta * reg_inc_beta(a, b, x) == pytest.approx(expected, rel=1e-12)

    def test_small_x_leading_term(self):
        # I_x(a, b) = x^a / (a B(a, b)) (1 + O(x)) where x^a is near underflow.
        a, b, x = 3.0, 7.0, 1e-100
        ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        expected = math.exp(a * math.log(x) - math.log(a) - ln_beta)
        assert reg_inc_beta(a, b, x) == pytest.approx(expected, rel=1e-12)

    def test_batch_is_bit_identical_to_single_calls(self):
        # The continued fraction is cut at one depth per (a, b), so a value
        # does not depend on the batch it is evaluated in.
        rng = np.random.default_rng(12)
        x = np.concatenate([rng.uniform(0.0, 1.0, 40), [1e-300, 1e-8, 0.5, 1.0 - 1e-12]])
        for a, b in [(0.3, 12.0), (3.0, 7.0), (20.0, 0.7)]:
            batch = reg_inc_beta(a, b, x)
            assert np.array_equal(batch, [reg_inc_beta(a, b, xi) for xi in x])
            assert np.array_equal(batch[::-1], reg_inc_beta(a, b, x[::-1]))

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(numerics, "_CF_MAXIT", 2)
        with pytest.raises(ValueError, match="did not converge"):
            reg_inc_beta(3.0, 7.0, np.array([0.01, 0.2]))

    def test_empty_batch(self):
        # The loop used to run its 500 steps on no elements and then raise.
        assert reg_inc_beta(2.0, 3.0, np.array([])).shape == (0,)

    def test_nan_x_is_named(self):
        # NaN passed the range check and ran 500 steps before reporting
        # "did not converge".
        with pytest.raises(ValueError, match=r"x must lie in \[0, 1\]"):
            reg_inc_beta(2.0, 3.0, np.nan)
        with pytest.raises(ValueError, match=r"x must lie in \[0, 1\]"):
            reg_inc_beta(2.0, 3.0, np.array([0.5, np.nan]))


def dlmf_beta_fraction(a, b, x, depth):
    """1/(1 + d_1 x/(1 + d_2 x/(1 + ... d_{2 depth+1} x))) of DLMF 8.17.22,
    with d_{2m} = m(b-m)/((a+2m-1)(a+2m)) and d_{2m+1} =
    -(a+m)(a+b+m)/((a+2m)(a+2m+1)), evaluated backward in floats."""
    d = [-(a + b) / (a + 1.0)]
    for m in range(1, depth + 1):
        d += [m * (b - m) / ((a + 2 * m - 1) * (a + 2 * m)),
              -(a + m) * (a + b + m) / ((a + 2 * m) * (a + 2 * m + 1))]
    t = np.ones_like(x)
    for dj in reversed(d):
        t = 1.0 + dj * x / t
    return 1.0 / t


def step_limit(evaluate):
    """The smallest ``_CF_MAXIT`` at which ``evaluate()`` does not raise,
    found by bisection."""
    lo, hi = 0, numerics._CF_MAXIT
    while hi - lo > 1:
        mid = (lo + hi) // 2
        with mock.patch.object(numerics, "_CF_MAXIT", mid):
            try:
                evaluate()
                hi = mid
            except ValueError:
                lo = mid
    return hi


def fraction_depth(a, b):
    """N(a, b): the depth at which ``_beta_cont_frac`` cuts its fraction."""
    return step_limit(lambda: numerics._beta_cont_frac(a, b, np.zeros(1)))


log_shapes = st.floats(math.log(0.05), math.log(2000.0))


class TestBetaFractionDepth:
    """The fraction is cut at one depth N(a, b), where the Lentz test passes
    at the edge x_e = (a+1)/(a+b+2); no x in [0, x_e] may need more."""

    @settings(max_examples=120)
    @given(log_a=log_shapes, log_b=log_shapes,
           u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    def test_depth_of_the_edge_serves_every_x(self, log_a, log_b, u):
        a, b = math.exp(log_a), math.exp(log_b)
        x = np.array(u) * ((a + 1.0) / (a + b + 2.0))
        depth = fraction_depth(a, b)
        cf = numerics._beta_cont_frac(a, b, x)
        deep = dlmf_beta_fraction(a, b, x, 2 * depth)
        # The denominator 1/cf = 1 + d_1 x / t_2 is a sum of terms of order
        # one: within 4 ulp of 1 at depth N and 2N.  (cf itself cancels in
        # that sum where a >> b, e.g. cf ~ 870 at a = 1561, b = 0.34, so its
        # own last bits are not a measure of the depth.)
        assert np.all(np.abs(1.0 / cf - 1.0 / deep) <= 4.0 * np.spacing(1.0))

    @settings(max_examples=60)
    @given(log_a=log_shapes, log_b=log_shapes, u=st.floats(0.0, 1.0))
    def test_against_mpmath(self, log_a, log_b, u):
        a, b = math.exp(log_a), math.exp(log_b)
        x = u * ((a + 1.0) / (a + b + 2.0))
        with mpmath.workdps(30):
            expected = float(mpmath.betainc(a, b, 0, x, regularized=True))
        # 1e-13, plus the rounding of the prefactor's log, a log x +
        # b log(1-x) - log B(a, b), whose lgamma terms alone reach 2.4e4 at
        # b = 2000 (3.6e-12 relative at a = 4.07, b = 1872, x = 0.00164).
        xs = max(x, np.finfo(float).tiny)
        terms = (abs(a * math.log(xs)) + abs(b * math.log1p(-xs)) + abs(math.lgamma(a))
                 + abs(math.lgamma(b)) + abs(math.lgamma(a + b)))
        rtol = 1e-13 + 4.0 * np.spacing(1.0) * terms
        got = reg_inc_beta(a, b, x)
        assert abs(got - expected) <= rtol * expected + np.finfo(float).tiny


def gamma_series(s, x, depth):
    """(1 + x/(s+1) (1 + ... (1 + x/(s+depth))))/s, the series of P(s, x)
    to term ``depth``, summed backward in floats."""
    t = np.ones_like(x)
    for i in range(depth, 0, -1):
        t = 1.0 + x * t / (s + i)
    return t / s


def gamma_fraction(s, x, depth):
    """1/(b_0 + a_1/(b_1 + ... a_depth/b_depth)) with a_i = -i(i-s) and
    b_i = x + 1 - s + 2i, the fraction of Q(s, x), evaluated backward in
    floats."""
    t = x + 1.0 - s + 2.0 * depth
    for i in range(depth, 0, -1):
        t = x + 1.0 - s + 2.0 * (i - 1) - i * (i - s) / t
    return 1.0 / t


class TestGammaDepth:
    """Each branch of ``_log_lower_gamma`` is cut at one depth per octave of
    the distance x/(s+1) - 1 from the branch edge x = s + 1, that of the
    octave's point x_d nearest the edge, where it converges slowest.

    The series: term i+1 over term i is x/(s+i+1), so term N over the sum
    up to N, 1/sum_i x^(i-N) (s+i+1) ... (s+N), grows with x, and is below
    1e-15 for x <= x_d.  The terms after N over those up to N are a sum of
    products of x/(s+l), l > N, which fall from r = x/(s+N+1) <= (s+1)/(s+N+1),
    so the tail is below 1e-15 r/(1-r) <= 1e-15 (s+1)/N of the sum.

    The fraction: its approximants' denominators are Laguerre polynomials
    in -x, which grow like exp(2 sqrt(N x)), so the N-th approximant errs
    by about exp(-4 sqrt(N x)), falling as x grows past the edge.  The
    Lentz test bounds the last step's change, not the tail: where the
    fraction converges slowly (s near 0.05, about 77 steps) the value at
    depth N is up to about 22 ulp from the value at depth 2N."""

    @staticmethod
    def depth(s, x, cut):
        """The depth at which ``cut`` evaluates x (one element)."""
        return step_limit(lambda: cut(s, np.array([x])))

    @staticmethod
    def series(s, x):
        """The series (1 + x/(s+1) t_2)/s of P(s, x), t_2 of ``_series_tail``."""
        return (1.0 + x * numerics._series_tail(s, x) / (s + 1.0)) / s

    @settings(max_examples=120)
    @given(log_s=log_shapes, u=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=4))
    def test_series_depth_of_the_octave_serves_its_x(self, log_s, u):
        s = math.exp(log_s)
        x = np.array(u) * (s + 1.0)
        got = self.series(s, x)
        for xi, gi in zip(x, got):
            depth = self.depth(s, xi, numerics._series_tail)
            deep = gamma_series(s, xi, 2 * depth)
            # The tail bound above, plus 4 ulp of rounding.
            bound = numerics._CF_EPS * (s + 1.0) / depth + 4.0 * np.spacing(1.0)
            assert abs(gi / deep - 1.0) <= bound

    @settings(max_examples=120)
    @given(log_s=log_shapes, v=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4))
    def test_fraction_depth_of_the_octave_serves_its_x(self, log_s, v):
        s = math.exp(log_s)
        x = (s + 1.0) * np.exp(v)
        got = numerics._gamma_cont_frac(s, x)
        for xi, gi in zip(x, got):
            deep = gamma_fraction(s, xi, 2 * self.depth(s, xi, numerics._gamma_cont_frac))
            assert abs(gi / deep - 1.0) <= 32.0 * np.spacing(1.0)

    def test_octave_depths_fall_away_from_the_edge(self):
        # x = 0.9 (s+1) and 1.1 (s+1) need fewer steps than the edge, where
        # the series takes 48 at s = 20; all of x < (s+1)/2 takes the depth
        # at (s+1)/2.
        s = 20.0
        edge = self.depth(s, s + 1.0, numerics._series_tail)
        assert edge == 48
        assert self.depth(s, 0.9 * (s + 1.0), numerics._series_tail) < edge
        half = self.depth(s, 0.5 * (s + 1.0), numerics._series_tail)
        assert self.depth(s, 1e-3, numerics._series_tail) == half < 30
        frac_edge = self.depth(s, s + 1.0, numerics._gamma_cont_frac)
        assert self.depth(s, 1.1 * (s + 1.0), numerics._gamma_cont_frac) < frac_edge

    @pytest.mark.parametrize("s", [4010.0, 1e4, 1e5])
    def test_large_shape(self, s):
        # Past s = 3973 the series needs more than 500 terms at the edge;
        # x off the edge by a tenth or more takes the depth of its own
        # octave, and converges.
        # mpmath's lower ratio does not converge at s = 1e5, x = 3e5, so
        # above x = s the oracle is 1 - Q.
        log_x = np.log([1.0, 0.4 * s, 0.9 * (s + 1.0), 1.1 * (s + 1.0), 3.0 * s])
        got = numerics._log_lower_gamma(s, log_x)
        with mpmath.workdps(40):
            for shape, values in zip((s, s + 1.0), got):
                exact = []
                for log_xi in log_x:
                    xi = mpmath.exp(mpmath.mpf(log_xi))
                    if xi < shape:
                        exact.append(float(mpmath.log(mpmath.gammainc(shape, 0, xi, regularized=True))))
                    else:
                        exact.append(float(mpmath.log1p(-mpmath.gammainc(shape, xi, mpmath.inf, regularized=True))))
                np.testing.assert_allclose(values, exact, rtol=1e-11, atol=1e-11)


class TestLogLowerGamma:
    """``_log_lower_gamma`` gives log P(s, y) and log P(s+1, y) in one pass."""

    @settings(max_examples=60)
    @given(log_s=log_shapes, log_y=st.floats(-700.0, 12.0))
    def test_against_mpmath(self, log_s, log_y):
        s = math.exp(log_s)
        got = numerics._log_lower_gamma(s, np.array([log_y]))
        with mpmath.workdps(40):
            y = mpmath.exp(mpmath.mpf(log_y))
            for shape, value in zip((s, s + 1.0), got):
                exact = float(mpmath.log(mpmath.gammainc(shape, 0, y, regularized=True)))
                # 1e-13, plus the rounding of the prefactor's log, whose terms
                # are of size s log s (item 13 of the ROADMAP).
                tol = 1e-13 + 4.0 * np.spacing(1.0) * (abs(shape * log_y) + math.exp(log_y) + math.lgamma(shape + 1.0))
                assert abs(value[0] - exact) <= tol * max(1.0, abs(exact))

    def test_tiny_and_huge_y(self):
        # y = e^-800 underflows, but its log is the power law; above e^690
        # P is 1.
        low, low1 = numerics._log_lower_gamma(2.5, np.array([-800.0, 800.0]))
        assert low[0] == pytest.approx(2.5 * -800.0 - math.lgamma(3.5), rel=1e-15)
        assert low1[0] == pytest.approx(3.5 * -800.0 - math.lgamma(4.5), rel=1e-15)
        assert low[1] == 0.0 and low1[1] == 0.0


def lower_gamma(s, x):
    """P(s, x) from ``_log_lower_gamma``."""
    return np.exp(numerics._log_lower_gamma(s, np.log(x))[0])


class TestRegUpperGamma:
    """The regularized gamma ratios P(s, x) and Q(s, x) = 1 - P(s, x), read
    from ``_log_lower_gamma``."""

    def test_exponential_tail(self):
        # P(1, x) = 1 - exp(-x)
        xs = np.array([0.1, 1.0, 5.0])
        np.testing.assert_allclose(lower_gamma(1.0, xs), -np.expm1(-xs), rtol=1e-13)

    def test_integer_shape_closed_form(self):
        # P(3, x) = 1 - e^-x (1 + x + x^2/2)
        x = 2.0
        assert lower_gamma(3.0, np.array([x]))[0] == pytest.approx(
            1.0 - math.exp(-x) * (1 + x + x * x / 2), rel=1e-13
        )

    def test_against_mpmath(self):
        mpmath.mp.dps = 30
        rng = np.random.default_rng(6)
        for _ in range(40):
            s = float(rng.uniform(0.3, 40.0))
            x = float(rng.uniform(0.0, 80.0))
            expected = float(mpmath.gammainc(s, x, mpmath.inf, regularized=True))
            log_p = numerics._log_lower_gamma(s, np.log([x]))[0][0]
            assert -math.expm1(log_p) == pytest.approx(expected, rel=1e-11, abs=1e-14)

    def test_infinite_argument(self):
        # P(s, inf) = 1, and one infinite element leaves the rest of a batch
        # as it is.
        log_xs = np.log([0.5, 21.0, math.inf, 60.0])
        got = numerics._log_lower_gamma(20.0, log_xs)
        rest = numerics._log_lower_gamma(20.0, log_xs[[0, 1, 3]])
        for values, others in zip(got, rest):
            assert values[2] == 0.0
            np.testing.assert_array_equal(values[[0, 1, 3]], others)

    def test_batch_is_bit_identical_to_single_calls(self):
        # Series points (x < s + 1) and continued-fraction points: each
        # branch is cut at one depth per s.
        rng = np.random.default_rng(13)
        for s in (0.7, 5.5, 21.0):
            log_x = np.log(np.concatenate([rng.uniform(0.0, 2.0 * s + 4.0, 30), [1e-12, s, s + 1.0, 300.0]]))
            batch = numerics._log_lower_gamma(s, log_x)
            single = [numerics._log_lower_gamma(s, np.array([xi])) for xi in log_x]
            reverse = numerics._log_lower_gamma(s, log_x[::-1])
            for i, values in enumerate(batch):
                assert np.array_equal(values, [pair[i][0] for pair in single])
                assert np.array_equal(values[::-1], reverse[i])

    def test_empty_batch(self):
        assert [v.shape for v in numerics._log_lower_gamma(2.0, np.array([]))] == [(0,), (0,)]

    @pytest.mark.parametrize(
        "x, message",
        [(3.0, "incomplete gamma series did not converge"),
         (30.0, "incomplete gamma continued fraction did not converge")],
        ids=["series", "continued_fraction"],
    )
    def test_nonconvergence_raises(self, monkeypatch, x, message):
        monkeypatch.setattr(numerics, "_CF_MAXIT", 2)
        with pytest.raises(ValueError, match=message):
            numerics._log_lower_gamma(10.0, np.log([x, 0.5 * x]))


class TestFQuantile:
    @staticmethod
    def _cdf_oracle(q, d1, d2):
        """F CDF via high-resolution Simpson on the beta integrand under the
        t = sin^2(theta) substitution (removes the endpoint singularities for
        every d >= 1); independent of the continued-fraction code path."""
        a, b = d1 / 2.0, d2 / 2.0
        z = d1 * q / (d1 * q + d2)
        ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        phi = math.asin(math.sqrt(z))

        def dens(theta):
            s, c = np.sin(theta), np.cos(theta)
            return 2.0 * math.exp(-ln_beta) * s ** (2 * a - 1) * c ** (2 * b - 1)

        return simpson(dens, 0.0, phi, 400_000)

    def test_known_value(self):
        assert f_quantile(20, 20, 0.05) == pytest.approx(2.1242, abs=2e-4)

    def test_oracle_inversion_20_20(self):
        q = f_quantile(20, 20, 0.05)
        assert self._cdf_oracle(q, 20, 20) == pytest.approx(0.95, abs=1e-9)

    def test_median_symmetric(self):
        for d in (1, 4, 20, 75):
            assert f_quantile(d, d, 0.5) == pytest.approx(1.0, abs=1e-10)

    def test_oracle_inversion_1_1(self):
        q = f_quantile(1, 1, 0.05)
        assert self._cdf_oracle(q, 1, 1) == pytest.approx(0.95, abs=1e-8)

    def test_round_trip_cdf(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            d1 = int(rng.integers(1, 40))
            d2 = int(rng.integers(1, 40))
            alpha = float(rng.uniform(0.001, 0.999))
            q = f_quantile(d1, d2, alpha)
            cdf = reg_inc_beta(0.5 * d1, 0.5 * d2, d1 * q / (d1 * q + d2))
            assert cdf == pytest.approx(1.0 - alpha, abs=1e-8)

    @pytest.mark.parametrize("alpha", [1e-8, 1e-3, 0.05, 0.5, 0.95, 0.999])
    def test_against_scipy(self, alpha):
        # scipy's isf(alpha) inverts the CDF at 1 - alpha rounded to a double,
        # i.e. at the upper tail 1 - (1 - alpha); compare at that tail so its
        # rounding (5e-9 relative at alpha = 1e-8) is not charged to f_quantile.
        tail = 1.0 - (1.0 - alpha)
        for d1 in (1, 2, 5, 20, 75, 200):
            for d2 in (1, 2, 5, 20, 75, 200):
                expected = stats.f.isf(alpha, d1, d2)
                assert f_quantile(d1, d2, tail) == pytest.approx(expected, rel=1e-9), (d1, d2)

    @staticmethod
    def _one_point_bisection(fn, lo, hi):
        """The reference: one midpoint per call of fn."""
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if fn(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    @pytest.mark.parametrize("alpha", [1e-12, 0.05, 0.6])
    @pytest.mark.parametrize("d1, d2", [(1, 1), (20, 20), (100, 20), (400, 7)])
    def test_batched_bisection_takes_the_one_point_steps(self, d1, d2, alpha):
        def fn(t):
            return reg_inc_beta(0.5 * d2, 0.5 * d1, t) - alpha

        got = numerics._bisect_monotone(fn, 0.0, 1.0)
        assert got.hex() == self._one_point_bisection(fn, 0.0, 1.0).hex()

    @pytest.mark.parametrize(
        "d1, d2, alpha, want",
        [
            (20, 20, 0.05, "0x1.0fe451698f211p+1"),
            (100, 20, 0.05, "0x1.e813f3521f01dp+0"),
            (4, 5000, 0.01, "0x1.a9557d818bb33p+1"),
            (400, 7, 0.6, "0x1.eab088838b723p-1"),
            (1, 1, 1e-12, "0x1.574a1e314115dp+78"),
        ],
    )
    def test_bits_are_pinned(self, d1, d2, alpha, want):
        assert f_quantile(d1, d2, alpha).hex() == want

    def test_batched_bisection_stops_after_200_steps(self):
        # The root 1e-300 lies about 1,000 halvings below 1.
        def fn(t):
            return np.asarray(t) - 1e-300

        got = numerics._bisect_monotone(fn, 0.0, 1.0)
        assert got == self._one_point_bisection(fn, 0.0, 1.0) == 2.0**-201

    def test_domain(self):
        with pytest.raises(ValueError):
            f_quantile(0, 5, 0.05)
        with pytest.raises(ValueError):
            f_quantile(5, 5, 1.2)

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
    def test_holds_at_the_largest_d2(self, alpha):
        d2 = numerics.F_QUANTILE_MAX_D2
        assert d2 == 10**7
        for d1 in (1, 4, 20, 100, 1000):
            expected = stats.f.isf(alpha, d1, d2)
            assert f_quantile(d1, d2, alpha) == pytest.approx(expected, rel=1e-7), d1

    @pytest.mark.parametrize("d2", [10**7 + 1, 10**15, 10**20])
    def test_past_the_largest_d2_raises(self, d2):
        # At d2 = 1e15 the quantile was off by up to 144%, and from about
        # 1e17 the continued fraction divided by zero.
        with pytest.raises(ValueError, match=rf"\(20, {d2}\)"):
            f_quantile(20, d2, 0.05)


class TestGaussLegendre:
    @pytest.mark.parametrize("order", [1, 2, 8, 10, 12, 16, 18, 24, 48, 64])
    def test_polynomial_exactness(self, order):
        # int_0^1 s^j ds = 1/(j+1) for every j < 2 order.
        nodes, weights = gauss_legendre(order)
        for j in (0, 1, order, 2 * order - 1):
            assert float(np.sum(weights * nodes**j)) == pytest.approx(1.0 / (j + 1.0), rel=1e-13)

    def test_hb_orders_are_pinned(self):
        # The digests of the rules HB reads, as the Gauss-Jacobi rule at
        # exponent 0 gave them before it became this one: HB's values keep
        # their bits.
        pinned = {
            16: "6ba7271fcae6dad3f50a301d11e0a43d0214a7728edc9bc746d62ce17c0a896e",
            24: "f6aa215c48925b9906b7bae2e9e8165fc26839fb8f2f7e5fbab2638a7420508b",
        }
        assert set(_HB_ORDERS) == set(pinned)
        for order in _HB_ORDERS:
            nodes, weights = gauss_legendre(order)
            digest = hashlib.sha256(nodes.tobytes() + weights.tobytes()).hexdigest()
            assert digest == pinned[order], order

    def test_matches_numpy(self):
        nodes, weights = gauss_legendre(16)
        x, w = np.polynomial.legendre.leggauss(16)
        np.testing.assert_allclose(nodes, 0.5 * (1.0 + x), atol=1e-15)
        np.testing.assert_allclose(weights, 0.5 * w, rtol=1e-13)

    def test_memoized_and_read_only(self):
        nodes, weights = gauss_legendre(20)
        assert gauss_legendre(20)[0] is nodes
        assert not nodes.flags.writeable and not weights.flags.writeable
        assert np.all(np.diff(nodes) > 0.0) and np.all(weights > 0.0)

    def test_bad_parameters(self):
        with pytest.raises(ValueError, match="order"):
            gauss_legendre(0)
