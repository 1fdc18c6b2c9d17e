"""Pooled quantities, test statistics, and the two quadratic-form
inequalities (checked on random instances against direct evaluation)."""

import numpy as np
import pytest

from poolshrink.model import Sample
from poolshrink.numerics import chmax_product
from poolshrink.statistics import (
    compute_pooled_stats,
    linear_bound_check,
    pooled_deviance_gap,
    pooled_matrix,
    pooled_mean,
)


def random_spd(rng, dim, scale=1.0):
    m = rng.standard_normal((dim, dim))
    return scale * (m @ m.T + dim * np.eye(dim))


def random_instance(rng, p, k):
    V = [random_spd(rng, p) for _ in range(k)]
    X = rng.standard_normal((k, p)) * 2.0
    return V, X


# The three statistics are read from compute_pooled_stats.
def stat_F(sample, V):
    return compute_pooled_stats(sample, V, np.eye(len(V[0]))).F


def stat_G(sample, V):
    return compute_pooled_stats(sample, V, np.eye(len(V[0]))).G


def stat_B(sample, V, Q):
    return compute_pooled_stats(sample, V, Q).B


class TestPooledMatrix:
    def test_two_identical_identities(self):
        a = pooled_matrix([np.eye(3), np.eye(3)])
        np.testing.assert_allclose(a, np.eye(3) / 2.0, atol=1e-14)

    def test_benchmark_harmonic_sum(self):
        V = [0.1 * i * np.eye(5) for i in range(1, 6)]
        a = pooled_matrix(V)
        np.testing.assert_allclose(a, (6.0 / 137.0) * np.eye(5), rtol=1e-13)

    def test_diagonal_harmonic_oracle(self):
        rng = np.random.default_rng(0)
        diags = rng.uniform(0.5, 3.0, size=(3, 4))
        V = [np.diag(d) for d in diags]
        a = pooled_matrix(V)
        expected = 1.0 / (1.0 / diags).sum(axis=0)
        np.testing.assert_allclose(np.diag(a), expected, rtol=1e-12)


class TestPooledMean:
    def test_fixed_point(self):
        rng = np.random.default_rng(1)
        V = [random_spd(rng, 4) for _ in range(3)]
        x = rng.standard_normal(4)
        nu = pooled_mean(V, [x, x, x])
        np.testing.assert_allclose(nu, x, rtol=1e-12)

    def test_two_sample_symmetric(self):
        rng = np.random.default_rng(2)
        v = random_spd(rng, 4)
        x1, x2 = rng.standard_normal(4), rng.standard_normal(4)
        nu = pooled_mean([v, v], [x1, x2])
        np.testing.assert_allclose(nu, 0.5 * (x1 + x2), rtol=1e-12)

    def test_minimizes_weighted_sum_of_squares(self):
        # Gradient of sum_i (x_i - nu)' V_i^{-1} (x_i - nu) vanishes at nu_hat.
        rng = np.random.default_rng(3)
        V, X = random_instance(rng, 5, 4)
        nu = pooled_mean(V, X)
        grad = sum(np.linalg.solve(v, nu - x) for v, x in zip(V, X))
        np.testing.assert_allclose(grad, np.zeros(5), atol=1e-8)


class TestStatF:
    def test_zero_when_all_equal(self):
        x = np.ones((3, 4))
        sample = Sample(X=x, S=2.0)
        assert stat_F(sample, [np.eye(4)] * 3) == pytest.approx(0.0, abs=1e-14)

    def test_two_sample_identity(self):
        # For k = 2: F = (X1 - X2)'(V1 + V2)^{-1}(X1 - X2) / S.
        rng = np.random.default_rng(4)
        v1, v2 = random_spd(rng, 4), random_spd(rng, 4)
        x1, x2 = rng.standard_normal(4), rng.standard_normal(4)
        s = 2.0
        sample = Sample(X=np.stack([x1, x2]), S=s)
        diff = x1 - x2
        expected = float(diff @ np.linalg.solve(v1 + v2, diff)) / s
        assert stat_F(sample, [v1, v2]) == pytest.approx(expected, rel=1e-12)

    def test_two_sample_hand_value(self):
        x1 = np.array([1.0, -1.0, 0.0, 0.0])
        x2 = np.zeros(4)
        sample = Sample(X=np.stack([x1 + x2, x2]), S=2.0)
        # X1 - X2 = (1,-1,0,0), V1 = V2 = I: F = ||diff||^2 / (2 S) = 0.5
        assert stat_F(sample, [np.eye(4), np.eye(4)]) == pytest.approx(0.5)

    def test_algebraic_form(self):
        # F also equals (sum X_i' V_i^{-1} X_i - nu' A^{-1} nu) / S.
        rng = np.random.default_rng(5)
        for _ in range(20):
            V, X = random_instance(rng, 4, 3)
            s = float(rng.uniform(0.5, 3.0))
            sample = Sample(X=X, S=s)
            nu = pooled_mean(V, X)
            prec = sum(np.linalg.inv(v) for v in V)
            alg = (
                sum(float(x @ np.linalg.solve(v, x)) for v, x in zip(V, X))
                - float(nu @ prec @ nu)
            ) / s
            assert stat_F(sample, V) == pytest.approx(alg, rel=1e-10, abs=1e-10)

    def test_nonpositive_s(self):
        with pytest.raises(ValueError, match="S must be positive"):
            stat_F(Sample(X=np.ones((2, 3)), S=0.0), [np.eye(3)] * 2)


class TestStatG:
    def test_zero_pooled_mean(self):
        x1 = np.array([1.0, 2.0, 3.0])
        sample = Sample(X=np.stack([x1, -x1]), S=1.0)
        assert stat_G(sample, [np.eye(3), np.eye(3)]) == pytest.approx(0.0, abs=1e-14)

    def test_hand_value(self):
        # k=2, V1=V2=I, X1+X2=(2,0,...): nu=(1,0,..), A^{-1}=2I, S=2 -> G=1.
        x1 = np.array([2.0, 0.0, 0.0, 0.0, 0.0])
        x2 = np.zeros(5)
        sample = Sample(X=np.stack([x1, x2]), S=2.0)
        assert stat_G(sample, [np.eye(5), np.eye(5)]) == pytest.approx(1.0)

    def test_matches_direct_quadratic_form(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            V, X = random_instance(rng, 3, 4)
            s = float(rng.uniform(0.5, 3.0))
            sample = Sample(X=X, S=s)
            nu = pooled_mean(V, X)
            a = pooled_matrix(V)
            direct = float(nu @ np.linalg.solve(a, nu)) / s
            assert stat_G(sample, V) == pytest.approx(direct, rel=1e-12)


class TestStatB:
    def test_two_sample_equality_case(self):
        # k=2, V1=V2=Q=I: B = 1/2 exactly.
        rng = np.random.default_rng(7)
        x1, x2 = rng.standard_normal(4), rng.standard_normal(4)
        sample = Sample(X=np.stack([x1, x2]), S=1.0)
        b = stat_B(sample, [np.eye(4), np.eye(4)], np.eye(4))
        assert b == pytest.approx(0.5, rel=1e-12)

    def test_bounded_by_chmax(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            p, k = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            V, X = random_instance(rng, p, k)
            q = random_spd(rng, p)
            sample = Sample(X=X, S=1.0)
            b = stat_B(sample, V, q)
            bound = chmax_product(np.asarray(V[0]) - pooled_matrix(V), q)
            assert b <= bound + 1e-10

    def test_homogeneous_in_q(self):
        rng = np.random.default_rng(9)
        V, X = random_instance(rng, 4, 3)
        q = random_spd(rng, 4)
        sample = Sample(X=X, S=1.0)
        assert stat_B(sample, V, 3.0 * q) == pytest.approx(
            3.0 * stat_B(sample, V, q), rel=1e-12
        )

    def test_degenerate(self):
        # Every X_i equals nu_hat: the denominator vanishes and B is NaN.
        sample = Sample(X=np.ones((3, 2)), S=1.0)
        assert np.isnan(stat_B(sample, [np.eye(2)] * 3, np.eye(2)))


class TestPooledStats:
    def test_consistent_with_parts(self):
        rng = np.random.default_rng(10)
        V, X = random_instance(rng, 4, 3)
        q = random_spd(rng, 4)
        sample = Sample(X=X, S=1.7)
        st = compute_pooled_stats(sample, V, q)
        np.testing.assert_allclose(st.A, pooled_matrix(V), rtol=1e-12)
        np.testing.assert_allclose(st.nu_hat, pooled_mean(V, X), rtol=1e-12)
        dev = X - st.nu_hat
        quad = sum(float(d @ np.linalg.solve(v, d)) for v, d in zip(V, dev))
        assert st.F == pytest.approx(quad / 1.7, rel=1e-12)
        g = float(st.nu_hat @ np.linalg.solve(st.A, st.nu_hat)) / 1.7
        assert st.G == pytest.approx(g, rel=1e-12)
        assert st.B == pytest.approx(float(dev[0] @ q @ dev[0]) / quad, rel=1e-12)

    def test_translation_moves_pooled_mean_only(self):
        rng = np.random.default_rng(11)
        V, X = random_instance(rng, 4, 3)
        q = random_spd(rng, 4)
        shift = rng.standard_normal(4)
        s = 1.3
        st0 = compute_pooled_stats(Sample(X=X, S=s), V, q)
        st1 = compute_pooled_stats(Sample(X=X + shift, S=s), V, q)
        np.testing.assert_allclose(st1.nu_hat, st0.nu_hat + shift, rtol=1e-10, atol=1e-12)
        assert st1.F == pytest.approx(st0.F, rel=1e-9)
        assert st1.B == pytest.approx(st0.B, rel=1e-9)
        assert st1.G != pytest.approx(st0.G, rel=1e-6)

    def test_scale_leaves_statistics_alone(self):
        rng = np.random.default_rng(12)
        V, X = random_instance(rng, 3, 4)
        q = random_spd(rng, 3)
        c = 2.7
        st0 = compute_pooled_stats(Sample(X=X, S=1.0), V, q)
        st1 = compute_pooled_stats(Sample(X=c * X, S=c * c), V, q)
        assert st1.F == pytest.approx(st0.F, rel=1e-12)
        assert st1.G == pytest.approx(st0.G, rel=1e-12)
        assert st1.B == pytest.approx(st0.B, rel=1e-12)


class TestPooledDevianceGap:
    def test_two_sample_gap_vanishes(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p = int(rng.integers(2, 6))
            V, X = random_instance(rng, p, 2)
            gap = pooled_deviance_gap(X, V)
            assert abs(gap) <= 1e-10

    def test_nonnegative_on_random_instances(self):
        rng = np.random.default_rng(14)
        for _ in range(2000):
            p = int(rng.integers(2, 5))
            k = int(rng.integers(2, 6))
            V, X = random_instance(rng, p, k)
            assert pooled_deviance_gap(X, V) >= -1e-10

    def test_zero_when_all_equal(self):
        V = [np.eye(3)] * 4
        X = np.tile(np.array([1.0, 2.0, 3.0]), (4, 1))
        assert pooled_deviance_gap(X, V) == pytest.approx(0.0, abs=1e-12)


class TestLinearBoundCheck:
    def test_first_basis_vector_reduces_to_stat_b(self):
        rng = np.random.default_rng(15)
        V, X = random_instance(rng, 4, 3)
        q = random_spd(rng, 4)
        sample = Sample(X=X, S=1.0)
        d = np.array([1.0, 0.0, 0.0])
        b_value, bound = linear_bound_check(X, V, q, d)
        assert b_value == pytest.approx(stat_B(sample, V, q), rel=1e-12)
        expected_bound = chmax_product(np.asarray(V[0]) - pooled_matrix(V), q)
        assert bound == pytest.approx(expected_bound, rel=1e-10)

    def test_identity_case_bound_formula(self):
        # V_i = Q = I: the bound is sum_i (d_i - dbar)^2.
        rng = np.random.default_rng(16)
        k, p = 5, 4
        V = [np.eye(p)] * k
        X = rng.standard_normal((k, p))
        d = rng.standard_normal(k)
        _, bound = linear_bound_check(X, V, np.eye(p), d)
        expected = float(((d - d.mean()) ** 2).sum())
        assert bound == pytest.approx(expected, rel=1e-10)

    def test_holds_on_random_draws(self):
        rng = np.random.default_rng(17)
        for _ in range(2000):
            p = int(rng.integers(2, 5))
            k = int(rng.integers(2, 6))
            V, X = random_instance(rng, p, k)
            q = random_spd(rng, p)
            d = rng.standard_normal(k)
            b_value, bound = linear_bound_check(X, V, q, d)
            assert b_value <= bound + 1e-10
