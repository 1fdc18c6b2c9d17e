"""Pooled quantities, test statistics, and the two quadratic-form
inequalities (checked on random instances against direct evaluation)."""

import numpy as np
import pytest

from poolshrink.model import ModelSpec
from poolshrink.numerics import chmax_product
from poolshrink.statistics import batch_pooled_stats, linear_bound_check, pooled_deviance_gap


def random_spd(rng, dim, scale=1.0):
    m = rng.standard_normal((dim, dim))
    return scale * (m @ m.T + dim * np.eye(dim))


def random_instance(rng, p, k):
    V = [random_spd(rng, p) for _ in range(k)]
    X = rng.standard_normal((k, p)) * 2.0
    return V, X


def spec_for(V):
    p, k = len(V[0]), len(V)
    mu = tuple(np.zeros(p) for _ in range(k))
    return ModelSpec(p=p, k=k, n=10, V=tuple(V), Q=np.eye(p), sigma2=1.0, mu=mu)


# nu_hat, F and G are read from batch_pooled_stats on a batch of one; B is
# linear_bound_check at d = e_1.
def pooled_stats(X, S, V):
    X = np.asarray(X, dtype=float)[np.newaxis]
    nu, f, g = batch_pooled_stats(spec_for(V), X, np.array([S]))
    return nu[0], f[0], g[0]


def pooled_mean(V, X):
    return pooled_stats(X, 1.0, V)[0]


def stat_F(X, S, V):
    return pooled_stats(X, S, V)[1]


def stat_G(X, S, V):
    return pooled_stats(X, S, V)[2]


def stat_B(X, V, Q):
    return linear_bound_check(X, V, Q, np.eye(len(V))[0])[0]


class TestPooledMatrix:
    def test_two_identical_identities(self):
        a = spec_for([np.eye(3), np.eye(3)]).A
        np.testing.assert_allclose(a, np.eye(3) / 2.0, atol=1e-14)

    def test_benchmark_harmonic_sum(self):
        V = [0.1 * i * np.eye(5) for i in range(1, 6)]
        a = spec_for(V).A
        np.testing.assert_allclose(a, (6.0 / 137.0) * np.eye(5), rtol=1e-13)

    def test_diagonal_harmonic_oracle(self):
        rng = np.random.default_rng(0)
        diags = rng.uniform(0.5, 3.0, size=(3, 4))
        V = [np.diag(d) for d in diags]
        a = spec_for(V).A
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
        assert stat_F(x, 2.0, [np.eye(4)] * 3) == pytest.approx(0.0, abs=1e-14)

    def test_two_sample_identity(self):
        # For k = 2: F = (X1 - X2)'(V1 + V2)^{-1}(X1 - X2) / S.
        rng = np.random.default_rng(4)
        v1, v2 = random_spd(rng, 4), random_spd(rng, 4)
        x1, x2 = rng.standard_normal(4), rng.standard_normal(4)
        s = 2.0
        diff = x1 - x2
        expected = float(diff @ np.linalg.solve(v1 + v2, diff)) / s
        assert stat_F(np.stack([x1, x2]), s, [v1, v2]) == pytest.approx(expected, rel=1e-12)

    def test_two_sample_hand_value(self):
        x1 = np.array([1.0, -1.0, 0.0, 0.0])
        x2 = np.zeros(4)
        # X1 - X2 = (1,-1,0,0), V1 = V2 = I: F = ||diff||^2 / (2 S) = 0.5
        assert stat_F(np.stack([x1 + x2, x2]), 2.0, [np.eye(4), np.eye(4)]) == pytest.approx(0.5)

    def test_algebraic_form(self):
        # F also equals (sum X_i' V_i^{-1} X_i - nu' A^{-1} nu) / S.
        rng = np.random.default_rng(5)
        for _ in range(20):
            V, X = random_instance(rng, 4, 3)
            s = float(rng.uniform(0.5, 3.0))
            nu = pooled_mean(V, X)
            prec = sum(np.linalg.inv(v) for v in V)
            alg = (
                sum(float(x @ np.linalg.solve(v, x)) for v, x in zip(V, X))
                - float(nu @ prec @ nu)
            ) / s
            assert stat_F(X, s, V) == pytest.approx(alg, rel=1e-10, abs=1e-10)

    def test_nonpositive_s(self):
        with pytest.raises(ValueError, match="S must be positive"):
            stat_F(np.ones((2, 3)), 0.0, [np.eye(3)] * 2)


class TestStatG:
    def test_zero_pooled_mean(self):
        x1 = np.array([1.0, 2.0, 3.0])
        assert stat_G(np.stack([x1, -x1]), 1.0, [np.eye(3), np.eye(3)]) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_hand_value(self):
        # k=2, V1=V2=I, X1+X2=(2,0,...): nu=(1,0,..), A^{-1}=2I, S=2 -> G=1.
        x1 = np.array([2.0, 0.0, 0.0, 0.0, 0.0])
        x2 = np.zeros(5)
        assert stat_G(np.stack([x1, x2]), 2.0, [np.eye(5), np.eye(5)]) == pytest.approx(1.0)

    def test_matches_direct_quadratic_form(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            V, X = random_instance(rng, 3, 4)
            s = float(rng.uniform(0.5, 3.0))
            nu = pooled_mean(V, X)
            a = spec_for(V).A
            direct = float(nu @ np.linalg.solve(a, nu)) / s
            assert stat_G(X, s, V) == pytest.approx(direct, rel=1e-12)


class TestStatB:
    def test_two_sample_equality_case(self):
        # k=2, V1=V2=Q=I: B = 1/2 exactly.
        rng = np.random.default_rng(7)
        x1, x2 = rng.standard_normal(4), rng.standard_normal(4)
        b = stat_B(np.stack([x1, x2]), [np.eye(4), np.eye(4)], np.eye(4))
        assert b == pytest.approx(0.5, rel=1e-12)

    def test_bounded_by_chmax(self):
        # B <= Ch_max((V_1 - A) Q), with A taken from the model.
        rng = np.random.default_rng(8)
        for _ in range(200):
            p, k = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            V, X = random_instance(rng, p, k)
            q = random_spd(rng, p)
            b = stat_B(X, V, q)
            bound = chmax_product(np.asarray(V[0]) - spec_for(V).A, q)
            assert b <= bound + 1e-10

    def test_homogeneous_in_q(self):
        rng = np.random.default_rng(9)
        V, X = random_instance(rng, 4, 3)
        q = random_spd(rng, 4)
        assert stat_B(X, V, 3.0 * q) == pytest.approx(3.0 * stat_B(X, V, q), rel=1e-12)

    def test_degenerate(self):
        # Every X_i equals nu_hat: the denominator vanishes and B is undefined.
        with pytest.raises(ValueError, match="all observations coincide"):
            stat_B(np.ones((3, 2)), [np.eye(2)] * 3, np.eye(2))


class TestPooledStats:
    def test_consistent_with_parts(self):
        rng = np.random.default_rng(10)
        V, X = random_instance(rng, 4, 3)
        q = random_spd(rng, 4)
        nu, f, g = pooled_stats(X, 1.7, V)
        a = spec_for(V).A
        weighted = sum(np.linalg.solve(v, x) for v, x in zip(V, X))
        np.testing.assert_allclose(nu, a @ weighted, rtol=1e-12)
        dev = X - nu
        quad = sum(float(d @ np.linalg.solve(v, d)) for v, d in zip(V, dev))
        assert f == pytest.approx(quad / 1.7, rel=1e-12)
        assert g == pytest.approx(float(nu @ np.linalg.solve(a, nu)) / 1.7, rel=1e-12)
        assert stat_B(X, V, q) == pytest.approx(float(dev[0] @ q @ dev[0]) / quad, rel=1e-12)

    def test_translation_moves_pooled_mean_only(self):
        rng = np.random.default_rng(11)
        V, X = random_instance(rng, 4, 3)
        q = random_spd(rng, 4)
        shift = rng.standard_normal(4)
        s = 1.3
        nu0, f0, g0 = pooled_stats(X, s, V)
        nu1, f1, g1 = pooled_stats(X + shift, s, V)
        np.testing.assert_allclose(nu1, nu0 + shift, rtol=1e-10, atol=1e-12)
        assert f1 == pytest.approx(f0, rel=1e-9)
        assert stat_B(X + shift, V, q) == pytest.approx(stat_B(X, V, q), rel=1e-9)
        assert g1 != pytest.approx(g0, rel=1e-6)

    def test_scale_leaves_statistics_alone(self):
        rng = np.random.default_rng(12)
        V, X = random_instance(rng, 3, 4)
        q = random_spd(rng, 3)
        c = 2.7
        _, f0, g0 = pooled_stats(X, 1.0, V)
        _, f1, g1 = pooled_stats(c * X, c * c, V)
        assert f1 == pytest.approx(f0, rel=1e-12)
        assert g1 == pytest.approx(g0, rel=1e-12)
        assert stat_B(c * X, V, q) == pytest.approx(stat_B(X, V, q), rel=1e-12)


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
        d = np.array([1.0, 0.0, 0.0])
        b_value, bound = linear_bound_check(X, V, q, d)
        dev = X - pooled_mean(V, X)
        quad = sum(float(y @ np.linalg.solve(v, y)) for v, y in zip(V, dev))
        assert b_value == pytest.approx(float(dev[0] @ q @ dev[0]) / quad, rel=1e-12)
        expected_bound = chmax_product(np.asarray(V[0]) - spec_for(V).A, q)
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
