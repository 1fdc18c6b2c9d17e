"""Minimaxity condition reports and shrink-constant solvers."""

import numpy as np
import pytest

from poolshrink.minimax import (
    check_hb_domain,
    solve_hb_a_from_ratio,
    double_shrinkage_report,
    lincomb_shrinkage_report,
    optimal_eb_constant,
    optimal_heb_constants,
    single_shrinkage_report,
    solve_hb_a,
)
from poolshrink.model import ModelSpec, scalar_spec, validate_spec


def benchmark_spec():
    return scalar_spec(5, 5, 20, [0.1 * i for i in range(1, 6)], 2.0, [0] * 5)


def random_spd(rng, dim):
    m = rng.standard_normal((dim, dim))
    return m @ m.T + dim * np.eye(dim)


class TestSingleShrinkageReport:
    def test_benchmark_values(self):
        rep = single_shrinkage_report(benchmark_spec())
        assert rep.ratio == pytest.approx(5.0, rel=1e-12)
        assert rep.condition_holds
        assert rep.phi_upper_single == pytest.approx(6.0 / 22.0, rel=1e-12)
        assert rep.phi_upper_double == pytest.approx(3.0 / 22.0, rel=1e-12)

    def test_equal_scales_ratio_is_dimension(self):
        # V_1 = ... = V_k = Q^{-1}: the ratio equals p, so the condition
        # is exactly p > 2 (for any k >= 2).
        for p in (2, 3, 6):
            spec = scalar_spec(p, 3, 15, [0.5] * 3, 1.0, [0.0] * 3, q_scalar=2.0)
            rep = single_shrinkage_report(spec)
            assert rep.ratio == pytest.approx(p, rel=1e-10)
            assert rep.condition_holds == (p > 2)

    def test_p_two_fails(self):
        spec = scalar_spec(2, 4, 12, [1.0] * 4, 1.0, [0.0] * 4)
        assert not single_shrinkage_report(spec).condition_holds

    def test_asymmetry_the_model_accepts(self):
        # validate_spec accepts V_1 with 0.9e-12 relative asymmetry, just
        # inside its tolerance.  Relative to M = V_1 - A that is 1.6e-12,
        # past it, so the report must take M's symmetric part.
        spec = scalar_spec(5, 5, 20, [1e-14 * i for i in range(1, 6)], 1.0, [0.0] * 5, 1.0)
        v1 = np.array(spec.V[0])
        v1[0, 1] += 0.9e-26
        skewed = ModelSpec(5, 5, 20, (v1, *spec.V[1:]), spec.Q, 1.0, spec.mu)
        assert validate_spec(skewed) == []
        assert single_shrinkage_report(skewed).ratio == pytest.approx(5.0, rel=1e-9)

    def test_asymmetric_q_the_model_accepts(self):
        # The same for Q, asymmetric to 0.8e-12 relative: it passes
        # validate_spec, and the reports take its symmetric part, about
        # 1e-13 [[1, 0.5], [0.5, 1]], as validate_spec does.
        spec = scalar_spec(2, 5, 20, [0.1 * i for i in range(1, 6)], 1.0, [0.0] * 5)
        q = 1e-13 * np.array([[1.0, 0.5 + 0.4e-12], [0.5 - 0.4e-12, 1.0]])
        skewed = ModelSpec(2, 5, 20, spec.V, q, 1.0, spec.mu)
        assert validate_spec(skewed) == []
        for rep in (
            single_shrinkage_report(skewed),
            lincomb_shrinkage_report(skewed, [1.0, 2.0, 3.0, 4.0, 5.0]),
        ):
            assert rep.ratio == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert double_shrinkage_report(skewed).ratio_pooled == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_entries_spanning_more_than_the_float_range_of_one(self):
        # Scaled so that its largest entry is 1, Q's 1e-300 underflowed to 0
        # and Q was "not positive definite".  Centred on the diagonal, both
        # ends stay representable: L'ML = c I, so the ratio is p = 3.
        V = tuple(i * np.diag([1e300, 1e-30, 1e-30]) for i in range(1, 6))
        spec = ModelSpec(3, 5, 20, V, np.diag([1e-300, 1e30, 1e30]), 1.0, np.zeros((5, 3)))
        assert validate_spec(spec) == []
        assert single_shrinkage_report(spec).ratio == pytest.approx(3.0, rel=1e-12)
        assert double_shrinkage_report(spec).ratio_pooled == pytest.approx(3.0, rel=1e-12)
        lin = lincomb_shrinkage_report(spec, [1.0, 2.0, 3.0, 4.0, 5.0])
        assert lin.ratio == pytest.approx(3.0, rel=1e-12)


class TestDoubleShrinkageReport:
    def test_benchmark_values(self):
        rep = double_shrinkage_report(benchmark_spec())
        assert rep.ratio_pooled == pytest.approx(5.0, rel=1e-12)
        assert rep.psi_upper_double == pytest.approx(3.0 / 22.0, rel=1e-12)
        assert rep.condition_holds

    def test_q_inverse_pooled_ratio_is_dimension(self):
        rng = np.random.default_rng(0)
        V = [random_spd(rng, 4) for _ in range(3)]
        mu = tuple(np.zeros(4) for _ in range(3))
        a = ModelSpec(p=4, k=3, n=12, V=tuple(V), Q=np.eye(4), sigma2=1.0, mu=mu).A
        spec = ModelSpec(
            p=4, k=3, n=12, V=tuple(V), Q=np.linalg.inv(a), sigma2=1.0, mu=mu,
        )
        rep = double_shrinkage_report(spec)
        assert rep.ratio_pooled == pytest.approx(4.0, rel=1e-9)

    def test_optimal_constants(self):
        spec = benchmark_spec()
        assert optimal_eb_constant(spec) == pytest.approx(3.0 / 22.0, rel=1e-12)
        a0, b0 = optimal_heb_constants(spec)
        assert a0 == pytest.approx(3.0 / 44.0, rel=1e-12)
        assert b0 == pytest.approx(3.0 / 44.0, rel=1e-12)


class TestLincombShrinkageReport:
    def test_first_basis_vector_matches_single(self):
        spec = benchmark_spec()
        single = single_shrinkage_report(spec)
        lin = lincomb_shrinkage_report(spec, [1.0, 0.0, 0.0, 0.0, 0.0])
        assert lin.trace == pytest.approx(single.trace, rel=1e-12)
        assert lin.chmax == pytest.approx(single.chmax, rel=1e-12)
        assert lin.ratio == pytest.approx(single.ratio, rel=1e-12)
        assert lin.phi_upper_single == pytest.approx(single.phi_upper_single, rel=1e-12)
        assert lin.condition_holds == single.condition_holds

    def test_identity_case_closed_form(self):
        p, k, n = 5, 4, 12
        spec = scalar_spec(p, k, n, [1.0] * k, 1.0, [0.0] * k, q_scalar=1.0)
        rng = np.random.default_rng(1)
        d = rng.standard_normal(k)
        rep = lincomb_shrinkage_report(spec, d)
        centered = ((d - d.mean()) ** 2).sum()
        assert rep.trace == pytest.approx(p * centered, rel=1e-10)
        assert rep.chmax == pytest.approx(centered, rel=1e-10)
        assert rep.phi_upper_single == pytest.approx(2.0 * (p - 2.0) / (n + 2.0), rel=1e-10)

    def test_two_sample_h_matrix_formulation(self):
        # For k = 2 the bound matrix can be written as
        # H = (V1+V2)^{-1/2} (d1 V1 - d2 V2) Q (d1 V1 - d2 V2) (V1+V2)^{-1/2};
        # trace and largest root must agree with the M_d Q formulation.
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = int(rng.integers(2, 5))
            v1, v2 = random_spd(rng, p), random_spd(rng, p)
            q = random_spd(rng, p)
            d = rng.standard_normal(2)
            spec = ModelSpec(
                p=p, k=2, n=10, V=(v1, v2), Q=q, sigma2=1.0,
                mu=(np.zeros(p), np.zeros(p)),
            )
            rep = lincomb_shrinkage_report(spec, d)
            w, u = np.linalg.eigh(v1 + v2)
            inv_sqrt = (u / np.sqrt(w)) @ u.T
            mid = d[0] * v1 - d[1] * v2
            h = inv_sqrt @ mid @ q @ mid @ inv_sqrt
            h = 0.5 * (h + h.T)
            assert rep.trace == pytest.approx(float(np.trace(h)), rel=1e-10)
            assert rep.chmax == pytest.approx(float(np.linalg.eigvalsh(h)[-1]), rel=1e-10)

    def test_pooling_weights_degenerate(self):
        # d_i proportional to A V_i^{-1} weights makes sum_i d_i (X_i - nu)
        # vanish identically; the report must fail with chmax = 0.
        spec = scalar_spec(4, 3, 10, [1.0, 2.0, 3.0], 1.0, [0.0] * 3)
        winv = np.array([1.0, 0.5, 1.0 / 3.0])
        d = winv / winv.sum()
        rep = lincomb_shrinkage_report(spec, d)
        assert rep.chmax == 0.0
        assert not rep.condition_holds


class TestSolveHbA:
    def test_benchmark_closed_form(self):
        a = solve_hb_a(benchmark_spec())
        assert a == pytest.approx(-7.72, abs=1e-12)

    def test_round_trip_residual(self):
        spec = benchmark_spec()
        a = solve_hb_a(spec)
        ratio = single_shrinkage_report(spec).ratio
        lhs = (20.0 + 2.0 * a) / (20.0 - 2.0 * (a + 1.0)) * 22.0
        assert abs(lhs - (ratio - 2.0)) < 1e-12

    def test_matches_bracketing_root_finder(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = int(rng.integers(3, 8))
            k = int(rng.integers(2, 6))
            n = int(rng.integers(8, 40))
            v = rng.uniform(0.2, 2.0, size=k)
            spec = scalar_spec(p, k, n, v, 1.0, [0.0] * k)
            rep = single_shrinkage_report(spec)
            if not rep.condition_holds:
                continue
            a = solve_hb_a(spec)
            r = rep.ratio - 2.0
            pk = p * (k - 1)

            def eqn(t):
                return (pk + 2.0 * t) / (n - 2.0 * (t + 1.0)) * (n + 2.0) - r

            lo, hi = -pk / 2.0 + 1e-9, n / 2.0 - 1.0 - 1e-9
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if eqn(mid) < 0:
                    lo = mid
                else:
                    hi = mid
            assert a == pytest.approx(0.5 * (lo + hi), abs=1e-8)

    def test_large_ratio_asymptote(self):
        # As R = ratio - 2 grows with the dimensions fixed, the solution of
        # the constant equation approaches (n - 2c)/2 from below; verify the
        # closed form against a bracketing root-finder along the way.
        p, k, n, c = 5, 2, 20, 1.0
        pk = p * (k - 1)
        for ratio in (10.0, 1e3, 1e6, 1e9):
            a = solve_hb_a_from_ratio(ratio, p, k, n, c)
            r = ratio - 2.0

            def eqn(t):
                return (pk + 2.0 * t) / (n - 2.0 * (t + c)) * (n + 2.0) - r

            lo, hi = -pk / 2.0 + 1e-12, n / 2.0 - c - 1e-12
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if eqn(mid) < 0:
                    lo = mid
                else:
                    hi = mid
            assert a == pytest.approx(0.5 * (lo + hi), abs=1e-9)
            assert a + c < n / 2.0
        assert solve_hb_a_from_ratio(1e9, p, k, n, c) == pytest.approx(
            (n - 2.0 * c) / 2.0, abs=1e-4
        )

    def test_condition_failure_raises(self):
        spec = scalar_spec(2, 3, 10, [1.0] * 3, 1.0, [0.0] * 3)
        with pytest.raises(ValueError, match="condition fails"):
            solve_hb_a(spec)

    def test_solution_outside_the_domain_raises_through_check_hb_domain(self):
        # Both bounds fail together, at c >= (n + p(k-1))/2 = 20 here, and the
        # lower one is checked first.
        with pytest.raises(ValueError, match=r"a must exceed -p\(k-1\)/2 = -10.0") as info:
            solve_hb_a_from_ratio(5.0, 5, 5, 20, c=20.0)
        assert info.traceback[-1].name == "check_hb_domain"
        assert solve_hb_a_from_ratio(5.0, 5, 5, 20, c=19.9) > -10.0

    def test_domain_bounds(self):
        check_hb_domain(5, 5, 20, -9.9, 19.8, 0.5)
        with pytest.raises(ValueError, match="a must exceed"):
            check_hb_domain(5, 5, 20, -10.0, 1.0)
        with pytest.raises(ValueError, match=r"a \+ c must be below n/2 = 10.0"):
            check_hb_domain(5, 5, 20, 4.0, 6.0)
        with pytest.raises(ValueError, match="L must be nonnegative"):
            check_hb_domain(5, 5, 20, 0.0, 1.0, -0.1)


class TestInvariants:
    def test_ratio_scale_invariance(self):
        spec = benchmark_spec()
        base = single_shrinkage_report(spec).ratio
        scaled_q = ModelSpec(
            p=5, k=5, n=20, V=spec.V, Q=3.0 * spec.Q, sigma2=2.0, mu=spec.mu
        )
        scaled_v = ModelSpec(
            p=5, k=5, n=20, V=tuple(0.25 * v for v in spec.V), Q=spec.Q,
            sigma2=2.0, mu=spec.mu,
        )
        assert single_shrinkage_report(scaled_q).ratio == pytest.approx(base, rel=1e-12)
        assert single_shrinkage_report(scaled_v).ratio == pytest.approx(base, rel=1e-12)

    def test_report_serialization(self):
        rep = double_shrinkage_report(benchmark_spec())
        payload = rep.as_dict()
        assert payload["condition_holds"] is True
        assert "psi_upper_double" in payload
        single = single_shrinkage_report(benchmark_spec()).as_dict()
        assert "psi_upper_double" not in single
