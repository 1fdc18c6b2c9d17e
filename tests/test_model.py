"""Model construction, validation, and the moments and loss of the
engine's draws."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from poolshrink.model import ModelSpec, scalar_spec, validate_spec
from poolshrink.risksim import _CHUNK_SIZE, SimPlan, _draw_noise, replication_sample


def _loss(diff, spec):
    """The scaled loss diff' Q diff / sigma^2 of each row of ``diff``."""
    return np.einsum("bi,ij,bj->b", diff, spec.Q, diff) / spec.sigma2


def benchmark_spec(mu=(0, 0, 0, 0, 0), sigma2=2.0):
    return scalar_spec(5, 5, 20, [0.1 * i for i in range(1, 6)], sigma2, mu)


class TestValidateSpec:
    def test_benchmark_config_valid(self):
        assert validate_spec(benchmark_spec()) == []

    def test_single_population_invalid(self):
        spec = ModelSpec(
            p=3, k=1, n=10, V=(np.eye(3),), Q=np.eye(3), sigma2=1.0, mu=(np.zeros(3),)
        )
        errors = validate_spec(spec)
        assert any(msg.startswith("k:") for msg in errors)

    def test_asymmetric_v_reported_by_name(self):
        v2 = np.eye(3)
        v2[0, 1] = 0.2
        spec = ModelSpec(
            p=3,
            k=2,
            n=10,
            V=(np.eye(3), v2),
            Q=np.eye(3),
            sigma2=1.0,
            mu=(np.zeros(3), np.zeros(3)),
        )
        errors = validate_spec(spec)
        assert any("V[1]" in msg for msg in errors)

    def test_asymmetric_v_below_unit_scale_reported(self):
        # The symmetry check used to be absolute below unit scale, so this
        # V[0] passed.
        v0 = 1e-13 * np.array([[1.0, 0.5], [0.0, 1.0]])
        spec = scalar_spec(2, 3, 10, [1e-13, 2e-13, 3e-13], 1.0, [0.0] * 3)
        skewed = ModelSpec(2, 3, 10, (v0, *spec.V[1:]), spec.Q, 1.0, spec.mu)
        assert validate_spec(skewed) == ["V[0] is not symmetric (relative tolerance 1e-12)"]

    def test_v1_minus_a_from_the_symmetric_part(self):
        # V[0] is symmetric to 1e-13 relative, within the tolerance, but
        # V[0] - A is 1e-12 V[0]: relative to it, V[0]'s asymmetry is 0.1.
        v0 = np.eye(2)
        v0[0, 1] = 1e-13
        spec = ModelSpec(2, 2, 10, (v0, 1e12 * np.eye(2)), np.eye(2), 1.0, (np.zeros(2),) * 2)
        assert validate_spec(spec) == []

    def test_nonpositive_sigma2(self):
        spec = scalar_spec(3, 2, 10, [1.0, 1.0], 1.0, [0.0, 0.0])
        bad = ModelSpec(
            p=3, k=2, n=10, V=spec.V, Q=spec.Q, sigma2=-1.0, mu=spec.mu
        )
        assert any(msg.startswith("sigma2:") for msg in validate_spec(bad))

    def test_wrong_lengths(self):
        spec = scalar_spec(3, 2, 10, [1.0, 1.0], 1.0, [0.0, 0.0])
        bad = ModelSpec(
            p=3, k=3, n=10, V=spec.V, Q=spec.Q, sigma2=1.0, mu=spec.mu
        )
        errors = validate_spec(bad)
        assert any(msg.startswith("V:") for msg in errors)
        assert any(msg.startswith("mu:") for msg in errors)

    @pytest.mark.parametrize("name", ["Q", "V[0]"])
    def test_nan_matrix_reported_by_name(self, name):
        # NaN passed the symmetry test and Cholesky without raising.
        spec = scalar_spec(3, 2, 10, [1.0, 2.0], 1.0, [0.0, 0.0])
        nan = np.full((3, 3), np.nan)
        if name == "Q":
            bad = ModelSpec(p=3, k=2, n=10, V=spec.V, Q=nan, sigma2=1.0, mu=spec.mu)
        else:
            bad = ModelSpec(p=3, k=2, n=10, V=(nan, spec.V[1]), Q=spec.Q, sigma2=1.0, mu=spec.mu)
        assert f"{name} has non-finite entries" in validate_spec(bad)


def fresh_spec(spec, mu):
    """A new model with the fields of ``spec`` and the means ``mu``."""
    return ModelSpec(spec.p, spec.k, spec.n, spec.V, spec.Q, spec.sigma2, tuple(mu))


def base_specs():
    """A valid p = k = 3 model and two invalid ones: V[1] asymmetric, and
    V[0] - A rounded to 0 (V[1] and V[2] are so large that A = V[0])."""
    spec = scalar_spec(3, 3, 10, [1.0, 2.0, 3.0], 1.0, [0.0] * 3)
    asymmetric = 2.0 * np.eye(3)
    asymmetric[0, 1] = 0.5
    return {
        "valid": spec,
        "asymmetric_v1": ModelSpec(
            3, 3, 10, (spec.V[0], asymmetric, spec.V[2]), spec.Q, 1.0, spec.mu
        ),
        "v0_minus_a_not_pd": ModelSpec(
            3, 3, 10, (np.eye(3), 1e20 * np.eye(3), 1e20 * np.eye(3)), spec.Q, 1.0, spec.mu
        ),
    }


BASES = base_specs()
MEANS = st.lists(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=4), min_size=1, max_size=4
)


class TestWithMeans:
    """Models derived with ``with_means`` share the base model's arrays,
    checks and cached values, which is sound because the arrays are
    read-only."""

    @pytest.mark.parametrize(
        "write",
        [
            lambda spec: spec.V[0].__setitem__((0, 0), 1.0),
            lambda spec: spec.Q.__setitem__((0, 0), 1.0),
            lambda spec: spec.mu[0].__setitem__(0, 1.0),
        ],
        ids=["V", "Q", "mu"],
    )
    def test_arrays_are_read_only(self, write):
        spec = benchmark_spec()
        with pytest.raises(ValueError, match="read-only"):
            write(spec)
        assert validate_spec(spec) == []

    def test_derived_spec_shares_the_model_and_owns_its_means(self):
        base = benchmark_spec()
        base.mu_stack  # cached on the base, and still not shared
        derived = base.with_means(np.arange(25.0).reshape(5, 5))
        assert derived.V is base.V and derived.Q is base.Q
        assert derived.v_inv is base.v_inv
        assert derived.A is base.A
        assert derived._model_errors is base._model_errors
        assert derived.mu_stack is not base.mu_stack
        np.testing.assert_array_equal(derived.mu_stack, np.arange(25.0).reshape(5, 5))
        np.testing.assert_array_equal(base.mu_stack, np.zeros((5, 5)))

    def test_derived_spec_is_its_fresh_twin_bit_for_bit(self):
        base = benchmark_spec()
        base.chol_scaled  # cached on the base, so the derived spec shares it
        mu = np.linspace(-1.0, 1.0, 25).reshape(5, 5)
        derived, fresh = base.with_means(mu), fresh_spec(base, mu)
        for name in ("chol_scaled", "v_inv", "precision", "A", "mu_stack"):
            assert np.array_equal(getattr(derived, name), getattr(fresh, name)), name


class TestWithMeansValidation:
    @pytest.mark.parametrize("base", list(BASES))
    @given(mu=MEANS)
    @example(mu=[[0.5] * 3] * 3)
    @example(mu=[[0.5] * 3] * 2)
    @example(mu=[[0.5] * 3, [0.5] * 2, [0.5] * 3])
    def test_matches_a_fresh_spec(self, base, mu):
        # Valid means, k - 1 means and a mean of the wrong length, on valid
        # and invalid bases.
        spec = BASES[base]
        errors = validate_spec(spec.with_means(mu))
        assert errors == validate_spec(fresh_spec(spec, mu))
        assert bool(errors) == (base != "valid" or [len(m) for m in mu] != [3, 3, 3])
        # The model's messages come first, and V[0] - A is checked even when
        # the means are malformed.
        assert errors[: len(spec._model_errors)] == list(spec._model_errors)
        assert ("V: V[0] - A is not positive definite" in errors) == (base == "v0_minus_a_not_pd")


def engine_draws(spec, seed, reps):
    """The first ``reps`` replications the engine draws at ``seed``: the
    means added to its noise, read chunk by chunk."""
    parts = [
        _draw_noise(spec, seed, c, min(_CHUNK_SIZE, reps - start))
        for c, start in enumerate(range(0, reps, _CHUNK_SIZE))
    ]
    xs = np.concatenate([noise for noise, _ in parts]) + spec.mu_stack
    return xs, np.concatenate([s for _, s in parts])


class TestSampleDraw:
    def test_degenerate_scale_collapses_to_means(self):
        spec = benchmark_spec(mu=(1, 2, 3, 4, 5), sigma2=1e-20)
        sample = replication_sample(SimPlan(spec, (), 1, 0), 0)
        np.testing.assert_allclose(sample.X, spec.mu_stack, atol=1e-8)
        assert 0.0 < sample.S < 1e-8

    def test_same_seed_reproduces_bit_for_bit(self):
        spec = benchmark_spec()
        x1, s1 = _draw_noise(spec, 42, 0, _CHUNK_SIZE)
        x2, s2 = _draw_noise(spec, 42, 0, _CHUNK_SIZE)
        assert np.array_equal(x1, x2)
        assert np.array_equal(s1, s2)

    @pytest.mark.parametrize("rows", [1, 2, 3, 8, 1696, 2047, 2048])
    def test_short_draw_is_prefix_of_full_chunk(self, rows, dense_spec):
        # S comes first in the stream, so the normals of a short draw start
        # where the full chunk's do; at one row the dense model's product
        # differs in the last bits unless it is taken over the whole chunk.
        for spec in (benchmark_spec(), dense_spec):
            full_x, full_s = _draw_noise(spec, 9, 2, _CHUNK_SIZE)
            x, s = _draw_noise(spec, 9, 2, rows)
            assert x.shape == (rows, spec.k, spec.p) and s.shape == (rows,)
            assert np.array_equal(x, full_x[:rows])
            assert np.array_equal(s, full_s[:rows])

    def test_empirical_mean_of_x1(self):
        spec = benchmark_spec(mu=(0.7, -0.3, 0.1, 0.0, 1.5))
        reps = 100_000
        xs, _ = engine_draws(spec, 11, reps)
        mean = xs[:, 0, :].mean(axis=0)
        # Var(X1[j]) = sigma2 * V1[j,j] = 2 * 0.1
        bound = 4.0 * np.sqrt(spec.sigma2 * 0.1 / reps)
        np.testing.assert_allclose(mean, spec.mu[0], atol=bound)

    def test_empirical_scale_moment(self):
        spec = benchmark_spec()
        reps = 100_000
        _, ss = engine_draws(spec, 12, reps)
        ratio = ss.sum() / reps / spec.sigma2
        assert ratio == pytest.approx(spec.n, abs=4.0 * np.sqrt(2.0 * spec.n / reps))


class TestLoss:
    # The scaled loss diff' Q diff / sigma2 the engine scores, at diff = d - mu_1.
    def test_zero_at_target(self):
        spec = scalar_spec(4, 2, 10, [1.0, 1.0], 2.0, [1.0, 1.0], q_scalar=1.0)
        assert _loss(np.ones((1, 4)) - spec.mu[0], spec)[0] == 0.0

    def test_direct_arithmetic(self):
        spec = scalar_spec(5, 2, 10, [1.0, 1.0], 2.0, [0.0, 0.0], q_scalar=10.0)
        delta = np.array([[1.0, 0.0, 0.0, 0.0, 0.0]])
        assert _loss(delta - spec.mu[0], spec)[0] == pytest.approx(5.0)

    def test_unshrunk_risk_matches_trace(self):
        # E[loss(X1)] = tr(V1 Q) = 5 at the benchmark configuration.
        spec = benchmark_spec(mu=(1, 1, 1, 1, 1))
        reps = 100_000
        xs, _ = engine_draws(spec, 13, reps)
        total = _loss(xs[:, 0, :] - spec.mu[0], spec).sum()
        assert total / reps == pytest.approx(5.0, abs=4.0 * np.sqrt(2.0 * 5.0 / reps))
