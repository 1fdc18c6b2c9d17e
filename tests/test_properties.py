"""Property tests on random dense models: every estimator kind against its
formula written with solve-based numpy, the batched statistics against the
solve-based reference, the bound and monotonicity of phi_hb, short chunk
draws as prefixes of full ones, and plans of one noise group sharing work
without changing a bit.  The derandomized profile in conftest fixes the
examples."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from poolshrink.cli import parse_estimators
from poolshrink.estimators import (
    ESTIMATORS,
    EstimatorConfig,
    estimate,
    phi_hb,
    preset_config,
    pt_threshold,
    rule_estimates,
)
from poolshrink.minimax import (
    double_shrinkage_report,
    lincomb_shrinkage_report,
    single_shrinkage_report,
)
from poolshrink import risksim
from poolshrink.model import ModelSpec, Sample, scalar_spec
from poolshrink.risksim import (
    _CHUNK_SIZE,
    SimPlan,
    _draw_noise,
    simulate_many,
    simulate_risk,
)
from poolshrink.statistics import batch_pooled_stats, pooled_noise_stats

B = 2  # samples per example, evaluated as one batch
ALPHA = 0.05


def dense_spd(rng, p, scale):
    w = rng.standard_normal((p, p))
    return scale * (np.eye(p) + w @ w.T / p)


@st.composite
def dense_problems(draw):
    """A dense model and B samples (X, S) drawn from a seeded generator."""
    p = draw(st.integers(2, 6))
    k = draw(st.integers(2, 5))
    n = draw(st.integers(3, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V = [dense_spd(rng, p, rng.uniform(0.2, 2.0)) for _ in range(k)]
    Q = dense_spd(rng, p, rng.uniform(0.2, 2.0))
    mu = rng.normal(0.0, 1.0, (k, p))
    spec = ModelSpec(p=p, k=k, n=n, V=tuple(V), Q=Q, sigma2=1.0, mu=tuple(mu))
    X = mu + rng.normal(0.0, 1.0, (B, k, p))
    S = rng.chisquare(n, B)
    return spec, X, S


def configs(spec):
    q = 0.5 * spec.p * (spec.k - 1)
    d = np.linspace(1.0, 0.2, spec.k)
    return [
        EstimatorConfig(kind="PT", alpha=ALPHA),
        EstimatorConfig(kind="JS"),
        EstimatorConfig(kind="EB", a0=0.3),
        EstimatorConfig(kind="HB", a=-0.5 * q, c=1.0, L=0.0),
        EstimatorConfig(kind="HEB", a0=0.2, b0=0.1),
        EstimatorConfig(kind="CLASS1", phi=lambda f, s: np.minimum(0.4, f)),
        EstimatorConfig(
            kind="CLASS2",
            phi=lambda f, s: 0.3 * f / (1.0 + f),
            psi=lambda g, s: np.minimum(0.2, g),
        ),
        EstimatorConfig(kind="LINCOMB", d=tuple(d), phi=lambda f, s: np.minimum(0.25, f)),
    ]


def solved_stats(spec, x, s):
    """nu_hat, F and G written with solves only."""
    eye = np.eye(spec.p)
    prec = sum(np.linalg.solve(v, eye) for v in spec.V)
    nu = np.linalg.solve(prec, sum(np.linalg.solve(v, xi) for v, xi in zip(spec.V, x)))
    dev = x - nu
    quad = sum(float(di @ np.linalg.solve(v, di)) for v, di in zip(spec.V, dev))
    return nu, quad / s, float(nu @ prec @ nu) / s


def formula(cfg, spec, x, s, pt_thr):
    """The estimator of ``cfg`` on one sample, straight from its definition;
    ``pt_thr`` is the PT rejection threshold for F."""
    nu, F, G = solved_stats(spec, x, s)
    x1 = x[0]
    if cfg.kind == "PT":
        return x1 if F > pt_thr else nu
    if cfg.kind == "JS":
        norm2 = float(x1 @ np.linalg.solve(spec.V[0], x1))
        return x1 - (spec.p - 2.0) / (spec.n + 2.0) * s / norm2 * x1
    if cfg.kind == "EB":
        return x1 - min(cfg.a0 / F, 1.0) * (x1 - nu)
    if cfg.kind == "HB":
        phi = phi_hb(F, s, spec.p, spec.k, spec.n, cfg.a, cfg.c, cfg.L)
        return x1 - phi / F * (x1 - nu)
    if cfg.kind == "HEB":
        return x1 - min(cfg.a0 / F, 1.0) * (x1 - nu) - min(cfg.b0 / G, 1.0) * nu
    if cfg.kind == "CLASS1":
        return x1 - float(cfg.phi(F, s)) / F * (x1 - nu)
    if cfg.kind == "CLASS2":
        return x1 - float(cfg.phi(F, s)) / F * (x1 - nu) - float(cfg.psi(G, s)) / G * nu
    return np.asarray(cfg.d) @ (x - float(cfg.phi(F, s)) / F * (x - nu))


def assert_close(got, want, rtol, scale):
    """Agreement to rtol relative to ``scale``, the size of the inputs, since
    outputs may cancel to near zero."""
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * scale)


@settings(max_examples=30)
@given(dense_problems())
def test_estimate_matches_formula(problem):
    # estimate() is the B = 1 call of the batched rule: it must match the
    # written-out formula and the rule's row for the same sample.
    spec, X, S = problem
    nu, F, G = batch_pooled_stats(spec, X, S)
    pt_thr = pt_threshold(spec.p, spec.k, spec.n, ALPHA)
    assume(np.all(np.abs(F - pt_thr) > 1e-8 * pt_thr))
    for cfg in configs(spec):
        x = ESTIMATORS[cfg.kind].estimand(cfg, spec) @ X
        rows = rule_estimates(cfg, spec, x, S, nu, F)
        for b in range(B):
            scale = np.max(np.abs(X[b]))
            single = estimate(Sample(X=X[b], S=S[b]), spec, cfg)
            assert_close(single, formula(cfg, spec, X[b], S[b], pt_thr), 1e-10, scale)
            assert_close(rows[b], single, 1e-12, scale)


@settings(max_examples=40)
@given(dense_problems())
def test_batched_stats_match_solved_reference(problem):
    spec, X, S = problem
    nu, F, G = batch_pooled_stats(spec, X, S)
    for b in range(B):
        nu_ref, F_ref, G_ref = solved_stats(spec, X[b], S[b])
        assert_close(nu[b], nu_ref, 1e-10, np.max(np.abs(X[b])))
        assert_close(F[b], F_ref, 1e-10, F_ref)
        assert_close(G[b], G_ref, 1e-10, G_ref)


@st.composite
def large_dense_batches(draw):
    """A dense model with p <= 20, k <= 6 and a batch of 7 samples."""
    p = draw(st.integers(1, 20))
    k = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V = [dense_spd(rng, p, rng.uniform(0.2, 2.0)) for _ in range(k)]
    Q = dense_spd(rng, p, rng.uniform(0.2, 2.0))
    mu = rng.normal(0.0, 1.0, (k, p))
    spec = ModelSpec(p=p, k=k, n=10, V=tuple(V), Q=Q, sigma2=rng.uniform(0.5, 3.0), mu=tuple(mu))
    X = mu + rng.normal(0.0, 1.0, (7, k, p))
    return spec, X, rng.chisquare(10, 7)


@settings(max_examples=40)
@given(large_dense_batches())
def test_contractions_match_einsum_forms(problem):
    # The matrix-product forms of the statistics and the loss against the
    # three-operand einsum expressions they replaced.
    spec, X, S = problem
    winv = spec.v_inv
    nu_ref = np.einsum("kij,bkj->bi", winv, X) @ spec.A
    dev = X - nu_ref[:, None, :]
    F_ref = np.einsum("bki,kij,bkj->b", dev, winv, dev) / S
    G_ref = np.einsum("bi,ij,bj->b", nu_ref, spec.precision, nu_ref) / S
    nu, F, G = batch_pooled_stats(spec, X, S)
    assert_close(nu, nu_ref, 1e-13, np.max(np.abs(X)))
    np.testing.assert_allclose(F, F_ref, rtol=1e-13)
    np.testing.assert_allclose(G, G_ref, rtol=1e-13)
    for est in (X[:, 0, :], nu):
        diff = est - spec.mu[0]
        loss_ref = np.einsum("bi,ij,bj->b", diff, spec.Q, diff) / spec.sigma2
        product = np.einsum("bi,bi->b", diff @ spec.Q, diff) / spec.sigma2
        np.testing.assert_allclose(product, loss_ref, rtol=1e-13)


def nu_of(spec, means):
    """nu_hat of one (k, p) sample."""
    return pooled_noise_stats(spec, means[np.newaxis])[0][0]


@st.composite
def loss_frames(draw):
    """A dense model with p <= 8 and a dense Q, a frame of it (rows of
    a = w . noise and the noise's nu_hat n, the target t = w . mu and
    m = nu_hat(mu), for w = e_1 or random weights and means up to 1e15,
    equal or not) and coefficients (u, v): the first four rows (1, 0),
    (0, 1), (0, 0) and (1, 1), then four of the shrinking kinds' form
    (1 - f, f sum_i w_i), whose K = v m + (u - 1) t cancels at equal
    means, then four dyadic pairs."""
    p = draw(st.integers(1, 8))
    k = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V = [dense_spd(rng, p, rng.uniform(0.2, 2.0)) for _ in range(k)]
    mu = rng.normal(0.0, 1.0, (1 if draw(st.booleans()) else k, p)) + np.zeros((k, p))
    mu *= draw(st.sampled_from([1.0, 1e3, 1e8, 1e15]))
    spec = ModelSpec(p=p, k=k, n=10, V=tuple(V), Q=dense_spd(rng, p, rng.uniform(0.2, 2.0)),
                     sigma2=rng.uniform(0.5, 3.0), mu=tuple(mu))
    noise = rng.normal(0.0, 1.0, (12, k, p))
    w = np.eye(1, k)[0] if draw(st.booleans()) else rng.uniform(-1.0, 1.0, k)
    f = rng.integers(0, 1025, 4) / 1024.0
    coefs = np.hstack([[[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0]], [1.0 - f, f * w.sum()],
                       rng.integers(-2048, 2049, (2, 4)) / 1024.0])
    return spec, w @ noise, pooled_noise_stats(spec, noise)[0], w @ mu, nu_of(spec, mu), coefs


@settings(max_examples=40)
@given(loss_frames())
def test_form_loss_matches_direct_loss(frame):
    # The engine's loss from the frame's forms against the direct loss of
    # r = u x + v nu_hat - t = y + K with x = a + t, nu_hat = n + m,
    # y = u a + v n and K = v m + (u - 1) t, in exact rational arithmetic.
    # Rounding the forms of y costs eps Y^2, and rounding K's forms and
    # coefficients eps S (R + Y) + (eps S)^2, for Y and S the q-norms of
    # |u| |a| + |v| |n| and |v| |m| + |u - 1| |t| and R that of r: linear in
    # the size S of the constants, not quadratic, so a K that cancels costs
    # no more than rounding x = a + t did.  With u = 1 and v = 0 the loss is
    # exactly that of x.
    spec, a, n, t, m, (u, v) = frame
    q = 0.5 * (spec.Q + spec.Q.T)
    aq, nq = a @ q, n @ q
    base = [np.einsum("bi,bi->b", x, y) for x, y in ((aq, a), (2.0 * aq, n), (nq, n))]
    got = risksim._form_loss((u, v), risksim._frame_forms(q, aq, nq, base, m, t))
    assert got[0] == base[0][0]
    exact = lambda x: [Fraction(float(e)) for e in np.ravel(x)]
    Q, t_, m_ = exact(spec.Q), exact(t), exact(m)
    q_norm = lambda z: math.sqrt(float(z @ np.abs(spec.Q) @ z))
    for b in range(len(u)):
        U, W = Fraction(u[b]), Fraction(v[b])
        r = [U * (ai + ti) + W * (ni + mi) - ti
             for ai, ni, ti, mi in zip(exact(a[b]), exact(n[b]), t_, m_)]
        p = len(r)
        loss = sum(r[i] * Q[i * p + j] * r[j] for i in range(p) for j in range(p))
        Y = q_norm(abs(u[b]) * np.abs(a[b]) + abs(v[b]) * np.abs(n[b]))
        S = q_norm(abs(v[b]) * np.abs(m) + abs(u[b] - 1.0) * np.abs(t))
        bound = 1e-13 * (Y * Y + S * (math.sqrt(float(loss)) + Y) + 1e-13 * S * S)
        assert abs(got[b] - float(loss)) <= bound, b


F_GRID = np.geomspace(1e-300, 1e300, 601)


@settings(max_examples=30)
@given(large_dense_batches(), st.integers(1, _CHUNK_SIZE), st.integers(0, 2**32 - 1))
def test_short_draw_is_prefix_of_full_chunk(problem, rows, seed):
    # Replication r's draw must not depend on how many rows of its chunk a
    # plan keeps: a draw of ``rows`` rows is the full chunk's, bit for bit.
    spec = problem[0]
    full_x, full_s = _draw_noise(spec, seed, 1, _CHUNK_SIZE)
    x, s = _draw_noise(spec, seed, 1, rows)
    assert np.array_equal(x, full_x[:rows]) and np.array_equal(s, full_s[:rows])


@settings(max_examples=30)
@given(
    p=st.integers(1, 8),
    k=st.integers(2, 6),
    n=st.integers(1, 40),
    c_frac=st.floats(0.0, 0.5),
    a_frac=st.floats(0.01, 0.99),
)
def test_phi_hb_bounded_and_nondecreasing(p, k, n, c_frac, a_frac):
    # a ranges over its domain (-p(k-1)/2, n/2 - c).
    q = 0.5 * p * (k - 1)
    c = c_frac * 0.5 * n
    a = -q + a_frac * (0.5 * n - c + q)
    bound = (p * (k - 1) + 2.0 * a) / (n - 2.0 * (a + c))
    vals = phi_hb(F_GRID, 1.0, p, k, n, a, c, 0.0)
    assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
    assert np.all(vals <= bound * (1.0 + 1e-12))
    assert np.all(np.diff(vals) >= -1e-12 * bound)


S_GRID = np.geomspace(1e-300, 1e300, 61)
F_COARSE = F_GRID[::5]


@settings(max_examples=20)
@given(
    p=st.integers(1, 8),
    k=st.integers(2, 6),
    n=st.integers(1, 40),
    c_frac=st.floats(0.0, 0.5),
    a_frac=st.floats(0.01, 0.99),
    L=st.floats(0.01, 5.0),
)
def test_phi_hb_positive_l_bounded_and_monotone(p, k, n, c_frac, a_frac, L):
    # The L = 0 property's domain, with S from 1e-300 to 1e300: finite,
    # within [0, bound], nondecreasing in F and nonincreasing in S.
    q = 0.5 * p * (k - 1)
    c = c_frac * 0.5 * n
    a = -q + a_frac * (0.5 * n - c + q)
    bound = (p * (k - 1) + 2.0 * a) / (n - 2.0 * (a + c))
    for S in (S_GRID[0], 1e-8, 1.0, 1e8, S_GRID[-1]):
        vals = phi_hb(F_COARSE, S, p, k, n, a, c, L)
        assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
        assert np.all(vals <= bound * (1.0 + 1e-12))
        assert np.all(np.diff(vals) >= -1e-12 * bound)
    for F in (1e-3, 1.0, 1e3, 1e12):
        vals = phi_hb(F, S_GRID, p, k, n, a, c, L)
        assert np.all(np.isfinite(vals))
        assert np.all(np.diff(vals) <= 1e-12 * bound)


@st.composite
def minimax_models(draw):
    """A dense model whose trace-ratio conditions hold, and a c drawn across
    HB's admissible range c < (n + p(k-1))/2 of the bound-optimal a."""
    p = draw(st.integers(3, 10))
    k = draw(st.integers(2, 6))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.floats(0.0, 1.0))
    V = [rng.uniform(0.2, 2.0) * (np.eye(p) + spread * dense_spd(rng, p, 1.0)) for _ in range(k)]
    Q = np.eye(p) + spread * dense_spd(rng, p, 1.0)
    spec = ModelSpec(p=p, k=k, n=n, V=tuple(V), Q=Q, sigma2=1.0, mu=tuple(np.zeros((k, p))))
    assume(double_shrinkage_report(spec).condition_holds)
    c = draw(st.floats(-1.0, 0.99)) * 0.5 * (n + p * (k - 1))
    return spec, c


@settings(max_examples=40)
@given(minimax_models())
def test_config_defaults_meet_their_bounds(model):
    # The constants a config entry omits: EB and HEB at the midpoints of
    # their ranges, and HB's a putting sup phi_hb at the double-shrinkage
    # bound for the entry's own c.
    spec, c = model
    entries = [{"kind": "EB"}, {"kind": "HEB"}, {"kind": "HB", "c": c}]
    eb, heb, hb = parse_estimators(entries, spec, default_alpha=ALPHA)
    single = single_shrinkage_report(spec)
    double = double_shrinkage_report(spec)
    assert eb.a0 == single.phi_upper_single / 2
    assert (heb.a0, heb.b0) == (double.phi_upper_double / 2, double.psi_upper_double / 2)
    q2 = spec.p * (spec.k - 1)
    sup = (q2 + 2.0 * hb.a) / (spec.n - 2.0 * (hb.a + hb.c))
    assert hb.c == c
    assert sup == pytest.approx(double.phi_upper_double, rel=1e-12)


@settings(max_examples=40)
@given(minimax_models())
def test_preset_constants_equal_their_formulas(model):
    # The EB, HEB and HB preset constants, written out from the trace
    # ratios, hold bit for bit however the minimax module derives them.
    spec, _ = model
    ratio = single_shrinkage_report(spec).ratio
    ratio_pooled = double_shrinkage_report(spec).ratio_pooled
    n, pk = spec.n, spec.p * (spec.k - 1.0)
    r = ratio - 2.0
    assert preset_config("EB", spec).a0 == (ratio - 2.0) / (n + 2.0)
    heb = preset_config("HEB", spec)
    assert heb.a0 == 0.5 * (ratio - 2.0) / (n + 2.0)
    assert heb.b0 == 0.5 * (ratio_pooled - 2.0) / (n + 2.0)
    hb = preset_config("HB", spec)
    assert hb.a == (r * (n - 2.0 * 1.0) - pk * (n + 2.0)) / (2.0 * (n + 2.0) + 2.0 * r)


def rescale(spec, i, j):
    """The model ``spec`` with V times 2^i and Q times 2^j."""
    V = tuple(np.ldexp(v, i) for v in spec.V)
    Q = np.ldexp(spec.Q, j)
    return ModelSpec(p=spec.p, k=spec.k, n=spec.n, V=V, Q=Q, sigma2=1.0, mu=spec.mu)


@st.composite
def rescaled_models(draw, step=1, span=150):
    """A dense model, weights d, and the same model and weights in other
    units: V times 2^i, Q times 2^j and d times 2^l, where i, j and l are
    ``step`` times integers in [-span, span]."""
    p = draw(st.integers(1, 4))
    k = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V = [dense_spd(rng, p, rng.uniform(0.2, 2.0)) for _ in range(k)]
    Q = dense_spd(rng, p, rng.uniform(0.2, 2.0))
    d = rng.normal(0.0, 1.0, k)
    i, j, l = (step * draw(st.integers(-span, span)) for _ in range(3))
    mu = tuple(np.zeros((k, p)))
    spec = ModelSpec(p=p, k=k, n=10, V=tuple(V), Q=Q, sigma2=1.0, mu=mu)
    return spec, d, rescale(spec, i, j), np.ldexp(d, l)


@settings(max_examples=60)
@given(rescaled_models())
def test_minimax_reports_do_not_depend_on_units(models):
    # tr(M Q)/Ch_max(M Q) is invariant under rescaling V, Q and d, and so is
    # whether Ch_max counts as zero.
    spec, d, scaled, scaled_d = models
    pairs = [
        (single_shrinkage_report(spec), single_shrinkage_report(scaled)),
        (double_shrinkage_report(spec), double_shrinkage_report(scaled)),
        (lincomb_shrinkage_report(spec, d), lincomb_shrinkage_report(scaled, scaled_d)),
    ]
    for base, moved in pairs:
        assert moved.condition_holds == base.condition_holds
        for key in ("ratio", "ratio_pooled"):
            if getattr(base, key) is not None:
                np.testing.assert_allclose(getattr(moved, key), getattr(base, key), rtol=1e-9)


TABLE1 = scalar_spec(5, 5, 20, [0.1 * i for i in range(1, 6)], 1.0, [0.0] * 5)
TABLE1_D = np.array([1.0, 2.0, 3.0, 4.0, 5.0])


@settings(max_examples=80)
@given(rescaled_models(step=2, span=240))
@example((TABLE1, TABLE1_D, rescale(TABLE1, 480, 480), TABLE1_D))
@example((TABLE1, TABLE1_D, rescale(TABLE1, -480, -480), TABLE1_D))
def test_minimax_reports_are_built_at_unit_scale(models):
    # Built in the model's own units, the trace underflowed or overflowed
    # beyond 4^(+-200), and the ratio with it.  With V times 4^i and Q times
    # 4^j, the ratio, the condition and the bounds are the same bits; the
    # trace and Ch_max are the unit values times 4^(i + j) while that is
    # finite.  The weights keep their units: at 4^240, M_d itself overflows.
    spec, d, scaled, _ = models
    # 2(i + j), read back from the two models.
    shift = sum(
        math.frexp(b[0, 0])[1] - math.frexp(a[0, 0])[1]
        for a, b in ((spec.V[0], scaled.V[0]), (spec.Q, scaled.Q))
    )
    pairs = [
        (single_shrinkage_report(spec), single_shrinkage_report(scaled)),
        (double_shrinkage_report(spec), double_shrinkage_report(scaled)),
        (lincomb_shrinkage_report(spec, d), lincomb_shrinkage_report(scaled, d)),
    ]
    for base, moved in pairs:
        base, moved = base.as_dict(), moved.as_dict()
        assert base.keys() == moved.keys()
        for key, value in base.items():
            if key.startswith(("trace", "chmax")):
                try:
                    expected = math.ldexp(value, shift)
                except OverflowError:
                    continue
                assert moved[key] == expected, key
            else:
                # Bit for bit, NaN equal to NaN.
                assert moved[key] == value or (math.isnan(value) and math.isnan(moved[key])), key


@st.composite
def shifted_plans(draw):
    """Plans of one noise group, all with the estimators of ``configs``:
    dyadic means, the same means under a common shift, which centre to the
    same bits, the means under another shift with a second Q, and
    arbitrary means; the replication counts differ."""
    p = draw(st.integers(1, 4))
    k = draw(st.integers(2, 4))
    n = draw(st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V = tuple(dense_spd(rng, p, rng.uniform(0.2, 2.0)) for _ in range(k))
    Qs = [dense_spd(rng, p, rng.uniform(0.2, 2.0)) for _ in range(2)]
    base = rng.integers(-32, 33, (k, p)) / 8.0
    shifts = [draw(st.integers(-40, 40)) / 4.0 for _ in range(2)]
    reps = [draw(st.sampled_from([1, 700, 2048, 2049])) for _ in range(3)]
    models = [
        (base, Qs[0], reps[0]),
        (base + shifts[0], Qs[0], reps[0]),
        (base + shifts[1], Qs[1], reps[1]),
        (rng.normal(0.0, 1.0, (k, p)), Qs[0], reps[2]),
    ]
    specs = [ModelSpec(p=p, k=k, n=n, V=V, Q=Q, sigma2=1.5, mu=tuple(mu)) for mu, Q, _ in models]
    estimators = tuple(configs(specs[0]))
    return [SimPlan(spec, estimators, r, 11) for spec, (_, _, r) in zip(specs, models)]


@settings(max_examples=12)
@given(shifted_plans())
def test_shared_group_matches_plans_run_alone(plans):
    alone = [repr(simulate_risk(plan)) for plan in plans]
    for workers in (1, 2):
        assert [repr(report) for report in simulate_many(plans, workers)] == alone
    # The first two plans differ by a common shift only and centre to the
    # same bits, so the equivariant kinds see the same draws.
    reports = simulate_many(plans)
    centred = [plan.spec.mu_stack - plan.spec.mu_stack[0] for plan in plans]
    assert centred[0].tobytes() == centred[1].tobytes()
    for i in range(len(plans)):
        for j in range(i):
            a, b = plans[i], plans[j]
            if (centred[i].tobytes(), a.spec.Q.tobytes(), a.replications) != (
                centred[j].tobytes(), b.spec.Q.tobytes(), b.replications
            ):
                continue
            for cfg, x, y in zip(a.estimators, reports[i].estimators, reports[j].estimators):
                if ESTIMATORS[cfg.kind].equivariant:
                    assert repr((x.name, x.risk, x.std_error)) == repr((y.name, y.risk, y.std_error))
