"""Exact risk oracles for the benchmark's equal-means rows, checked against
the shared acceptance run and, for a CLASS1 rule, one run of their own,
and for PT, EB, HB and CLASS1 on three seeded dense equal-means models,
with HB at L = 0 and at L > 0.

Under equal means the whitened GLS residual is N(0, sigma^2 P), with P a
projector of rank d = p(k-1); it is independent of nu_hat and S, and its
direction is uniform on the sphere independently of its length.  So the
PT rule, which shrinks X_1 fully to nu_hat when F <= t and not at all
otherwise, has risk/sigma^2 = tr(AQ) + tr((V_1 - A)Q) P(F' > t) and

    PRIAL = 100 tr((V_1 - A) Q) P(F' <= t) / tr(V_1 Q),

with F' = chi2_{d+2}/chi2_n by the size-biasing identity
E[X g(X)] = d E[g(chi2_{d+2})] for X ~ chi2_d.  Then F'/(1 + F') ~
Beta((d+2)/2, n/2), so the probability is I_z((d+2)/2, n/2) at
z = t/(1+t).  scipy supplies both the F quantile and the incomplete beta
function, so the oracle shares no numerics with the engine.

The same argument gives any rule X_1 - u(F)(X_1 - nu_hat) the risk

    risk/sigma^2 = tr(AQ) + tr((V_1 - A)Q) E[(1 - u(F'))^2],

a one-dimensional integral against the Beta law of F'/(1 + F').  EB has
u(F) = min(a0/F, 1).  HB at L = 0 has u(F) = phi(F)/F with

    phi(F) = (qa/b) I_z(qa + 1, b) / I_z(qa, b + 1),  z = F/(1 + F),

qa = p(k-1)/2 + a and b = n/2 - c - a, taken here from scipy's ``betainc``.
CLASS1 with phi(F, S) = c F/(1 + F) has u(F) = c/(1 + F).

HB at L > 0 has u = phi(F, S)/F, and phi depends on S = sigma^2 chi2_n as
well, so the mean is over the two independent chi-squares of F' =
chi2_{d+2}/chi2_n.  In T = F'/(1 + F') ~ Beta((d+2)/2, n/2) and R =
chi2_{d+2} + chi2_n ~ chi2_{n+d+2}, which are independent, S = sigma^2
R (1 - T), and E[(1 - u)^2] is a product Gauss-Jacobi by generalized
Gauss-Laguerre rule from scipy.  At each node phi is the ratio

    int_0^T z^qa (1-z)^(m-qa-1) Q dz / int_0^T z^(qa-1) (1-z)^(m-qa) Q dz,

Q = Q(m+1, kappa/(1-z))/Q(m+1, kappa), kappa = L S/2 and m = (n + d)/2 -
c, by scipy's ``quad_vec``.  For integer m + 1, Q(m+1, y) = e^-y
sum_{j<=m} y^j/j! (DLMF 8.4.10), taken in log space so that it cannot
underflow.

JS shrinks X_1 toward 0 and, with Q = V_1^{-1} as in the benchmark, has
at every mean the closed-form risk (James & Stein 1961; Bock 1975)

    risk/sigma^2 = p - (p-2)^2 n/(n+2) E[1/chi2_p(lam)],

lam = mu_1' V_1^{-1} mu_1 / sigma^2, where E[1/chi2_p(lam)] is the Poisson
mixture of 1/(p - 2 + 2K), K ~ Poisson(lam/2).
"""

import dataclasses

import numpy as np
import pytest
from scipy import integrate, special, stats

from poolshrink.estimators import EstimatorConfig
from poolshrink.minimax import single_shrinkage_report
from poolshrink.model import ModelSpec
from poolshrink.risksim import SimPlan, simulate_many, table1_preset


def full_shrink_prial(spec):
    """100 tr((V_1 - A)Q) / tr(V_1 Q): the PRIAL of nu_hat itself on an
    equal-means model."""
    a = np.linalg.inv(sum(np.linalg.inv(v) for v in spec.V))
    v1 = spec.V[0]
    return 100.0 * np.trace((v1 - a) @ spec.Q) / np.trace(v1 @ spec.Q)


def exact_pt_prial(spec, alpha):
    """The PT PRIAL of an equal-means model at level ``alpha``."""
    d = spec.p * (spec.k - 1)
    t = d / spec.n * stats.f.isf(alpha, d, spec.n)
    shrink_rate = special.betainc(0.5 * (d + 2), 0.5 * spec.n, t / (1.0 + t))
    return full_shrink_prial(spec) * shrink_rate


def exact_equal_means_prial(spec, factor, kinks=()):
    """The PRIAL of the rule X_1 - factor(F)(X_1 - nu_hat) on an
    equal-means model, integrating over w = F'/(1 + F') with a break at
    each of ``kinks``."""
    d = spec.p * (spec.k - 1)
    law = stats.beta(0.5 * (d + 2), 0.5 * spec.n)
    integrand = lambda w: (1.0 - factor(w / (1.0 - w))) ** 2 * law.pdf(w)
    edges = [0.0, *kinks, 1.0]
    kept = sum(
        integrate.quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-12)[0]
        for lo, hi in zip(edges, edges[1:])
    )
    return full_shrink_prial(spec) * (1.0 - kept)


def exact_js_risk(spec):
    """The JS risk/sigma^2 of a model with Q = V_1^{-1}."""
    v1_inv = np.linalg.inv(spec.V[0])
    assert np.allclose(spec.Q, v1_inv)
    lam = float(spec.mu[0] @ v1_inv @ spec.mu[0]) / spec.sigma2
    terms = np.arange(int(lam) + 100)
    weights = stats.poisson.pmf(terms, 0.5 * lam)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    p, n = spec.p, spec.n
    return p - (p - 2.0) ** 2 * n / (n + 2.0) * np.sum(weights / (p - 2.0 + 2.0 * terms))


def hb_lpos_mean_square(spec, a, c, L, nodes=24):
    """E[(1 - phi(F', S)/F')^2] of HB at L > 0 on an equal-means model, on
    ``nodes`` x ``nodes`` points of (T, R).  On the table1 model at L = 0.5
    and 5, 24 nodes agree with 48 to 5e-13."""
    d, n = spec.p * (spec.k - 1), spec.n
    qa, m = 0.5 * d + a, 0.5 * (n + d) - c
    j = np.arange(round(m + 1.0))[:, None]
    assert j.size == m + 1.0
    log_fact = special.gammaln(j + 1.0)
    xt, wt = special.roots_jacobi(nodes, 0.5 * n - 1.0, 0.5 * d)
    xr, wr = special.roots_genlaguerre(nodes, 0.5 * (n + d))
    t = np.repeat(0.5 * (1.0 + xt), nodes)
    kappa = 0.5 * L * spec.sigma2 * np.tile(2.0 * xr, nodes) * (1.0 - t)
    log_p = lambda y: special.logsumexp(j * np.log(y) - log_fact, axis=0)
    log_p0 = log_p(kappa)

    def integrands(v, scale):
        # In z = T v over v in [0, 1]: the numerator and the denominator,
        # each over its own magnitude, so that one relative tolerance
        # serves both at every node.
        z = t * v
        q = np.exp(-kappa * z / (1.0 - z) + log_p(kappa / (1.0 - z)) - log_p0)
        core = v ** (qa - 1.0) * (1.0 - z) ** (m - qa) * q
        return np.concatenate([core * v / (1.0 - z), core]) / scale

    scale = np.ones(2 * t.size)
    for _ in range(2):
        scale = scale * integrate.quad_vec(
            integrands, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, norm="max", args=(scale,)
        )[0]
    num, den = np.split(scale, 2)
    u = (1.0 - t) * num / den
    return (wt / wt.sum()) @ ((1.0 - u) ** 2).reshape(nodes, nodes) @ (wr / wr.sum())


TABLE1_PLANS = table1_preset(replications=1)

EQUAL_MEANS_PLANS = [
    (label, plan)
    for label, plan in TABLE1_PLANS
    if all(np.array_equal(mu, plan.spec.mu[0]) for mu in plan.spec.mu)
]


def _entry(reports, label, name):
    return {e.name: e for e in reports[label].estimators}[name]


def test_four_equal_means_rows():
    assert [label for label, _ in EQUAL_MEANS_PLANS] == [
        "(0,0,0,0,0)", "(1,1,1,1,1)", "(2,2,2,2,2)", "(3,3,3,3,3)"
    ]


@pytest.mark.parametrize(
    "label, plan", EQUAL_MEANS_PLANS, ids=[label for label, _ in EQUAL_MEANS_PLANS]
)
def test_pt_prial_matches_the_exact_value(table1_reports, label, plan):
    (pt,) = [cfg for cfg in plan.estimators if cfg.kind == "PT"]
    exact = exact_pt_prial(plan.spec, pt.alpha)
    assert exact == pytest.approx(52.1566, abs=1e-4)
    entry = _entry(table1_reports, label, "PT")
    assert abs(entry.prial - exact) <= 4.0 * entry.prial_std_error


@pytest.mark.parametrize(
    "label, plan", EQUAL_MEANS_PLANS, ids=[label for label, _ in EQUAL_MEANS_PLANS]
)
def test_eb_prial_matches_the_exact_value(table1_reports, label, plan):
    (eb,) = [cfg for cfg in plan.estimators if cfg.kind == "EB"]
    clipped = lambda f: np.minimum(eb.a0 / f, 1.0)
    exact = exact_equal_means_prial(plan.spec, clipped, kinks=[eb.a0 / (1.0 + eb.a0)])
    assert exact == pytest.approx(14.0511, abs=1e-4)
    entry = _entry(table1_reports, label, "EB")
    assert abs(entry.prial - exact) <= 4.0 * entry.prial_std_error


@pytest.mark.parametrize(
    "label, plan", EQUAL_MEANS_PLANS, ids=[label for label, _ in EQUAL_MEANS_PLANS]
)
def test_hb_prial_matches_the_exact_value(table1_reports, label, plan):
    (hb,) = [cfg for cfg in plan.estimators if cfg.kind == "HB"]
    assert hb.L == 0.0
    spec = plan.spec
    qa = 0.5 * spec.p * (spec.k - 1) + hb.a
    b = 0.5 * spec.n - hb.c - hb.a

    def factor(f):
        z = f / (1.0 + f)
        return qa / b * special.betainc(qa + 1.0, b, z) / special.betainc(qa, b + 1.0, z) / f

    exact = exact_equal_means_prial(spec, factor)
    assert exact == pytest.approx(13.9547, abs=1e-4)
    entry = _entry(table1_reports, label, "HB")
    assert abs(entry.prial - exact) <= 4.0 * entry.prial_std_error


def _table1_hb():
    _, plan = EQUAL_MEANS_PLANS[0]
    (hb,) = [cfg for cfg in plan.estimators if cfg.kind == "HB"]
    return plan.spec, hb


def test_hb_lpos_oracle_tends_to_the_l0_value():
    # As L -> 0, Q -> 1 and phi is the L = 0 ratio of incomplete betas.
    spec, hb = _table1_hb()
    exact = full_shrink_prial(spec) * (1.0 - hb_lpos_mean_square(spec, hb.a, hb.c, 1e-12))
    assert exact == pytest.approx(13.9547, abs=1e-4)


def test_hb_lpos_prials_match_the_exact_values():
    # The two HB entries of data/hb_config.json (L = 0.5 and 5, c = 1, a
    # derived) on the equal-means table1 model.
    spec, hb = _table1_hb()
    configs = [dataclasses.replace(hb, L=L, label=f"HB{L:g}") for L in (0.5, 5.0)]
    (report,) = simulate_many([SimPlan(spec, tuple(configs), 8192, 2024)])
    for cfg, entry, pinned in zip(configs, report.estimators, (10.1906, 1.2656)):
        exact = full_shrink_prial(spec) * (1.0 - hb_lpos_mean_square(spec, cfg.a, cfg.c, cfg.L))
        assert exact == pytest.approx(pinned, abs=1e-4)
        assert abs(entry.prial - exact) <= 4.0 * entry.prial_std_error


def test_class1_prial_matches_the_exact_value():
    specs = [plan.spec for _, plan in EQUAL_MEANS_PLANS]
    bound = single_shrinkage_report(specs[0]).phi_upper_single
    c = 0.5 * bound
    assert 0.0 < c < bound
    cfg = EstimatorConfig(kind="CLASS1", phi=lambda f, s: c * f / (1.0 + f))
    reports = simulate_many([SimPlan(spec, (cfg,), 100_000, 11) for spec in specs])
    exact = exact_equal_means_prial(specs[0], lambda f: c / (1.0 + f))
    for report in reports:
        (entry,) = report.estimators
        assert abs(entry.prial - exact) <= 4.0 * entry.prial_std_error
    # The four rows centre to the same draws, so their risks agree bit for bit.
    assert len({report.estimators[0].risk for report in reports}) == 1


def test_js_risk_at_the_origin():
    # E[1/chi2_5] = 1/3, so the risk is 5 - 3^2 (20/22)/3.
    label, plan = TABLE1_PLANS[0]
    assert label == "(0,0,0,0,0)"
    assert exact_js_risk(plan.spec) == pytest.approx(5.0 - 60.0 / 22.0, rel=1e-14)


@pytest.mark.parametrize("label, plan", TABLE1_PLANS, ids=[label for label, _ in TABLE1_PLANS])
def test_js_risk_matches_the_exact_value(table1_reports, label, plan):
    exact = exact_js_risk(plan.spec)
    entry = _entry(table1_reports, label, "JS")
    assert abs(entry.risk - exact) <= 4.0 * entry.std_error


def dense_equal_means_spec(seed, p=6, k=4, n=20):
    """A seeded model with dense SPD V_i and Q and one common mean."""
    rng = np.random.default_rng(seed)

    def spd(scale):
        # A random rotation of eigenvalues 0.2 to 5: far from diagonal.
        rot = np.linalg.qr(rng.standard_normal((p, p)))[0]
        m = scale * (rot * np.geomspace(0.2, 5.0, p)) @ rot.T
        return 0.5 * (m + m.T)

    V = tuple(spd(rng.uniform(0.3, 2.0)) for _ in range(k))
    mu = rng.normal(0.0, 3.0, p)
    return ModelSpec(p=p, k=k, n=n, V=V, Q=spd(rng.uniform(0.3, 2.0)), sigma2=1.5, mu=(mu,) * k)


def hb_l0_factor(spec, a, c):
    """phi_hb(F)/F at L = 0 from scipy's incomplete beta."""
    qa = 0.5 * spec.p * (spec.k - 1) + a
    b = 0.5 * spec.n - c - a

    def factor(f):
        z = f / (1.0 + f)
        return qa / b * special.betainc(qa + 1.0, b, z) / special.betainc(qa, b + 1.0, z) / f

    return factor


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dense_models_match_the_exact_prials(seed):
    # Q is not diagonal, so every loss mixes the coordinates of X_1 and
    # nu_hat; the oracles hold for any SPD V_i and Q under equal means.
    spec = dense_equal_means_spec(seed)
    a0, a, c, shrink = 0.3, -2.0, 1.0, 0.4
    configs = (
        EstimatorConfig(kind="PT", alpha=0.05),
        EstimatorConfig(kind="EB", a0=a0),
        EstimatorConfig(kind="HB", a=a, c=c),
        EstimatorConfig(kind="CLASS1", phi=lambda f, s: shrink * f / (1.0 + f)),
    )
    exact = [
        exact_pt_prial(spec, 0.05),
        exact_equal_means_prial(spec, lambda f: np.minimum(a0 / f, 1.0), kinks=[a0 / (1.0 + a0)]),
        exact_equal_means_prial(spec, hb_l0_factor(spec, a, c)),
        exact_equal_means_prial(spec, lambda f: shrink / (1.0 + f)),
    ]
    (report,) = simulate_many([SimPlan(spec, configs, 100_000, 5)])
    for entry, value in zip(report.estimators, exact):
        assert abs(entry.prial - value) <= 4.0 * entry.prial_std_error, entry.name


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dense_models_match_the_exact_hb_lpos_prials(seed):
    # HB at L > 0 on the same models: p(k-1) = 18, n = 20 and c = 1 give
    # m = 18, so the oracle's Q(m + 1, y) is a finite sum.
    spec = dense_equal_means_spec(seed)
    configs = tuple(
        EstimatorConfig(kind="HB", a=-2.0, c=1.0, L=L, label=f"HB{L:g}") for L in (0.5, 5.0)
    )
    (report,) = simulate_many([SimPlan(spec, configs, 16_384, 5)])
    for cfg, entry in zip(configs, report.estimators):
        exact = full_shrink_prial(spec) * (1.0 - hb_lpos_mean_square(spec, cfg.a, cfg.c, cfg.L))
        assert abs(entry.prial - exact) <= 4.0 * entry.prial_std_error, entry.name
