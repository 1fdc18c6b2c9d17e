"""Exact risk oracles for the benchmark's equal-means rows, checked against
the shared acceptance run (no Monte Carlo of their own).

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
"""

import numpy as np
import pytest
from scipy import special, stats

from poolshrink.risksim import table1_preset


def exact_pt_prial(spec, alpha):
    """The PT PRIAL of an equal-means model at level ``alpha``."""
    d = spec.p * (spec.k - 1)
    t = d / spec.n * stats.f.isf(alpha, d, spec.n)
    a = np.linalg.inv(sum(np.linalg.inv(v) for v in spec.V))
    v1 = spec.V[0]
    shrink_rate = special.betainc(0.5 * (d + 2), 0.5 * spec.n, t / (1.0 + t))
    return 100.0 * np.trace((v1 - a) @ spec.Q) * shrink_rate / np.trace(v1 @ spec.Q)


EQUAL_MEANS_PLANS = [
    (label, plan)
    for label, plan in table1_preset(replications=1)
    if all(np.array_equal(mu, plan.spec.mu[0]) for mu in plan.spec.mu)
]


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
    entry = {e.name: e for e in table1_reports[label].estimators}["PT"]
    assert abs(entry.prial - exact) <= 4.0 * entry.prial_std_error
