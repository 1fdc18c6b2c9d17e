"""Independent reference computations for the benchmark's output checks.

Everything here is written from the model's formulas with numpy and scipy;
nothing calls into poolshrink, so a defect there cannot hide in the oracle.
scipy is imported inside the functions that need it, so that building a
workload (which uses ``trace_ratio``) does not pay for importing it.
"""

from __future__ import annotations

import numpy as np

# Reference PRIAL values of the benchmark experiment (5,000-replication
# study, about +-1 point of Monte Carlo noise), copied from
# tests/test_acceptance.py::REFERENCE_PRIAL.  label -> PT, JS, EB, HB, HEB.
REFERENCE_PRIAL = {
    "(0,0,0,0,0)": (52.15317, 53.97469, 14.66425, 14.57437, 26.38606),
    "(1,1,1,1,1)": (52.15317, 12.89115, 14.66425, 14.57437, 9.891098),
    "(2,2,2,2,2)": (52.15317, 4.066823, 14.66425, 14.57437, 8.516356),
    "(3,3,3,3,3)": (52.15317, 2.268442, 14.66425, 14.57437, 8.249028),
    "(-0.4,-0.2,0,0.2,0.4)": (37.34717, 37.20396, 13.01833, 12.97352, 22.64692),
    "(2,-0.5,-0.5,-0.5,-0.5)": (-56.8291, 4.066823, 3.213333, 3.213459, 6.031053),
    "(4,-1,-1,-1,-1)": (0.7375904, 1.620614, 1.358956, 1.358821, 2.098222),
    "(1.2,1.4,1.6,1.8,2)": (37.34717, 9.463467, 13.01833, 12.97352, 8.397694),
    "(0.2,2,2,2,2)": (-98.94453, 49.73141, 4.947591, 4.949466, 5.183324),
    "(0.4,4,4,4,4)": (-2.492994, 37.56052, 1.805795, 1.80584, 2.071347),
    "(2,0,0,0,0)": (-94.45962, 4.066823, 4.439434, 4.440511, 4.479298),
}
REFERENCE_ESTIMATORS = ("PT", "JS", "EB", "HB", "HEB")
EQUAL_MEAN_LABELS = ("(0,0,0,0,0)", "(1,1,1,1,1)", "(2,2,2,2,2)", "(3,3,3,3,3)")


def trace_ratio(m: np.ndarray, q: np.ndarray) -> float:
    """tr(MQ) / largest eigenvalue of MQ."""
    ev = np.linalg.eigvals(m @ q).real
    return float(ev.sum() / ev.max())


def hb_constant(ratio: float, p: int, k: int, n: int, c: float = 1.0) -> float:
    """HB prior constant a solving (p(k-1) + 2a)(n + 2) / (n - 2(a + c)) = ratio - 2."""
    r = ratio - 2.0
    pk = p * (k - 1.0)
    return (r * (n - 2.0 * c) - pk * (n + 2.0)) / (2.0 * (n + 2.0) + 2.0 * r)


def phi_hb_l0(F: float, p: int, k: int, n: int, a: float, c: float = 1.0) -> float:
    """HB shrink function at L = 0 as a ratio of regularized incomplete betas."""
    from scipy import special

    q = 0.5 * p * (k - 1)
    m = 0.5 * (n + p * (k - 1)) - c
    qa = q + a
    z = F / (1.0 + F)
    return qa / (m - qa) * special.betainc(qa + 1.0, m - qa, z) / special.betainc(qa, m - qa + 1.0, z)


def phi_hb_lpos(F: float, S: float, p: int, k: int, n: int, a: float, c: float, L: float) -> float:
    """HB shrink function at L > 0 by scipy quadrature of the outer integrals
    after the inner precision integral is done in closed form."""
    from scipy import integrate, special

    q = 0.5 * p * (k - 1)
    m = 0.5 * (n + p * (k - 1)) - c
    qa = q + a

    def integrand(x: float, power: float) -> float:
        return x**power * (1.0 + x) ** -(m + 1.0) * special.gammaincc(m + 1.0, 0.5 * L * S * (1.0 + x))

    num = integrate.quad(integrand, 0.0, F, args=(qa,), epsabs=0.0, epsrel=1e-13, limit=200)[0]
    den = integrate.quad(integrand, 0.0, F, args=(qa - 1.0,), epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return num / den


def point_estimates(V, Q, n: int, X: np.ndarray, S: float, alpha: float = 0.05) -> dict:
    """nu_hat, F, G and the five preset estimates (bound-optimal constants)
    for one data set.  ``PT_alt`` holds the other PT branch when F sits
    within 1e-9 of the test threshold, where either answer is acceptable."""
    from scipy import stats

    k, p = X.shape
    vinv = [np.linalg.inv(v) for v in V]
    prec = sum(vinv)
    A = np.linalg.inv(prec)
    nu = A @ sum(vi @ x for vi, x in zip(vinv, X))
    F = sum((x - nu) @ vi @ (x - nu) for vi, x in zip(vinv, X)) / S
    G = nu @ prec @ nu / S
    ratio = trace_ratio(V[0] - A, Q)
    ratio_pooled = trace_ratio(A, Q)
    x1 = X[0]
    d1 = p * (k - 1)

    thr = d1 / n * stats.f.isf(alpha, d1, n)
    pt, pt_other = (x1, nu) if F > thr else (nu, x1)
    eb_a0 = (ratio - 2.0) / (n + 2.0)
    heb_a0, heb_b0 = 0.5 * eb_a0, 0.5 * (ratio_pooled - 2.0) / (n + 2.0)
    phi = phi_hb_l0(F, p, k, n, hb_constant(ratio, p, k, n))
    return {
        "nu_hat": nu,
        "F": F,
        "G": G,
        "PT": pt,
        "PT_alt": pt_other if abs(F - thr) <= 1e-9 * thr else None,
        "JS": x1 - (p - 2.0) / (n + 2.0) * S / (x1 @ vinv[0] @ x1) * x1,
        "EB": x1 - min(eb_a0 / F, 1.0) * (x1 - nu),
        "HB": x1 - phi / F * (x1 - nu),
        "HEB": x1 - min(heb_a0 / F, 1.0) * (x1 - nu) - min(heb_b0 / G, 1.0) * nu,
    }
