"""Micro-timings of the numerical kernels, called directly (untraced) on
inputs shaped like the benchmark experiment's (p = k = 5, n = 20, HB at the
solved constant a).  Each figure is the median of several timed calls."""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from poolshrink import estimators, numerics

P, K, N = 5, 5, 20
HB_A = -7.72  # solve_hb_a for the experiment's model
HB_L = 0.5


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def _hb_integrands(F_max: float, S: float):
    """The two outer HB integrands at L > 0, as the estimator integrates them."""
    qa = 0.5 * P * (K - 1) + HB_A
    m = 0.5 * (N + P * (K - 1)) - 1.0

    def integrands(x):
        tail = numerics.reg_upper_gamma(m + 1.0, 0.5 * HB_L * S * (x + 1.0))
        base = (1.0 + x) ** -(m + 1.0)
        return np.stack([x**qa * base * tail, x ** (qa - 1.0) * base * tail])

    return integrands


def kernel_timings(seed: int) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Kernel timings as (value, unit), and the kernels that no longer exist
    (timed as 0)."""
    rng = np.random.default_rng([seed, 3])
    F = rng.chisquare(P * (K - 1), 2048) / rng.chisquare(N, 2048)
    S = 4.0 * rng.chisquare(N, 2048)
    few = slice(0, 6)
    f_quantile = getattr(numerics, "f_quantile", None)
    phi_hb = getattr(estimators, "phi_hb", None)
    quad = getattr(numerics, "adaptive_quad_multi", None)
    cases = {
        "numerics.f_quantile.us_per_call": (
            f_quantile, 1e6, "us", 7, lambda: f_quantile(P * (K - 1), N, 0.05)),
        "estimators.phi_hb_l0.us_per_value": (
            phi_hb, 1e6 / F.size, "us", 7, lambda: phi_hb(F, 1.0, P, K, N, HB_A, 1.0, 0.0)),
        "estimators.phi_hb_lpos.ms_per_value": (
            phi_hb, 1e3 / 6, "ms", 3, lambda: phi_hb(F[few], S[few], P, K, N, HB_A, 1.0, HB_L)),
        "numerics.adaptive_quad_multi.ms_per_call": (
            quad, 1e3, "ms", 7, lambda: quad(_hb_integrands(F[0], S[0]), 0.0, F[0], rel_tol=1e-12)),
    }
    timings, absent = {}, []
    for name, (kernel, scale, unit, repeats, call) in cases.items():
        if kernel is None:
            timings[name] = (0.0, unit)
            absent.append(name)
        else:
            timings[name] = (scale * _median_time(call, repeats), unit)
    return timings, absent
