"""Numerical kernel: SPD matrix utilities, extreme roots of SPD products,
regularized incomplete beta/gamma functions, F-distribution quantiles, and
adaptive Gauss-Kronrod quadrature.

Everything here is pure and reentrant; no state is shared between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureError",
    "QuadratureResult",
    "adaptive_quad_multi",
    "chmax_product",
    "f_quantile",
    "log_lower_inc_beta",
    "reg_inc_beta",
    "reg_upper_gamma",
    "sym_sqrt",
    "trace_product",
    "validate_spd",
]

# Relative tolerance for symmetry of SPD inputs.
SYM_RTOL = 1e-12

_TINY = 1e-300
_CF_EPS = 1e-15
_CF_MAXIT = 500


# ---------------------------------------------------------------------------
# SPD matrix helpers
# ---------------------------------------------------------------------------


def _as_square(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    return m


def symmetrize(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return the symmetric part of ``m`` after checking ``m`` is symmetric
    to within a 1e-12 relative tolerance."""
    m = _as_square(m, name)
    scale = max(1.0, float(np.max(np.abs(m))))
    if float(np.max(np.abs(m - m.T))) > SYM_RTOL * scale:
        raise ValueError(f"{name} is not symmetric (relative tolerance {SYM_RTOL})")
    return 0.5 * (m + m.T)


def validate_spd(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate that ``m`` is symmetric positive definite.

    Symmetry is required to a 1e-12 relative tolerance; positive
    definiteness is defined by a successful Cholesky factorization.
    Returns the symmetrized matrix.
    """
    ms = symmetrize(m, name)
    try:
        np.linalg.cholesky(ms)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} is not positive definite") from None
    return ms


def sym_sqrt(q: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Symmetric square root of an SPD matrix via its eigendecomposition."""
    qs = symmetrize(q, name)
    w, u = np.linalg.eigh(qs)
    if w[0] <= 0.0:
        raise ValueError(f"{name} is not positive definite")
    return (u * np.sqrt(w)) @ u.T


def trace_product(m: np.ndarray, q: np.ndarray) -> float:
    """tr(MQ) for symmetric M, Q without forming the product."""
    m = np.asarray(m, dtype=float)
    q = np.asarray(q, dtype=float)
    if m.shape != q.shape:
        raise ValueError(f"dimension mismatch: {m.shape} vs {q.shape}")
    return float(np.sum(m * q.T))


def chmax_product(m: np.ndarray, q: np.ndarray) -> float:
    """Largest characteristic root of the product MQ.

    M must be symmetric positive semidefinite and Q symmetric positive
    definite.  MQ itself is not symmetric, but it is similar to
    Q^{1/2} M Q^{1/2}, whose spectrum is real and nonnegative, so the
    largest eigenvalue is computed from that symmetric matrix.
    """
    m = symmetrize(m, "M")
    q = _as_square(q, "Q")
    if m.shape != q.shape:
        raise ValueError(f"dimension mismatch: M {m.shape} vs Q {q.shape}")
    rq = sym_sqrt(q, "Q")
    s = rq @ m @ rq
    s = 0.5 * (s + s.T)
    lam = float(np.linalg.eigvalsh(s)[-1])
    return max(lam, 0.0)


# ---------------------------------------------------------------------------
# Regularized incomplete beta function
# ---------------------------------------------------------------------------


def _beta_cont_frac(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta (modified Lentz), applied
    elementwise.  Valid for x < (a + 1) / (a + b + 2)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d = np.where(np.abs(d) < _TINY, _TINY, d)
    d = 1.0 / d
    h = d.copy()
    for m in range(1, _CF_MAXIT + 1):
        m2 = 2.0 * m
        num = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + num * d
        d = np.where(np.abs(d) < _TINY, _TINY, d)
        c = 1.0 + num / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        d = 1.0 / d
        h = h * d * c
        num = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + num * d
        d = np.where(np.abs(d) < _TINY, _TINY, d)
        c = 1.0 + num / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        if np.all(np.abs(delta - 1.0) < _CF_EPS):
            return h
    raise ValueError("incomplete beta continued fraction did not converge")


def reg_inc_beta(a: float, b: float, x):
    """Regularized incomplete beta function I_x(a, b).

    Parameters
    ----------
    a, b : float
        Positive shape parameters.
    x : float or ndarray
        Evaluation point(s) in [0, 1].

    Evaluated by the standard continued fraction, using the symmetry
    I_x(a, b) = 1 - I_{1-x}(b, a) to stay in its region of fast
    convergence.  Relative accuracy is ~1e-13 or better.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    xarr = np.asarray(x, dtype=float)
    if np.any((xarr < 0.0) | (xarr > 1.0)):
        raise ValueError("x must lie in [0, 1]")
    scalar = xarr.ndim == 0
    xv = np.atleast_1d(xarr).astype(float)

    swap = xv > (a + 1.0) / (a + b + 2.0)
    xs = np.where(swap, 1.0 - xv, xv)
    aa = np.where(swap, b, a)
    bb = np.where(swap, a, b)

    ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_front = aa * np.log(xs) + bb * np.log1p(-xs) - ln_beta
        front = np.where(xs > 0.0, np.exp(log_front) / aa, 0.0)
    cf = _beta_cont_frac(aa, bb, xs)
    res = front * cf
    out = np.where(swap, 1.0 - res, res)
    out = np.clip(out, 0.0, 1.0)
    if scalar:
        return float(out[0])
    return out.reshape(xarr.shape)


def log_lower_inc_beta(a: float, b: float, x):
    """Natural log of the unregularized lower incomplete beta
    B_x(a, b) = integral_0^x t^(a-1) (1-t)^(b-1) dt.

    Stable for x arbitrarily close to 0, where the integral itself
    underflows: the continued-fraction factor is O(1) there and the
    power-law prefactor is kept in log space.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    xarr = np.asarray(x, dtype=float)
    if np.any((xarr < 0.0) | (xarr >= 1.0)):
        raise ValueError("x must lie in [0, 1)")
    scalar = xarr.ndim == 0
    xv = np.atleast_1d(xarr).astype(float)
    out = np.full_like(xv, -np.inf)

    thresh = (a + 1.0) / (a + b + 2.0)
    direct = (xv > 0.0) & (xv <= thresh)
    if np.any(direct):
        xd = xv[direct]
        cf = _beta_cont_frac(np.full_like(xd, a), np.full_like(xd, b), xd)
        out[direct] = a * np.log(xd) + b * np.log1p(-xd) - math.log(a) + np.log(cf)
    rest = xv > thresh
    if np.any(rest):
        ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        reg = np.atleast_1d(reg_inc_beta(a, b, xv[rest]))
        out[rest] = ln_beta + np.log(reg)
    if scalar:
        return float(out[0])
    return out.reshape(xarr.shape)


# ---------------------------------------------------------------------------
# Regularized upper incomplete gamma function
# ---------------------------------------------------------------------------


def reg_upper_gamma(s: float, x):
    """Regularized upper incomplete gamma Q(s, x) = Gamma(s, x) / Gamma(s).

    Series expansion of the lower function for x < s + 1, continued
    fraction for the upper function otherwise (Lentz algorithm).
    """
    if not s > 0.0:
        raise ValueError(f"shape parameter must be positive, got s={s}")
    xarr = np.asarray(x, dtype=float)
    if np.any(xarr < 0.0):
        raise ValueError("x must be nonnegative")
    scalar = xarr.ndim == 0
    xv = np.atleast_1d(xarr).astype(float)
    out = np.empty_like(xv)

    lg = math.lgamma(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pref = -xv + s * np.log(xv) - lg
    pref = np.where(xv > 0.0, np.exp(log_pref), 0.0)

    lower = xv < s + 1.0
    if np.any(lower):
        xl = xv[lower]
        term = np.full_like(xl, 1.0 / s)
        total = term.copy()
        ap = s
        for _ in range(_CF_MAXIT):
            ap += 1.0
            term = term * xl / ap
            total += term
            if np.all(np.abs(term) < np.abs(total) * _CF_EPS):
                break
        else:
            raise ValueError("incomplete gamma series did not converge")
        out[lower] = 1.0 - pref[lower] * total

    upper = ~lower
    if np.any(upper):
        xu = xv[upper]
        b = xu + 1.0 - s
        c = np.full_like(xu, 1.0 / _TINY)
        d = 1.0 / b
        h = d.copy()
        for i in range(1, _CF_MAXIT + 1):
            an = -i * (i - s)
            b = b + 2.0
            d = an * d + b
            d = np.where(np.abs(d) < _TINY, _TINY, d)
            c = b + an / c
            c = np.where(np.abs(c) < _TINY, _TINY, c)
            d = 1.0 / d
            delta = d * c
            h = h * delta
            if np.all(np.abs(delta - 1.0) < _CF_EPS):
                break
        else:
            raise ValueError("incomplete gamma continued fraction did not converge")
        out[upper] = pref[upper] * h

    out = np.clip(out, 0.0, 1.0)
    if scalar:
        return float(out[0])
    return out.reshape(xarr.shape)


# ---------------------------------------------------------------------------
# F-distribution quantile
# ---------------------------------------------------------------------------


def _bisect_monotone(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Bisection for an increasing fn with fn(lo) < 0 < fn(hi); runs to
    floating-point fixpoint."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if fn(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def f_quantile(d1: int, d2: int, alpha: float) -> float:
    """Upper-alpha point of the F distribution: the q with P(F > q) = alpha.

    Inverted from the regularized incomplete beta by bisection on the tail
    variable, which keeps full relative precision for small alpha.
    """
    if d1 < 1 or d2 < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got ({d1}, {d2})")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    a = 0.5 * d1
    b = 0.5 * d2
    if alpha <= 0.5:
        # Solve I_w(b, a) = alpha for w = d2 / (d1 q + d2); small w <-> large q.
        w = _bisect_monotone(lambda t: reg_inc_beta(b, a, t) - alpha, 0.0, 1.0)
        return (d2 / d1) * (1.0 - w) / w
    # Solve I_z(a, b) = 1 - alpha for z = d1 q / (d1 q + d2).
    z = _bisect_monotone(lambda t: reg_inc_beta(a, b, t) - (1.0 - alpha), 0.0, 1.0)
    return (d2 / d1) * z / (1.0 - z)


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

# 15-point Kronrod nodes on [-1, 1] (positive half; symmetric) and weights,
# with the embedded 7-point Gauss weights.
_XGK = np.array(
    [
        0.9914553711208126,
        0.9491079123427585,
        0.8648644233597691,
        0.7415311855993944,
        0.5860872354676911,
        0.4058451513773972,
        0.2077849550078985,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.0229353220105292,
        0.0630920926299785,
        0.1047900103222502,
        0.1406532597155259,
        0.1690047266392679,
        0.1903505780647854,
        0.2044329400752989,
        0.2094821410847278,
    ]
)
_WG = np.array(
    [
        0.1294849661688697,
        0.2797053914892767,
        0.3818300505051189,
        0.4179591836734694,
    ]
)

# Full node/weight arrays over all 15 abscissae, ordered low to high.
_NODES = np.concatenate([-_XGK[:7], _XGK[7:][::-1], _XGK[6::-1]])
_W_KRON = np.concatenate([_WGK[:7], _WGK[7:][::-1], _WGK[6::-1]])
_w_gauss_half = np.zeros(8)
_w_gauss_half[1:7:2] = _WG[:3]
_w_gauss_half[7] = _WG[3]
_W_GAUSS = np.concatenate([_w_gauss_half[:7], _w_gauss_half[7:][::-1], _w_gauss_half[6::-1]])
del _w_gauss_half


@dataclass(frozen=True)
class QuadratureResult:
    """Value of a definite integral with its error estimate."""

    value: float
    abs_error_estimate: float
    evaluations: int


class QuadratureError(RuntimeError):
    """Raised when adaptive subdivision fails to reach the tolerance.

    Carries the best estimate obtained so far in ``best_result``.
    """

    def __init__(self, message: str, best_result: QuadratureResult):
        super().__init__(message)
        self.best_result = best_result


def _gk15_panel(f_multi, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """One Gauss-Kronrod 7-15 panel for a vector-valued integrand.

    ``f_multi`` maps an array of abscissae to an array of shape
    (n_components, n_points).  Returns (kronrod values, error estimates)
    per component.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    xs = mid + half * _NODES
    fx = np.asarray(f_multi(xs), dtype=float)
    if fx.ndim == 1:
        fx = fx[np.newaxis, :]
    kron = half * (fx @ _W_KRON)
    gauss = half * (fx @ _W_GAUSS)
    return kron, np.abs(kron - gauss)


def adaptive_quad_multi(
    f_multi,
    lo: float,
    hi: float,
    rel_tol: float = 1e-10,
    max_levels: int = 60,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Adaptive Gauss-Kronrod quadrature of several integrands at once.

    All components share the same panel subdivision: the panel with the
    worst error (relative to its component's running total) is split until
    every component meets ``rel_tol``.  Returns (values, error estimates,
    total evaluations).
    """
    if not lo < hi:
        raise ValueError(f"integration bounds must satisfy lo < hi, got [{lo}, {hi}]")
    kron, err = _gk15_panel(f_multi, lo, hi)
    ncomp = kron.shape[0]
    evals = 15
    # Panels: (lo, hi, depth, kronrod values, error estimates).
    panels = [(lo, hi, 0, kron, err)]

    def totals():
        vals = np.zeros(ncomp)
        errs = np.zeros(ncomp)
        for _, _, _, k, e in panels:
            vals += k
            errs += e
        return vals, errs

    for _ in range(100_000):
        vals, errs = totals()
        scale = np.maximum(np.abs(vals), _TINY)
        if np.all(errs <= rel_tol * scale):
            order = sorted(range(len(panels)), key=lambda i: panels[i][0])
            vals = np.array(
                [math.fsum(panels[i][3][c] for i in order) for c in range(ncomp)]
            )
            errs = np.array(
                [math.fsum(panels[i][4][c] for i in order) for c in range(ncomp)]
            )
            return vals, errs, evals
        # Split the panel contributing the largest scaled error.
        worst_idx = max(
            range(len(panels)), key=lambda i: float(np.max(panels[i][4] / scale))
        )
        plo, phi_, depth, _, _ = panels.pop(worst_idx)
        if depth >= max_levels:
            raise QuadratureError(
                f"quadrature did not converge within {max_levels} subdivision levels",
                QuadratureResult(float(vals[0]), float(errs[0]), evals),
            )
        mid = 0.5 * (plo + phi_)
        kl, el = _gk15_panel(f_multi, plo, mid)
        kr, er = _gk15_panel(f_multi, mid, phi_)
        evals += 30
        panels.append((plo, mid, depth + 1, kl, el))
        panels.append((mid, phi_, depth + 1, kr, er))
    raise QuadratureError(
        "quadrature exceeded the panel budget",
        QuadratureResult(float(totals()[0][0]), float(totals()[1][0]), evals),
    )

