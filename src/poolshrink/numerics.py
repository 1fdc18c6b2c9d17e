"""Numerical kernel: SPD matrix utilities, extreme roots of SPD products,
the regularized incomplete beta function, the log lower incomplete gamma
ratio, F-distribution quantiles, and Gauss-Legendre quadrature rules.

Everything here is pure and reentrant; no state is shared between calls.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureError",
    "chmax_product",
    "f_quantile",
    "gauss_legendre",
    "reg_inc_beta",
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
    """Return the symmetric part of ``m`` after checking ``m`` is finite and
    symmetric to within a 1e-12 relative tolerance."""
    m = _as_square(m, name)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    if float(abs(m - m.T).max()) > SYM_RTOL * float(abs(m).max()):
        raise ValueError(f"{name} is not symmetric (relative tolerance {SYM_RTOL})")
    return 0.5 * (m + m.T)


def validate_spd(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate that ``m`` is symmetric positive definite.

    Symmetry is required to a 1e-12 relative tolerance; positive
    definiteness is defined by a successful Cholesky factorization.
    Returns the symmetrized matrix.
    """
    ms = symmetrize(m, name)
    _cholesky(ms, name)
    return ms


def _cholesky(m: np.ndarray, name: str) -> np.ndarray:
    """Lower Cholesky factor of the symmetric ``m``, or ValueError naming it."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} is not positive definite") from None


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
    definite.  MQ itself is not symmetric, but with the Cholesky factor
    Q = LL' it is similar to L'ML, whose spectrum is real and nonnegative,
    so the largest eigenvalue is computed from that symmetric matrix.
    """
    m = symmetrize(m, "M")
    low = _cholesky(symmetrize(q, "Q"), "Q")
    if m.shape != low.shape:
        raise ValueError(f"dimension mismatch: M {m.shape} vs Q {low.shape}")
    s = low.T @ m @ low
    s = 0.5 * (s + s.T)
    lam = float(np.linalg.eigvalsh(s)[-1])
    return max(lam, 0.0)


# ---------------------------------------------------------------------------
# Regularized incomplete beta and gamma functions
# ---------------------------------------------------------------------------


def _beta_cont_frac(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """The incomplete beta continued fraction 1/(1 + d_1 x/(1 + d_2 x/(1 + ...)))
    of DLMF 8.17.22, for scalar a, b and an array of x in [0, x_e], the
    region where it converges fast, and slowest at x_e = (a + 1)/(a + b + 2).

    It is cut after d_{2N+1}, N the step at which the modified Lentz test
    |delta - 1| < 1e-15 passes at x_e, and evaluated backward, t <- 1 +
    d_j x / t, on the whole array.  N depends only on (a, b), so no value
    depends on its batch.  Raises ValueError if the test fails for
    ``_CF_MAXIT`` steps."""
    if not x.size:
        return x
    coef = [-(a + b) / (a + 1.0)]
    xe = (a + 1.0) / (a + b + 2.0)
    c, d = 1.0, 1.0 / (1.0 + coef[0] * xe)  # 1 + d_1 x_e = 2/(a + b + 2)
    for m in range(1, _CF_MAXIT + 1):
        coef += [m * (b - m) / ((a + 2 * m - 1) * (a + 2 * m)),
                 -(a + m) * (a + b + m) / ((a + 2 * m) * (a + 2 * m + 1))]
        for dx in (coef[-2] * xe, coef[-1] * xe):
            d = 1.0 + dx * d
            d = 1.0 / (d if abs(d) >= _TINY else _TINY)
            c = 1.0 + dx / c
            c = c if abs(c) >= _TINY else _TINY
        if abs(c * d - 1.0) < _CF_EPS:
            break
    else:
        raise ValueError("incomplete beta continued fraction did not converge")
    t = 1.0
    for dj in reversed(coef):
        t = 1.0 + dj * x / t
    return 1.0 / t


def reg_inc_beta(a: float, b: float, x):
    """Regularized incomplete beta function I_x(a, b).

    Parameters
    ----------
    a, b : float
        Positive shape parameters.
    x : float or ndarray
        Evaluation point(s) in [0, 1]; NaN is rejected.

    Evaluated by ``_beta_cont_frac``, at a depth fixed by (a, b), on the side
    of I_x(a, b) = 1 - I_{1-x}(b, a) where it converges fast.  Relative error
    is about 1e-13 plus 5e-16 lgamma(a + b) from the prefactor's lgamma terms.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    xarr = np.asarray(x, dtype=float)
    if not np.all((xarr >= 0.0) & (xarr <= 1.0)):
        raise ValueError("x must lie in [0, 1]")
    scalar = xarr.ndim == 0
    xv = np.atleast_1d(xarr).astype(float)

    ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    out = np.empty_like(xv)
    swap = xv > (a + 1.0) / (a + b + 2.0)
    for side, aa, bb, xs in ((~swap, a, b, xv), (swap, b, a, 1.0 - xv)):
        xs = xs[side]
        with np.errstate(divide="ignore"):
            front = np.exp(aa * np.log(xs) + bb * np.log1p(-xs) - ln_beta) / aa
        out[side] = front * _beta_cont_frac(aa, bb, xs)
    out[swap] = 1.0 - out[swap]
    out = np.clip(out, 0.0, 1.0)
    if scalar:
        return float(out[0])
    return out.reshape(xarr.shape)


def _by_depth(s: float, x: np.ndarray, depth: Callable):
    """(order, n, steps): the order of x by falling depth, the depths in that
    order, and the pairs (i, k) for i from the largest depth down to 1, k
    the number of x whose depth is at least i.  The gamma series and
    fraction converge slower the nearer x lies to the branch edge s + 1, so
    x takes the depth depth(s, d, _CF_MAXIT) at the point (s+1)(1+d) that
    is nearest the edge in its octave of distance x/(s+1) - 1 from it:
    [d, 2d) for d > 0, (2d, d] for d < 0, or d = 0.  So no value depends
    on its batch, and the values far from the edge take fewer steps."""
    mant, exp = np.frexp(x / (s + 1.0) - 1.0)
    near = np.ldexp(np.clip(mant, -0.5, 0.5), exp)
    # The distinct octaves.  (np.unique would do, but its first call costs
    # more than a megabyte of peak memory.)
    octaves = np.sort(near)
    octaves = octaves[np.diff(octaves, prepend=-np.inf) > 0.0]
    n = [depth(s, float(d), _CF_MAXIT) for d in octaves]
    n = np.array(n, dtype=np.int16)[np.searchsorted(octaves, near)]
    order = np.argsort(-n, kind="stable")
    i = np.arange(n.max(initial=0), 0, -1)
    return order, n[order], zip(i.tolist(), np.searchsorted(-n[order], -i, side="right").tolist())


@lru_cache(maxsize=4096)
def _series_depth(s: float, d: float, maxit: int) -> int:
    """The first term of the series of P below 1e-15 of the sum, at x =
    (s+1)(1+d), within maxit terms.  Term i over term i-1 is x/(s+i), which
    grows with x."""
    term = total = 1.0 / s
    for n in range(1, maxit + 1):
        term *= (s + 1.0) * (1.0 + d) / (s + n)
        total += term
        if term < total * _CF_EPS:
            return n
    raise ValueError("incomplete gamma series did not converge")


def _series_tail(s: float, x: np.ndarray) -> np.ndarray:
    """t_2 = 1 + x/(s+2) (1 + ...), the series of P(s, x) for x < s + 1 but
    its last backward step, summed from the depth of ``_by_depth``; step i
    runs on the prefix of x whose depth is >= i."""
    order, _, steps = _by_depth(s, x, _series_depth)
    xs, t = x[order], np.ones_like(x)
    for i, k in steps:
        if i > 1:
            t[:k] = 1.0 + xs[:k] * t[:k] / (s + i)
    out = np.empty_like(x)
    out[order] = t
    return out


@lru_cache(maxsize=4096)
def _fraction_depth(s: float, d: float, maxit: int) -> int:
    """The step at which the modified Lentz test |delta - 1| < 1e-15 passes
    on the fraction of Q, at x = (s+1)(1+d), within maxit steps.  Its b_i
    grow with x, and so does its speed of convergence."""
    b0 = 2.0 + (s + 1.0) * d  # x + 1 - s
    c, h = 1.0 / _TINY, 1.0 / b0
    for n in range(1, maxit + 1):
        an = -n * (n - s)
        h = 1.0 / (an * h + b0 + 2 * n)
        c = b0 + 2 * n + an / c
        if abs(c * h - 1.0) < _CF_EPS:
            return n
    raise ValueError("incomplete gamma continued fraction did not converge")


def _gamma_cont_frac(s: float, x: np.ndarray) -> np.ndarray:
    """The continued fraction 1/(b_0 + a_1/(b_1 + a_2/(b_2 + ...))), a_i =
    -i(i-s), b_i = x + 1 - s + 2i, of Q(s, x) for x >= s + 1 (Numerical
    Recipes, section 6.2), cut after a_N, N the depth of ``_by_depth``, and
    evaluated backward, t <- b_{i-1} + a_i/t, step i on the prefix of x
    whose depth is >= i.  The Lentz denominators stay near b_i >= 2 + 2i,
    and the backward tails positive, so neither needs a guard."""
    order, n, steps = _by_depth(s, x, _fraction_depth)
    b0 = x[order] + 1.0 - s
    t = b0 + 2.0 * n
    for i, k in steps:
        t[:k] = b0[:k] + 2 * (i - 1) - i * (i - s) / t[:k]
    out = np.empty_like(x)
    out[order] = 1.0 / t
    return out


def _log_lower_gamma(s: float, log_y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log P(s, y), log P(s+1, y)) at y = exp(log_y), from one pass.  For
    y < s + 1 from the series, P(s, y) = y^s e^-y/Gamma(s+1) (1 + y/(s+1) t_2)
    and P(s+1, y) = y^(s+1) e^-y/Gamma(s+2) t_2, t_2 of ``_series_tail``,
    which hold where P is tiny or y underflows; otherwise P = 1 - Q, with
    Q(s, y) by ``_gamma_cont_frac`` and Q(s+1, y) = Q(s, y) + y^s e^-y/Gamma(s+1).
    log_y is taken at 690 or less, where Q underflows for s below 1e297."""
    log_y = np.minimum(log_y, 690.0)
    y = np.exp(log_y)
    front = s * log_y - y - math.lgamma(s + 1.0)  # log y^s e^-y/Gamma(s+1)
    log_p, log_p1 = np.empty_like(y), np.empty_like(y)
    lower = y < s + 1.0
    yl = y[lower]
    tail = _series_tail(s, yl)
    log_p[lower] = front[lower] + np.log1p(yl * tail / (s + 1.0))
    log_p1[lower] = front[lower] + log_y[lower] - math.log(s + 1.0) + np.log(tail)
    term = np.exp(front[~lower])
    q = s * term * _gamma_cont_frac(s, y[~lower])
    log_p[~lower], log_p1[~lower] = np.log1p(-q), np.log1p(-(q + term))
    return log_p, log_p1


# ---------------------------------------------------------------------------
# F-distribution quantile
# ---------------------------------------------------------------------------


def _bisect_monotone(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Bisection for an increasing fn with fn(lo) < 0 < fn(hi), one midpoint
    per call of fn; runs to floating-point fixpoint, or 200 steps."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if fn(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# The largest power of ten of d2 at which f_quantile holds 1e-7 against scipy
# (d1 in {1, 4, 20, 100, 1000}, alpha in {0.05, 0.5, 0.95}); past it the
# incomplete beta loses digits (1.2e-7 at 1e8), and from 1e17 divides by 0.
F_QUANTILE_MAX_D2 = 10**7


def f_quantile(d1: int, d2: int, alpha: float) -> float:
    """Upper-alpha point of the F distribution: the q with P(F > q) = alpha.

    Inverted from the regularized incomplete beta by bisection on the tail
    variable, which keeps full relative precision for small alpha, with one
    scalar ``reg_inc_beta`` call per step.  Held to
    1e-7 relative for d2 up to ``F_QUANTILE_MAX_D2``; a larger d2 raises.
    """
    if d1 < 1 or d2 < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got ({d1}, {d2})")
    if d2 > F_QUANTILE_MAX_D2:
        raise ValueError(f"degrees of freedom ({d1}, {d2}): d2 is above {F_QUANTILE_MAX_D2}")
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
# Gauss-Legendre quadrature
# ---------------------------------------------------------------------------


class QuadratureError(RuntimeError):
    """Raised when a quadrature misses its accuracy target."""


@lru_cache(maxsize=64)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [0, 1].

    Returns (nodes, weights), nodes ascending, with
    sum(weights * f(nodes)) ~ int_0^1 f(s) ds, exact for polynomials f of
    degree < 2 order.  The nodes are the eigenvalues of the Jacobi matrix
    of the three-term recurrence (Golub and Welsch, Math. Comp. 23, 1969),
    polished by Newton steps on the recurrence.  The weights are the
    Christoffel numbers 1 / sum_k p_k(node)^2 of the orthonormal
    polynomials, scaled to the exact total mass 1.  Memoized per order;
    the arrays are read-only.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    # Recurrence of the orthonormal Legendre polynomials on [-1, 1], x = 2s - 1:
    # off[k] p_{k+1} = x p_k - off[k-1] p_{k-1}.
    k = np.arange(1.0, order + 1.0)
    off = np.sqrt(k * k / ((2.0 * k + 1.0) * (2.0 * k - 1.0)))
    x = np.linalg.eigvalsh(np.diag(off[:-1], 1) + np.diag(off[:-1], -1))

    def recurrence(x):
        """p_order(x) and its derivative, and sum_{k < order} p_k(x)^2, with
        p_0 = 1 (the scale cancels once the weights are normalized)."""
        p_prev, p = np.zeros_like(x), np.ones_like(x)
        d_prev, d = np.zeros_like(x), np.zeros_like(x)
        squares = np.ones_like(x)
        for j in range(order):
            back = off[j - 1] if j else 0.0
            p_next = (x * p - back * p_prev) / off[j]
            d_next = (p + x * d - back * d_prev) / off[j]
            if j < order - 1:
                squares += p_next * p_next
            p_prev, p, d_prev, d = p, p_next, d, d_next
        return p, d, squares

    for _ in range(2):
        p, d, _ = recurrence(x)
        x = x - p / d
    weights = 1.0 / recurrence(x)[2]
    weights *= 1.0 / math.fsum(weights)
    nodes = 0.5 * (1.0 + x)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights
