"""Pooled quantities and test statistics for the k-sample model.

The pooled scale matrix A = (sum_i V_i^{-1})^{-1} and the precision-weighted
pooled mean nu_hat = A sum_i V_i^{-1} X_i are the common-mean estimates under
the hypothesis of equal means.  F, G and B are the scale-free quadratic forms
driving every shrinkage rule: F measures dispersion of the X_i around nu_hat,
G the size of nu_hat itself, and B the loss-weighted share of the first
population's deviation.

Two quadratic-form inequalities are exposed as checkable quantities:
``pooled_deviance_gap`` (the dispersion sum dominates the first population's
deviation in the (V_1 - A)^{-1} metric) and ``linear_bound_check`` (the
weighted analogue for linear combinations, bounded by a largest
characteristic root).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import ModelSpec, Sample
from .numerics import chmax_product

__all__ = [
    "PooledStats",
    "batch_pooled_stats",
    "compute_pooled_stats",
    "lincomb_deviation_matrix",
    "linear_bound_check",
    "pooled_deviance_gap",
    "pooled_matrix",
    "pooled_mean",
]


@dataclass(frozen=True, eq=False)
class PooledStats:
    """Pooled scale matrix, pooled mean and the three test statistics for
    one sample."""

    A: np.ndarray
    nu_hat: np.ndarray
    F: float
    G: float
    B: float


def _stack_spd(V: Sequence[np.ndarray]) -> np.ndarray:
    vs = np.stack([np.asarray(v, dtype=float) for v in V])
    if vs.ndim != 3 or vs.shape[1] != vs.shape[2]:
        raise ValueError(f"V must be a list of square matrices, got shape {vs.shape}")
    return vs


def _precision_sum(vs: np.ndarray) -> np.ndarray:
    """sum_i V_i^{-1} via SPD solves (never explicit inverses)."""
    eye = np.eye(vs.shape[1])
    total = np.zeros_like(eye)
    for v in vs:
        total += np.linalg.solve(v, eye)
    return 0.5 * (total + total.T)


def pooled_matrix(V: Sequence[np.ndarray]) -> np.ndarray:
    """A = (sum_i V_i^{-1})^{-1}, symmetrized."""
    vs = _stack_spd(V)
    prec = _precision_sum(vs)
    a = np.linalg.solve(prec, np.eye(vs.shape[1]))
    return 0.5 * (a + a.T)


def pooled_mean(V: Sequence[np.ndarray], X: Sequence[np.ndarray]) -> np.ndarray:
    """nu_hat = A sum_i V_i^{-1} X_i, the precision-weighted mean."""
    vs = _stack_spd(V)
    xs = np.stack([np.asarray(x, dtype=float).reshape(-1) for x in X])
    if xs.shape != (vs.shape[0], vs.shape[1]):
        raise ValueError(
            f"X must hold {vs.shape[0]} vectors of length {vs.shape[1]}, got {xs.shape}"
        )
    weighted = np.zeros(vs.shape[1])
    for v, x in zip(vs, xs):
        weighted += np.linalg.solve(v, x)
    return np.linalg.solve(_precision_sum(vs), weighted)


def _deviations(V: Sequence[np.ndarray], X: Sequence[np.ndarray]):
    vs = _stack_spd(V)
    xs = np.stack([np.asarray(x, dtype=float).reshape(-1) for x in X])
    nu = pooled_mean(vs, xs)
    dev = xs - nu
    # Quadratic forms (x_i - nu)' V_i^{-1} (x_j - nu) arrive via solves.
    solved = np.stack([np.linalg.solve(v, d) for v, d in zip(vs, dev)])
    return vs, xs, nu, dev, solved


def batch_pooled_stats(spec: ModelSpec, X: np.ndarray, S: np.ndarray):
    """Pooled mean and the F, G statistics for B samples at once.

    ``X`` has shape (B, k, p) and ``S`` shape (B,); returns nu_hat (B, p),
    F (B,) and G (B,).  The inverses, the summed precision and A come from
    the model's cache, so nothing is solved per sample.
    """
    if np.any(S <= 0.0):
        raise ValueError(f"S must be positive, got {np.min(S)}")
    rows, k, p = X.shape
    winv = spec.v_inv
    # sum_i V_i^{-1} X_i as one matrix product: rows i p .. (i+1) p - 1 of
    # the stacked weights hold V_i^{-1} transposed.
    weighted = X.reshape(rows, k * p) @ winv.transpose(0, 2, 1).reshape(k * p, p)
    nu = weighted @ spec.A
    dev = X.transpose(1, 0, 2) - nu  # (k, B, p)
    f_stat = np.einsum("kbi,kbi->b", dev @ winv, dev) / S
    g_stat = np.einsum("bi,bi->b", nu @ spec.precision, nu) / S
    return nu, f_stat, g_stat


def compute_pooled_stats(sample: Sample, V: Sequence[np.ndarray], Q: np.ndarray) -> PooledStats:
    """All pooled quantities for one sample in a single pass, by SPD solves.

    The solve-based reference for ``batch_pooled_stats``; it also returns A
    and B, which no estimator needs."""
    if not sample.S > 0.0:
        raise ValueError(f"S must be positive, got {sample.S}")
    vs, xs, nu, dev, solved = _deviations(V, sample.X)
    prec = _precision_sum(vs)
    a = np.linalg.solve(prec, np.eye(vs.shape[1]))
    denom = float(np.sum(dev * solved))
    f = denom / sample.S
    g = float(nu @ prec @ nu) / sample.S
    b = float(dev[0] @ np.asarray(Q, dtype=float) @ dev[0]) / denom if denom > 0.0 else float("nan")
    return PooledStats(A=0.5 * (a + a.T), nu_hat=nu, F=f, G=g, B=b)


def pooled_deviance_gap(X: Sequence[np.ndarray], V: Sequence[np.ndarray]) -> float:
    """LHS - RHS of the dispersion inequality

        sum_j (x_j - nu_hat)' V_j^{-1} (x_j - nu_hat)
            >= (x_1 - nu_hat)' (V_1 - A)^{-1} (x_1 - nu_hat).

    Nonnegative for every input; identically zero when k = 2.
    """
    vs, xs, nu, dev, solved = _deviations(V, X)
    if vs.shape[0] < 2:
        raise ValueError("at least two populations are required")
    lhs = float(np.sum(dev * solved))
    m = vs[0] - pooled_matrix(vs)
    rhs = float(dev[0] @ np.linalg.solve(m, dev[0]))
    return lhs - rhs


def lincomb_deviation_matrix(
    V: Sequence[np.ndarray], d: Sequence[float], A: np.ndarray | None = None
) -> np.ndarray:
    """M_d = sum_i d_i^2 V_i - (sum_i d_i)^2 A, the scale matrix of the
    weighted deviation sum_i d_i (X_i - nu_hat); always positive
    semidefinite.  A is solved from V unless given."""
    vs = _stack_spd(V)
    dv = np.asarray(d, dtype=float).reshape(-1)
    if dv.size != vs.shape[0]:
        raise ValueError(f"expected {vs.shape[0]} weights, got {dv.size}")
    a = np.linalg.solve(_precision_sum(vs), np.eye(vs.shape[1])) if A is None else A
    m = np.einsum("i,ijk->jk", dv**2, vs) - float(dv.sum()) ** 2 * a
    return 0.5 * (m + m.T)


def linear_bound_check(
    X: Sequence[np.ndarray],
    V: Sequence[np.ndarray],
    Q: np.ndarray,
    d: Sequence[float],
) -> tuple[float, float]:
    """Weighted analogue of B and its largest-root upper bound.

    Returns (B_value, bound) with

        B_value = (sum_i d_i y_i)' Q (sum_i d_i y_i) / sum_j y_j' V_j^{-1} y_j,
        bound   = Ch_max(M_d Q),

    where y_i = x_i - nu_hat.  B_value <= bound always holds.
    """
    vs, xs, nu, dev, solved = _deviations(V, X)
    dv = np.asarray(d, dtype=float).reshape(-1)
    if dv.size != vs.shape[0]:
        raise ValueError(f"expected {vs.shape[0]} weights, got {dv.size}")
    denom = float(np.sum(dev * solved))
    if denom <= 0.0:
        raise ValueError("all observations coincide with the pooled mean: B is undefined")
    combo = dv @ dev
    b_value = float(combo @ np.asarray(Q, dtype=float) @ combo) / denom
    bound = chmax_product(lincomb_deviation_matrix(vs, dv), np.asarray(Q, dtype=float))
    return b_value, bound
