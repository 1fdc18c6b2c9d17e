"""Pooled quantities and test statistics for the k-sample model.

The pooled scale matrix A = (sum_i V_i^{-1})^{-1} and the precision-weighted
pooled mean nu_hat = A sum_i V_i^{-1} X_i are the common-mean estimates under
the hypothesis of equal means.  F and G are the scale-free quadratic forms
driving every shrinkage rule: F measures dispersion of the X_i around nu_hat,
G the size of nu_hat itself and J that of X_1 (``size_statistics``).  B, the loss-weighted share of the first
population's deviation, is ``linear_bound_check`` at d = e_1.

Two quadratic-form inequalities are exposed as checkable quantities:
``pooled_deviance_gap`` (the dispersion sum dominates the first population's
deviation in the (V_1 - A)^{-1} metric) and ``linear_bound_check`` (the
weighted analogue for linear combinations, bounded by a largest
characteristic root).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .model import ModelSpec
from .numerics import chmax_product

__all__ = [
    "batch_pooled_stats",
    "lincomb_deviation_matrix",
    "linear_bound_check",
    "pooled_deviance_gap",
    "pooled_noise_stats",
    "shifted_pooled_stats",
    "size_statistics",
]


def _pooled_deviations(V: Sequence[np.ndarray], X: Sequence[np.ndarray]):
    """A model of the V_i, with no means and with n, sigma^2 and Q = I that
    nothing here reads; the deviations X_i - nu_hat of one sample; and its
    dispersion sum sum_i (X_i - nu_hat)' V_i^{-1} (X_i - nu_hat)."""
    vs = np.asarray(V, dtype=float)
    if vs.ndim != 3 or vs.shape[1] != vs.shape[2]:
        raise ValueError(f"V must be a list of square matrices, got shape {vs.shape}")
    xs = np.asarray(X, dtype=float)
    xs = xs.reshape(len(xs), -1)
    if xs.shape != vs.shape[:2]:
        raise ValueError(
            f"X must hold {vs.shape[0]} vectors of length {vs.shape[1]}, got {xs.shape}"
        )
    k, p = xs.shape
    spec = ModelSpec(p=p, k=k, n=1, V=tuple(vs), Q=np.eye(p), sigma2=1.0, mu=())
    nu, _, dispersion = pooled_noise_stats(spec, xs[np.newaxis])
    return spec, xs - nu, float(dispersion[0])


def _pooled_mean(spec: ModelSpec, X: np.ndarray) -> np.ndarray:
    """nu_hat = A sum_i V_i^{-1} X_i of each (k, p) slice of ``X``, the sum
    as one matrix product: rows i p .. (i+1) p - 1 of the stacked weights
    hold V_i^{-1} transposed."""
    k, p = X.shape[-2:]
    weights = spec.v_inv.transpose(0, 2, 1).reshape(k * p, p)
    return (X.reshape(*X.shape[:-2], k * p) @ weights) @ spec.A


def pooled_noise_stats(spec: ModelSpec, X: np.ndarray):
    """The part of the pooled statistics of B samples ``X`` (B, k, p) that
    plans differing only in their means share: nu_hat (B, p), the weighted
    deviations (X_i - nu_hat)' V_i^{-1} stacked (k, B, p), and the
    dispersion sum_i (X_i - nu_hat)' V_i^{-1} (X_i - nu_hat) (B,)."""
    nu = _pooled_mean(spec, X)
    dev = X.transpose(1, 0, 2) - nu  # (k, B, p)
    wdev = dev @ spec.v_inv
    return nu, wdev, np.einsum("kbi,kbi->b", wdev, dev)


def shifted_pooled_stats(spec: ModelSpec, noise_stats, means: np.ndarray, S: np.ndarray):
    """F (B,) of X + ``means`` (k, p), from
    ``noise_stats = pooled_noise_stats(spec, X)``, and the means' own
    pooled mean nu_hat(means) (p,), zeros at zero means.

    The dispersion is quadratic in X: it gains twice the cross term
    sum_i wdev_i' dev_i plus the means' own dispersion, where
    dev_i = mu_i - nu_hat(means).  Zero means leave the noise's dispersion
    as it is.
    """
    if np.any(S <= 0.0):
        raise ValueError(f"S must be positive, got {np.min(S)}")
    _, wdev, dispersion = noise_stats
    shift = np.zeros(spec.p)
    if means.any():
        shift = _pooled_mean(spec, means)
        dev = means - shift
        own = np.einsum("ki,kij,kj->", dev, spec.v_inv, dev)
        cross = (wdev @ dev[:, :, None]).sum(axis=0)[:, 0]
        dispersion = dispersion + 2.0 * cross + own
    return dispersion / S, shift


def size_statistics(spec: ModelSpec, x: np.ndarray, nu: np.ndarray, S: np.ndarray):
    """(G, J) (B,) of the samples: G = ||nu_hat||^2_{A^{-1}}/S of their
    pooled means ``nu`` and J = ||x||^2_{V_1^{-1}}/S of their X_1 ``x``."""
    return (np.einsum("bi,bi->b", nu @ spec.precision, nu) / S,
            np.einsum("bi,bi->b", x @ spec.v_inv[0], x) / S)


def batch_pooled_stats(spec: ModelSpec, X: np.ndarray, S: np.ndarray):
    """Pooled mean and the F, G statistics for B samples at once: nu_hat
    from ``pooled_noise_stats`` and F from ``shifted_pooled_stats`` at zero
    means.

    ``X`` has shape (B, k, p) and ``S`` shape (B,); returns nu_hat (B, p),
    F (B,) and G (B,).  The inverses, the summed precision and A come from
    the model's cache, so nothing is solved per sample.  A nu_hat or F that
    overflows is a RuntimeError that names it; G is returned unchecked.
    """
    with np.errstate(over="ignore", divide="ignore"):
        noise_stats = pooled_noise_stats(spec, X)
        f_stat = shifted_pooled_stats(spec, noise_stats, np.zeros(X.shape[1:]), S)[0]
        nu = noise_stats[0]
        g_stat = size_statistics(spec, X[:, 0], nu, S)[0]
    for name, value in (("nu_hat", nu), ("F", f_stat)):
        if not np.all(np.isfinite(value)):
            raise RuntimeError(f"{name} is not finite: {value}")
    return nu, f_stat, g_stat


def pooled_deviance_gap(X: Sequence[np.ndarray], V: Sequence[np.ndarray]) -> float:
    """LHS - RHS of the dispersion inequality

        sum_j (x_j - nu_hat)' V_j^{-1} (x_j - nu_hat)
            >= (x_1 - nu_hat)' (V_1 - A)^{-1} (x_1 - nu_hat).

    Nonnegative for every input; identically zero when k = 2.
    """
    spec, dev, dispersion = _pooled_deviations(V, X)
    if spec.k < 2:
        raise ValueError("at least two populations are required")
    rhs = float(dev[0] @ np.linalg.solve(spec.V[0] - spec.A, dev[0]))
    return dispersion - rhs


def lincomb_deviation_matrix(spec: ModelSpec, d: Sequence[float]) -> np.ndarray:
    """M_d = sum_i d_i^2 V_i - (sum_i d_i)^2 A of the model ``spec``, the
    scale matrix of the weighted deviation sum_i d_i (X_i - nu_hat); always
    positive semidefinite."""
    dv = np.asarray(d, dtype=float).reshape(-1)
    if dv.size != spec.k:
        raise ValueError(f"expected {spec.k} weights, got {dv.size}")
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.einsum("i,ijk->jk", dv**2, spec.V) - dv.sum() ** 2 * spec.A
    if not np.all(np.isfinite(m)):
        raise ValueError(f"M_d is not finite for the weights {dv.tolist()}")
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

    where y_i = x_i - nu_hat.  B_value <= bound always holds; at d = e_1,
    B_value is the statistic B.
    """
    spec, dev, dispersion = _pooled_deviations(V, X)
    m = lincomb_deviation_matrix(spec, d)
    if dispersion <= 0.0:
        raise ValueError("all observations coincide with the pooled mean: B is undefined")
    q = np.asarray(Q, dtype=float)
    combo = np.asarray(d, dtype=float).reshape(-1) @ dev
    b_value = float(combo @ q @ combo) / dispersion
    return b_value, chmax_product(m, q)
