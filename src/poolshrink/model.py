"""The canonical k-sample normal model: k independent p-variate draws
X_i ~ N_p(mu_i, sigma^2 V_i) with known SPD scale matrices V_i, together
with an independent chi-square scale statistic S / sigma^2 ~ chi^2_n.

Estimators of mu_1 are judged by the scaled quadratic loss
(d - mu_1)' Q (d - mu_1) / sigma^2 for a known SPD weight matrix Q.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .numerics import symmetrize, validate_spd

__all__ = ["ModelSpec", "Sample", "scalar_spec", "validate_spec"]


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Immutable description of the k-sample model, with read-only arrays.

    Attributes
    ----------
    p : int
        Dimension of each population mean.
    k : int
        Number of populations (>= 2 so that pooling is defined).
    n : int
        Degrees of freedom of the chi-square scale statistic.
    V : tuple of ndarray
        The k known SPD scale matrices, each p x p.
    Q : ndarray
        SPD loss weight matrix, p x p.
    sigma2 : float
        Unknown-in-theory, known-to-the-simulator scale.
    mu : tuple of ndarray
        The k population means, each of length p.
    """

    p: int
    k: int
    n: int
    V: tuple[np.ndarray, ...]
    Q: np.ndarray
    sigma2: float
    mu: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "V", tuple(np.array(v, dtype=float) for v in self.V))
        object.__setattr__(self, "Q", np.array(self.Q, dtype=float))
        object.__setattr__(self, "mu", tuple(np.array(m, dtype=float).ravel() for m in self.mu))
        # Read-only, so that no value cached from them goes stale.
        for array in (*self.V, self.Q, *self.mu):
            array.setflags(write=False)

    def with_means(self, mu: Sequence) -> ModelSpec:
        """This model with the means ``mu``.  The spec returned shares this
        one's V and Q, its checks of them and every value cached from them."""
        self._model_errors  # computed here, so that the copy shares it
        spec = replace(self, mu=mu)
        vars(spec).update({k: v for k, v in vars(self).items() if k not in ("mu", "mu_stack")})
        return spec

    @cached_property
    def _model_errors(self) -> tuple[str, ...]:
        """The violations of ``validate_spec`` that do not read the means."""
        errors: list[str] = []
        if self.p < 1:
            errors.append(f"p: dimension must be >= 1, got {self.p}")
        if self.k < 2:
            errors.append(f"k: at least two populations are required, got {self.k}")
        if self.n < 1:
            errors.append(f"n: chi-square degrees of freedom must be >= 1, got {self.n}")
        if not self.sigma2 > 0.0:
            errors.append(f"sigma2: must be positive, got {self.sigma2}")
        if len(self.V) != self.k:
            errors.append(f"V: expected {self.k} matrices, got {len(self.V)}")
        for name, mat in [*((f"V[{i}]", v) for i, v in enumerate(self.V)), ("Q", self.Q)]:
            if mat.shape != (self.p, self.p):
                errors.append(f"{name}: expected shape ({self.p}, {self.p}), got {mat.shape}")
                continue
            try:
                validate_spd(mat, name)
            except ValueError as exc:
                errors.append(str(exc))
        # Without earlier errors there are k >= 2 SPD matrices V_i, so A exists.
        # Both are checked, so V[0] - A is factored from V[0]'s symmetric
        # part: where the two nearly cancel, the asymmetry V[0] may have can
        # pass the tolerance relative to their difference.
        if not errors:
            try:
                validate_spd(0.5 * (self.V[0] + self.V[0].T) - self.A, "V[0] - A")
            except ValueError:
                errors.append("V: V[0] - A is not positive definite")
        return tuple(errors)

    @cached_property
    def mu_stack(self) -> np.ndarray:
        """Means stacked as a (k, p) array."""
        return np.stack(self.mu)

    @cached_property
    def chol_scaled(self) -> np.ndarray:
        """Cholesky factors of sigma^2 V_i, stacked (k, p, p).

        Cached because factorization dominates the per-draw cost otherwise.
        """
        return np.stack(
            [np.linalg.cholesky(self.sigma2 * symmetrize(v)) for v in self.V]
        )

    @cached_property
    def v_inv(self) -> np.ndarray:
        """Inverses of the scale matrices, stacked (k, p, p); used by the
        pooled statistics."""
        return np.linalg.inv(self.V)

    @cached_property
    def precision(self) -> np.ndarray:
        """The summed precision sum_i V_i^{-1} = A^{-1}, symmetrized."""
        prec = self.v_inv.sum(axis=0)
        return 0.5 * (prec + prec.T)

    @cached_property
    def A(self) -> np.ndarray:
        """The pooled scale matrix A = (sum_i V_i^{-1})^{-1}, symmetrized."""
        a = np.linalg.solve(self.precision, np.eye(self.p))
        return 0.5 * (a + a.T)


@dataclass(frozen=True, eq=False)
class Sample:
    """One draw from the model: the k observation vectors and the scale
    statistic S > 0."""

    X: np.ndarray  # (k, p)
    S: float

    def __post_init__(self):
        object.__setattr__(self, "X", np.array(self.X, dtype=float))
        object.__setattr__(self, "S", float(self.S))


def scalar_spec(
    p: int,
    k: int,
    n: int,
    v_scalars: Sequence[float],
    sigma2: float,
    mu_scalars: Sequence[float],
    q_scalar: float | None = None,
) -> ModelSpec:
    """Convenience constructor for the scalar-matrix case V_i = c_i * I.

    ``mu_scalars`` gives one constant per population; mean i is that
    constant times the all-ones vector.  ``q_scalar`` defaults to
    1 / v_scalars[0], i.e. Q = V_1^{-1}.
    """
    eye = np.eye(p)
    if q_scalar is None:
        q_scalar = 1.0 / float(v_scalars[0])
    return ModelSpec(
        p=p,
        k=k,
        n=n,
        V=tuple(float(c) * eye for c in v_scalars),
        Q=float(q_scalar) * eye,
        sigma2=float(sigma2),
        mu=tuple(float(c) * np.ones(p) for c in mu_scalars),
    )


def validate_spec(spec: ModelSpec) -> list[str]:
    """Check every model invariant; returns a list of violation messages
    (empty when the spec is valid).

    Beyond the field-level invariants this confirms that V_1 - A is
    positive definite, where A is the pooled scale matrix; that condition
    underpins the shrinkage risk bounds downstream.
    """
    errors = list(spec._model_errors)
    if len(spec.mu) != spec.k:
        errors.append(f"mu: expected {spec.k} vectors, got {len(spec.mu)}")
    for i, m in enumerate(spec.mu):
        if m.shape != (spec.p,):
            errors.append(f"mu[{i}]: expected length {spec.p}, got shape {m.shape}")
    return errors
