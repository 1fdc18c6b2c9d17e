"""Point estimators of the first population mean mu_1.

All shrinkage rules here pull the direct observation X_1 toward the pooled
mean nu_hat (and, for double-shrinkage rules, additionally pull nu_hat
toward the origin).  The amount of shrinkage is a scalar factor driven by
the scale-free statistics F (dispersion around nu_hat) and G (size of
nu_hat), both normalized by the chi-square statistic S:

* preliminary-test (PT): all-or-nothing, keyed to an F-test threshold;
* James-Stein (JS): shrinks X_1 toward 0 using X_1 and S only;
* empirical Bayes (EB): clipped linear shrink min(a0/F, 1);
* hierarchical Bayes (HB): smooth shrink phi_hb(F, S)/F obtained by
  integrating the shrinkage weight against a second-stage prior;
* hierarchical empirical Bayes (HEB): EB-style double shrinkage;
* the generic single/double/linear-combination shrinkage classes
  (CLASS1, CLASS2, LINCOMB) driven by user-supplied shrink functions;
* oracle Bayes rules with known variance components.

Each kind is defined once, in the ``ESTIMATORS`` registry, as a rule
batched over B samples; the Monte Carlo engine calls it on whole chunks
and ``estimate`` calls it with B = 1.

Degenerate statistics follow a continuity convention: a clipped factor
min(a0/F, 1) is taken to be 1 at F = 0 (full shrink, a measure-zero
event), a shrink-function factor phi(F, S)/F is taken to be 0, and the HB
factor uses its analytic small-F limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .model import ModelSpec, Sample
from .numerics import (
    adaptive_quad_multi,
    f_quantile,
    log_lower_inc_beta,
    reg_upper_gamma,
)
from .statistics import batch_pooled_stats, compute_pooled_stats

__all__ = [
    "CONFIG_KINDS",
    "ESTIMATORS",
    "EstimatorConfig",
    "EstimatorKind",
    "ShrinkFunction",
    "bayes_oracle_normal",
    "bayes_oracle_uniform",
    "estimate",
    "hb_small_f_factor",
    "phi_hb",
    "pt_threshold",
]

# A shrink function maps (F, S) -> phi >= 0 (or (G, S) -> psi); handles must
# accept ndarray arguments and broadcast.
ShrinkFunction = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class EstimatorConfig:
    """Which estimator to run, with its tuning constants.

    Required fields by kind:
      PT      -> alpha in (0, 1)
      JS      -> none
      EB      -> a0 > 0
      HB      -> a, c (and L >= 0); a > -p(k-1)/2 and a + c < n/2
      HEB     -> a0 > 0, b0 > 0
      LINCOMB -> d (k weights) and phi
      CLASS1  -> phi
      CLASS2  -> phi and psi
    """

    kind: str
    alpha: float | None = None
    a0: float | None = None
    b0: float | None = None
    a: float | None = None
    c: float | None = None
    L: float | None = None
    d: tuple[float, ...] | None = None
    phi: ShrinkFunction | None = None
    psi: ShrinkFunction | None = None
    label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", str(self.kind).upper())
        if self.d is not None:
            object.__setattr__(self, "d", tuple(float(x) for x in self.d))

    @property
    def name(self) -> str:
        return self.label if self.label is not None else self.kind

    def validate(self, spec: ModelSpec | None = None) -> list[str]:
        """Field-level validation; returns violation messages."""
        kind = ESTIMATORS.get(self.kind)
        if kind is None:
            return [f"kind: unknown estimator {self.kind!r}"]
        return _field_errors(self, kind.fields) + kind.check(self, spec)


# ---------------------------------------------------------------------------
# Hierarchical Bayes shrink function
# ---------------------------------------------------------------------------


def _check_hb_domain(p: int, k: int, n: int, a: float, c: float, L: float):
    q = 0.5 * p * (k - 1)
    if not a > -q:
        raise ValueError(f"a must exceed -p(k-1)/2 = {-q}, got {a}")
    if not a + c < 0.5 * n:
        raise ValueError(f"a + c must be below n/2 = {0.5 * n}, got {a + c}")
    if L < 0.0:
        raise ValueError(f"L must be nonnegative, got {L}")


def hb_small_f_factor(p: int, k: int, a: float) -> float:
    """Limit of phi_hb(F, S)/F as F -> 0: (q + a)/(q + a + 1), q = p(k-1)/2."""
    q = 0.5 * p * (k - 1)
    return (q + a) / (q + a + 1.0)


def _phi_hb_zero_l(F: np.ndarray, qa: float, m: float) -> np.ndarray:
    """phi_hb for L = 0, where the inner scale integral is a complete gamma
    integral and cancels, leaving the one-dimensional ratio

        int_0^F x^qa (1+x)^-(m+1) dx / int_0^F x^(qa-1) (1+x)^-(m+1) dx.

    The substitution z = x/(1+x) turns each integral into an incomplete
    beta function, evaluated in log space so the ratio survives tiny F.
    Where z rounds to 1 (F above about 1e16) the ratio has reached its
    limit B(qa+1, m-qa)/B(qa, m-qa+1) = qa/(m - qa).
    """
    a_num, b_num = qa + 1.0, m - qa
    a_den, b_den = qa, m - qa + 1.0
    z = F / (1.0 + F)
    out = np.zeros_like(z)
    out[z == 1.0] = qa / (m - qa)
    pos = (z > 0.0) & (z < 1.0)
    if np.any(pos):
        log_num = np.atleast_1d(log_lower_inc_beta(a_num, b_num, z[pos]))
        log_den = np.atleast_1d(log_lower_inc_beta(a_den, b_den, z[pos]))
        out[pos] = np.exp(log_num - log_den)
    return out


def _phi_hb_quad(F: float, S: float, qa: float, m: float, L: float, rel_tol: float) -> float:
    """phi_hb for L > 0: the inner scale integral becomes an upper
    incomplete gamma factor and the outer integrals are computed by
    adaptive quadrature on shared panels."""
    half_ls = 0.5 * L * S

    def integrands(x: np.ndarray) -> np.ndarray:
        tail = reg_upper_gamma(m + 1.0, half_ls * (x + 1.0))
        log_base = -(m + 1.0) * np.log1p(x)
        num = np.exp(qa * np.log(x) + log_base) * tail
        den = np.exp((qa - 1.0) * np.log(x) + log_base) * tail
        return np.stack([num, den])

    values, _, _ = adaptive_quad_multi(integrands, 0.0, float(F), rel_tol=rel_tol)
    return float(values[0] / values[1])


def phi_hb(F, S, p: int, k: int, n: int, a: float, c: float, L: float = 0.0):
    """The hierarchical Bayes shrink function phi_hb(F, S).

    Defined as the ratio of two double integrals over the shrinkage weight
    lambda in (0, 1) and the precision eta >= L; after the substitutions
    x = F lambda and v = S eta this is

        int_0^F int_{LS}^inf x^(q+a) v^m exp(-v(x+1)/2) dv dx
        -----------------------------------------------------
        int_0^F int_{LS}^inf x^(q+a-1) v^m exp(-v(x+1)/2) dv dx

    with q = p(k-1)/2 and m = (n + p(k-1))/2 - c.  Nonnegative, bounded by
    (p(k-1) + 2a)/(n - 2(a+c)), nondecreasing in F and nonincreasing in S;
    for L = 0 it does not depend on S at all.

    Broadcasts over array-valued F (and S).  Requires a > -p(k-1)/2 and
    a + c < n/2.
    """
    _check_hb_domain(p, k, n, a, c, L)
    q = 0.5 * p * (k - 1)
    m = 0.5 * (n + p * (k - 1)) - c
    qa = q + a
    farr = np.asarray(F, dtype=float)
    sarr = np.asarray(S, dtype=float)
    if np.any(farr < 0.0):
        raise ValueError("F must be nonnegative")
    scalar = farr.ndim == 0 and sarr.ndim == 0
    fv, sv = np.broadcast_arrays(np.atleast_1d(farr), np.atleast_1d(sarr))
    fv = fv.astype(float)

    # Below this point the integrands are numerically pure power laws and
    # the ratio equals its analytic small-F limit to machine precision.
    tiny = fv < 1e-150
    out = np.where(tiny, fv * (qa / (qa + 1.0)), 0.0)

    live = ~tiny
    if np.any(live):
        if L == 0.0:
            out[live] = _phi_hb_zero_l(fv[live], qa, m)
        else:
            if np.any(sv[live] <= 0.0):
                raise ValueError("S must be positive when L > 0")
            vals = [
                _phi_hb_quad(f, s, qa, m, L, rel_tol=1e-12)
                for f, s in zip(fv[live], sv[live])
            ]
            out[live] = vals
    if scalar:
        return float(out[0])
    return out.reshape(np.broadcast_shapes(farr.shape, sarr.shape))


@lru_cache(maxsize=256)
def pt_threshold(p: int, k: int, n: int, alpha: float) -> float:
    """Rejection threshold for F: (p(k-1)/n) * F_{p(k-1), n, alpha}.

    Memoized on its four scalars, so every chunk of a plan and every plan of
    a preset share one F-quantile."""
    d1 = p * (k - 1)
    return (d1 / n) * f_quantile(d1, n, alpha)


# ---------------------------------------------------------------------------
# The estimator registry: one batched rule per kind
# ---------------------------------------------------------------------------

# The numeric fields; config files hold exactly the kinds using only these.
_NUMERIC_FIELDS = ("alpha", "a0", "b0", "a", "c", "L")

# Range of each bounded field.  Every field a kind uses is required except
# L, which defaults to 0.
_FIELD_RANGES = {
    "alpha": ("in (0, 1)", lambda v: 0.0 < v < 1.0),
    "a0": ("positive", lambda v: v > 0.0),
    "b0": ("positive", lambda v: v > 0.0),
    "L": ("nonnegative", lambda v: v >= 0.0),
}


def _field_errors(cfg: EstimatorConfig, fields: tuple[str, ...]) -> list[str]:
    errors = []
    for field in fields:
        value = getattr(cfg, field)
        if value is None:
            if field != "L":
                errors.append(f"{field}: required for {cfg.kind}")
        elif field in _FIELD_RANGES and not _FIELD_RANGES[field][1](value):
            errors.append(f"{field}: must be {_FIELD_RANGES[field][0]}, got {value}")
    return errors


def _no_checks(cfg: EstimatorConfig, spec: ModelSpec | None) -> list[str]:
    return []


def _check_hb(cfg, spec):
    """The HB domain a > -p(k-1)/2 and a + c < n/2, given the model."""
    if spec is None or cfg.a is None or cfg.c is None:
        return []
    try:
        _check_hb_domain(spec.p, spec.k, spec.n, cfg.a, cfg.c, 0.0)
    except ValueError as exc:
        return [str(exc)]
    return []


def _check_weights(cfg, spec):
    if cfg.d is not None and spec is not None and len(cfg.d) != spec.k:
        return [f"d: expected {spec.k} weights, got {len(cfg.d)}"]
    return []


@dataclass(frozen=True)
class EstimatorKind:
    """One estimator kind: the config fields it uses, its batched rule, and
    the checks its fields need beyond ``_FIELD_RANGES`` (given the model).

    The rule maps (config, spec, X (B, k, p), S (B,), nu_hat (B, p), F (B,),
    G (B,)) to the B estimates, shape (B, p)."""

    fields: tuple[str, ...]
    rule: Callable[..., np.ndarray]
    check: Callable[[EstimatorConfig, ModelSpec | None], list[str]] = _no_checks


def _shrink(X: np.ndarray, nu: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """X_1 - factor (X_1 - nu_hat), row by row."""
    x1 = X[:, 0, :]
    return x1 - factor[:, None] * (x1 - nu)


def _clipped(const: float, stat: np.ndarray) -> np.ndarray:
    """min(const/stat, 1), taken to be 1 at stat = 0."""
    factor = np.ones_like(stat)
    pos = stat > 0.0
    factor[pos] = np.minimum(const / stat[pos], 1.0)
    return factor


def _handle_factor(fn: ShrinkFunction, stat: np.ndarray, S: np.ndarray) -> np.ndarray:
    """fn(stat, S)/stat for a user shrink function, taken to be 0 at stat = 0."""
    factor = np.zeros_like(stat)
    pos = stat > 0.0
    vals = np.broadcast_to(np.asarray(fn(stat[pos], S[pos]), dtype=float), stat[pos].shape)
    factor[pos] = vals / stat[pos]
    return factor


def _pt_rule(cfg, spec, X, S, nu, F, G):
    """X_1 when the equal-means hypothesis is rejected at level alpha,
    nu_hat otherwise."""
    thr = pt_threshold(spec.p, spec.k, spec.n, cfg.alpha)
    return np.where((F > thr)[:, None], X[:, 0, :], nu)


def _js_rule(cfg, spec, X, S, nu, F, G):
    """X_1 - ((p-2)/(n+2)) (S/||X_1||^2_{V_1^{-1}}) X_1; 0 when X_1 = 0."""
    x1 = X[:, 0, :]
    norm2 = np.einsum("bi,ij,bj->b", x1, spec.v_inv[0], x1)
    coef = np.zeros_like(norm2)
    okay = norm2 > 0.0
    coef[okay] = (spec.p - 2.0) / (spec.n + 2.0) * S[okay] / norm2[okay]
    return x1 - coef[:, None] * x1


def _eb_rule(cfg, spec, X, S, nu, F, G):
    """X_1 - min(a0/F, 1)(X_1 - nu_hat)."""
    return _shrink(X, nu, _clipped(cfg.a0, F))


def _hb_rule(cfg, spec, X, S, nu, F, G):
    """X_1 - (phi_hb(F, S)/F)(X_1 - nu_hat), with the small-F factor
    (q+a)/(q+a+1) at F = 0."""
    ell = cfg.L if cfg.L is not None else 0.0
    factor = np.full_like(F, hb_small_f_factor(spec.p, spec.k, cfg.a))
    pos = F > 0.0
    factor[pos] = phi_hb(F[pos], S[pos], spec.p, spec.k, spec.n, cfg.a, cfg.c, ell) / F[pos]
    return _shrink(X, nu, factor)


def _heb_rule(cfg, spec, X, S, nu, F, G):
    """X_1 - min(a0/F, 1)(X_1 - nu_hat) - min(b0/G, 1) nu_hat."""
    return _shrink(X, nu, _clipped(cfg.a0, F)) - _clipped(cfg.b0, G)[:, None] * nu


def _class1_rule(cfg, spec, X, S, nu, F, G):
    """X_1 - (phi(F, S)/F)(X_1 - nu_hat)."""
    return _shrink(X, nu, _handle_factor(cfg.phi, F, S))


def _class2_rule(cfg, spec, X, S, nu, F, G):
    """X_1 - (phi(F, S)/F)(X_1 - nu_hat) - (psi(G, S)/G) nu_hat."""
    est = _shrink(X, nu, _handle_factor(cfg.phi, F, S))
    return est - _handle_factor(cfg.psi, G, S)[:, None] * nu


def _lincomb_rule(cfg, spec, X, S, nu, F, G):
    """sum_i d_i [X_i - (phi(F, S)/F)(X_i - nu_hat)], an estimate of
    sum_i d_i mu_i."""
    factor = _handle_factor(cfg.phi, F, S)
    shrunk = X - factor[:, None, None] * (X - nu[:, None, :])
    return np.einsum("k,bki->bi", np.asarray(cfg.d, dtype=float), shrunk)


ESTIMATORS: dict[str, EstimatorKind] = {
    "PT": EstimatorKind(("alpha",), _pt_rule),
    "JS": EstimatorKind((), _js_rule),
    "EB": EstimatorKind(("a0",), _eb_rule),
    "HB": EstimatorKind(("a", "c", "L"), _hb_rule, _check_hb),
    "HEB": EstimatorKind(("a0", "b0"), _heb_rule),
    "LINCOMB": EstimatorKind(("d", "phi"), _lincomb_rule, _check_weights),
    "CLASS1": EstimatorKind(("phi",), _class1_rule),
    "CLASS2": EstimatorKind(("phi", "psi"), _class2_rule),
}
CONFIG_KINDS = tuple(
    kind for kind, entry in ESTIMATORS.items() if set(entry.fields) <= set(_NUMERIC_FIELDS)
)


def estimate(sample: Sample, spec: ModelSpec, config: EstimatorConfig) -> np.ndarray:
    """Evaluate the estimator described by ``config`` on one sample: its
    batched rule with B = 1."""
    errors = config.validate(spec)
    if errors:
        raise ValueError("; ".join(errors))
    X = sample.X[np.newaxis]
    S = np.array([sample.S])
    nu, F, G = batch_pooled_stats(spec, X, S)
    return ESTIMATORS[config.kind].rule(config, spec, X, S, nu, F, G)[0]


# ---------------------------------------------------------------------------
# Oracle Bayes rules (known variance components)
# ---------------------------------------------------------------------------


def bayes_oracle_uniform(
    sample: Sample, spec: ModelSpec, tau2: float, sigma2: float
) -> np.ndarray:
    """Oracle Bayes rule under a flat prior on the common mean:
    X_1 - (sigma2/(tau2 + sigma2))(X_1 - nu_hat)."""
    if not (tau2 > 0.0 and sigma2 > 0.0):
        raise ValueError("tau2 and sigma2 must be positive")
    st = compute_pooled_stats(sample, spec.V, spec.Q)
    w = sigma2 / (tau2 + sigma2)
    return sample.X[0] - w * (sample.X[0] - st.nu_hat)


def bayes_oracle_normal(
    sample: Sample, spec: ModelSpec, tau2: float, gamma2: float, sigma2: float
) -> np.ndarray:
    """Oracle Bayes rule under a centered normal prior on the common mean:
    the flat-prior rule with an extra pull of nu_hat toward 0 by
    sigma2/(gamma2 + tau2 + sigma2)."""
    if not (tau2 > 0.0 and gamma2 > 0.0 and sigma2 > 0.0):
        raise ValueError("tau2, gamma2 and sigma2 must be positive")
    st = compute_pooled_stats(sample, spec.V, spec.Q)
    w1 = sigma2 / (tau2 + sigma2)
    w2 = sigma2 / (gamma2 + tau2 + sigma2)
    return sample.X[0] - w1 * (sample.X[0] - st.nu_hat) - w2 * st.nu_hat
