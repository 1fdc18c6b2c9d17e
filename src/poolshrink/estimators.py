"""Point estimators of the first population mean mu_1.

All shrinkage rules here pull the direct observation X_1 toward the pooled
mean nu_hat (and, for double-shrinkage rules, additionally pull nu_hat
toward the origin).  The amount of shrinkage is a scalar factor driven by
the scale-free statistics F (dispersion around nu_hat), G (size of nu_hat)
and J (size of X_1), each normalized by the chi-square statistic S:

* preliminary-test (PT): all-or-nothing, keyed to an F-test threshold;
* James-Stein (JS): shrinks X_1 toward 0 by a factor of J only;
* empirical Bayes (EB): clipped linear shrink min(a0/F, 1);
* hierarchical Bayes (HB): smooth shrink phi_hb(F, S)/F obtained by
  integrating the shrinkage weight against a second-stage prior;
* hierarchical empirical Bayes (HEB): EB-style double shrinkage;
* the generic single/double/linear-combination shrinkage classes
  (CLASS1, CLASS2, LINCOMB) driven by user-supplied shrink functions.

Each kind is defined once, in the ``ESTIMATORS`` registry, as a rule
batched over B samples.  Every estimate is u X_1 + v nu_hat (x in place of
X_1 for LINCOMB) with per-row scalars u and v, and the rule returns (u, v):
the Monte Carlo engine scores them on whole chunks without forming the
estimates, and ``rule_estimates`` forms them, for ``estimate`` with B = 1.

Every rule but PT shrinks by factors phi(stat, S)/stat from ``_factor``,
which takes a given value where the statistic is not positive: 1 (full
shrink) for EB and HEB, the small-F limit for HB, and 0 for the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .minimax import check_hb_domain, optimal_eb_constant, optimal_heb_constants, solve_hb_a
from .model import ModelSpec, Sample, validate_spec
from .numerics import (F_QUANTILE_MAX_D2, QuadratureError, _beta_cont_frac, _log_lower_gamma,
                       f_quantile, gauss_legendre)
from .statistics import batch_pooled_stats, size_statistics

__all__ = [
    "CONFIG_KINDS",
    "ESTIMATORS",
    "EstimatorConfig",
    "EstimatorKind",
    "ShrinkFunction",
    "estimate",
    "hb_small_f_factor",
    "phi_hb",
    "preset_config",
    "pt_threshold",
    "rule_estimates",
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
      HB      -> a, c and L >= 0 (default 0); a > -p(k-1)/2 and a + c < n/2
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
    L: float = 0.0
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

    def validate(self, spec: ModelSpec) -> list[str]:
        """Violation messages; a label, if given, must be a non-empty string.
        The kind's check runs after the field checks pass, against ``spec``,
        which must be a valid model."""
        errors = []
        if self.label is not None and not (isinstance(self.label, str) and self.label):
            errors.append(f"label: must be a non-empty string, got {self.label!r}")
        kind = ESTIMATORS.get(self.kind)
        if kind is None:
            return errors + [f"kind: unknown estimator {self.kind!r}"]
        return errors + (_field_errors(self, kind.fields) or kind.check(self, spec))


# ---------------------------------------------------------------------------
# Hierarchical Bayes shrink function
# ---------------------------------------------------------------------------


def hb_small_f_factor(p: int, k: int, a: float) -> float:
    """Limit of phi_hb(F, S)/F as F -> 0: (q + a)/(q + a + 1), q = p(k-1)/2."""
    q = 0.5 * p * (k - 1)
    return (q + a) / (q + a + 1.0)


def _phi_hb_zero_l(F: np.ndarray, qa: float, m: float) -> np.ndarray:
    """phi_hb for L = 0, where the inner scale integral is a complete gamma
    integral and cancels, leaving the one-dimensional ratio

        int_0^F x^qa (1+x)^-(m+1) dx / int_0^F x^(qa-1) (1+x)^-(m+1) dx.

    In z = x/(1+x) this is num/den with num = B_z(qa+1, b), den =
    B_z(qa, b+1) and b = m - qa.  Integrating the derivative of
    T = z^qa (1-z)^b over [0, z] gives den = (b num + T)/qa, so

        phi = qa / (b + T/num),

    a sum of positive terms, and only num needs a continued fraction.  Where
    it converges fast (z <= (qa+2)/(m+3)), B_z(qa+1, b) = z^(qa+1) (1-z)^b
    cf/(qa+1) and T/num = (qa+1)/(z cf), which survives tiny F.  Above it,
    num = B(qa+1, b) (1 - I_w(b, qa+1)) with w = 1 - z = 1/(1+F) taken from
    F, so 1 - z is never rounded and F may be arbitrarily large.
    """
    b = m - qa
    z = F / (1.0 + F)
    w = 1.0 / (1.0 + F)
    direct = z <= (qa + 2.0) / (m + 3.0)
    ratio = np.empty_like(F)
    ratio[direct] = (qa + 1.0) / (z[direct] * _beta_cont_frac(qa + 1.0, b, z[direct]))
    far = ~direct
    # t = T / B(qa+1, b); then I_w(b, qa+1) = t z cf / b.
    ln_beta = math.lgamma(qa + 1.0) + math.lgamma(b) - math.lgamma(m + 1.0)
    t = np.exp(qa * np.log1p(-w[far]) - b * np.log1p(F[far]) - ln_beta)
    ratio[far] = t / (1.0 - t * z[far] * _beta_cont_frac(b, qa + 1.0, w[far]) / b)
    return qa / (b + ratio)


# Orders of the two Gauss-Legendre rules whose difference is the error
# estimate for L > 0.
_HB_ORDERS = (16, 24)
_HB_RTOL = 1e-12
# The largest power of ten of n at which phi_hb at L = 0 holds 1e-10 against
# mpmath (p = k = 5, c = 1, a = 0 and the solved a, F = t qa/m for t from
# 0.01 to 100); past it the beta prefactor loses digits (1.5e-10 at 1e8,
# 4e-3 at 1e15, a wrong value at 1e16), and from 1e17 divides by 0.
HB_MAX_N = 10**7
# Drops of the log integrand from its peak: the first panel on each side
# ends where the estimate of ``_hb_core`` has dropped by the first, the rule
# where its bounds have dropped by the second, and the panels between grow
# by at most _HB_GROWTH each.
_HB_DROPS = (10.0, 38.0)
_HB_GROWTH = 4.0
# Drops of log P(qa, y) left and right of its bend that get edges where it
# may fall in a long panel: qa > beta + 1, or beta below _HB_SLOW.
_HB_TRANSITION = ((2.0, 12.0, 36.0), (2.0, 24.0))
_HB_SLOW = 10.0


def _reach(k, c, sign, d, x):
    """Three Newton steps down to the root of the convex c x + k (e^(sign x)
    - 1) = d from x above it: where a log integrand at slope -s and curvature
    k e^x drops by d to the right (sign 1, c = s - k), or to the left at
    slope b - k e^-x (sign -1, c = b)."""
    for _ in range(3):
        x = x - (c * x + k * np.expm1(sign * x) - d) / (c + sign * k * np.exp(sign * x))
    return x


def _reach_right(k, s, d):
    """``_reach`` right, from the root of s x + k x^2/2 = d, which is above."""
    x = 2.0 * d / (s + np.hypot(s, math.sqrt(2.0 * d) * np.sqrt(k)))
    return _reach(k, s - k, 1.0, d, np.minimum(x, 700.0))


def _hb_core(F, kappa, qa, m):
    """(u0, core, bounds): the estimated peak u0 of the denominator integrand
    on u >= kappa, and the distances in log u from it, right and left, of
    the first edges and of the ends.  With log P(qa, y) taken as
    qa (1 + log(y/qa)) - y below y = qa and 0 above, the log integrand is
    b t - w e^t: (b, w) = (m+1, 1+F) where the peak has y < qa, that is
    F < qa/(beta+1), and (beta+1, 1) otherwise.  The core edges are where
    that drops by the first of ``_HB_DROPS``, at most 1 away.  The bounds
    hold for the integrands, whose log slopes are at most m + 1 - u, and
    for the numerator at least beta - u."""
    beta = m - qa
    low_y = F < qa / (beta + 1.0)
    b = np.where(low_y, m + 1.0, beta + 1.0)
    w = np.where(low_y, 1.0 + F, 1.0)
    peak = b / w
    u0 = np.maximum(kappa, peak)
    with np.errstate(over="ignore"):
        k = np.minimum(w * u0, np.finfo(float).max)
    first, last = _HB_DROPS
    left = _reach(k, k, -1.0, first, 1.0 + first / k)
    core = [np.minimum(x, 1.0) for x in (_reach_right(k, k - b, first), left)]
    # Only a row whose u0 is its peak has a left side.
    left = _reach(peak, beta, -1.0, last, (last + peak) / beta)
    return u0, core, (_reach_right(u0, u0 - (m + 1.0), last), left)


@lru_cache(maxsize=64)
def _hb_counts(qa: float, m: float) -> tuple[int, int]:
    """The panels of ``_hb_edges`` from each core edge to its end, right and
    left, for the largest ratio of the two at rows at the extremes of
    ``_hb_core``: F near and far from qa/(beta+1), kappa 0 to past the peak."""
    edge = qa / (m - qa + 1.0)
    F = np.repeat([1e-300, 0.5 * edge, edge * (1.0 - 1e-9), edge * (1.0 + 1e-9), 2.0 * edge, 1e300], 4)
    kappa = np.tile([1e-300, m - qa + 1.0, m + 1.0, 1e12 * (m + 1.0)], 6)
    u0, core, bounds = _hb_core(F, kappa, qa, m)
    ratios = (np.max(bounds[0] / core[0]), np.max((bounds[1] / core[1])[kappa < u0]))
    return tuple(max(1, math.ceil(math.log(r) / math.log(_HB_GROWTH) - 1e-9)) for r in ratios)


def _hb_edges(F, kappa, qa, m):
    """(u0, edges): the sorted panel edges of ``_phi_hb_lpos`` in t - log u0,
    as many per row as (qa, m) fix: from the peak u0 of ``_hb_core`` to its
    core edges, ``_hb_counts`` panels growing out to the ends, and on the
    models of ``_HB_TRANSITION`` edges at and around the bend of P(qa, uF)."""
    u0, core, bounds = _hb_core(F, kappa, qa, m)
    with np.errstate(divide="ignore"):
        ends = (bounds[0], np.minimum(bounds[1], np.log(u0) - np.log(kappa)))
    cols = [np.zeros_like(u0)]
    for sign, x, end, n in zip((1.0, -1.0), core, ends, _hb_counts(qa, m)):
        ratio = np.maximum(end / x, 1.0) ** (1.0 / n)
        cols += [sign * x * ratio**i for i in range(n + 1)]
    if qa > m - qa + 1.0 or m - qa < _HB_SLOW:
        q = max(qa, 1.0)
        t_f = math.log(q) - np.log(F) - np.log(u0)
        left, right = _HB_TRANSITION
        cols += [t_f] + [t_f - _reach(q, q, -1.0, d, 1.0 + d / q) for d in left]
        cols += [t_f + _reach_right(q, 0.0, d) for d in right]
    edges = np.clip(np.stack(cols, axis=1), -ends[1][:, None], ends[0][:, None])
    edges.sort(axis=1)
    return u0, edges


def _phi_hb_lpos(F: np.ndarray, S: np.ndarray, qa: float, m: float, L: float) -> np.ndarray:
    """phi_hb for L > 0, batched over the rows of F and S, as the ratio of
    ``phi_hb`` over u >= kappa = LS/2.  In t = log u both integrands are
    log-concave.  They are integrated by the ``gauss_legendre`` rules of both
    ``_HB_ORDERS`` on the panels of ``_hb_edges``, in offsets t - log u0, so
    that u keeps its precision where kappa is huge, with both P from one
    ``_log_lower_gamma`` pass, and the logs shifted by the row's largest so
    that nothing underflows.  The panels depend only on the row and (qa, m),
    so no value depends on its batch.  Rows whose two orders differ by more
    than ``_HB_RTOL`` raise QuadratureError."""
    u0, edges = _hb_edges(F, 0.5 * L * S, qa, m)
    h = np.diff(edges, axis=1)[:, :, None]
    rules = [gauss_legendre(n) for n in _HB_ORDERS]
    flat = lambda a: a.reshape(F.size, a.shape[1] * a.shape[2])
    d = np.concatenate([flat(edges[:, :-1, None] + h * u) for u, _ in rules], axis=1)
    log_p, log_p1 = _log_lower_gamma(qa, (np.log(u0) + np.log(F))[:, None] + d)
    log_w = (m - qa) * d - u0[:, None] * np.expm1(d)
    log_den, log_num = log_w + d + log_p, log_w + log_p1
    shift = np.maximum(log_den.max(axis=1), log_num.max(axis=1))[:, None]
    split = [rules[0][0].size * h.shape[1]]
    num, den = (np.split(np.exp(x - shift), split, axis=1) for x in (log_num, log_den))
    low, high = (
        qa / u0 * ((n * flat(h * w)).sum(axis=1) / (e * flat(h * w)).sum(axis=1))
        for n, e, (_, w) in zip(num, den, rules)
    )
    with np.errstate(invalid="ignore"):
        bad = ~(np.abs(high - low) <= _HB_RTOL * np.abs(high))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise QuadratureError(
            f"phi_hb quadrature missed its {_HB_RTOL:g} relative tolerance at "
            f"F={float(F[i])!r}, S={float(S[i])!r} (two rule orders give "
            f"{float(low[i])!r} and {float(high[i])!r})"
        )
    return high


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
    for L = 0 it does not depend on S at all.  For L > 0 the x integrals are
    done first, as lower incomplete gammas P: with u = v/2 and qa = q + a,
    phi = qa int u^(m-qa-1) e^-u P(qa+1, uF) du / int u^(m-qa) e^-u
    P(qa, uF) du over u >= LS/2, by a fixed-order rule batched over all
    values (``_phi_hb_lpos``); a value whose error estimate misses 1e-12
    relative raises QuadratureError.

    Broadcasts over array-valued F (and S).  Raises unless (a, c, L) lies
    in the domain of ``minimax.check_hb_domain`` and n is at most
    ``HB_MAX_N`` (10^7), the largest n at which it holds 1e-10 relative.
    """
    check_hb_domain(p, k, n, a, c, L)
    if n > HB_MAX_N:
        raise ValueError(f"n = {n} is above {HB_MAX_N}, the largest n at which phi_hb holds 1e-10")
    qa = 0.5 * p * (k - 1) + a
    m = 0.5 * (n + p * (k - 1)) - c
    farr = np.asarray(F, dtype=float)
    sarr = np.asarray(S, dtype=float)
    if not np.all(farr >= 0.0):
        raise ValueError("F must be nonnegative and not NaN")
    scalar = farr.ndim == 0 and sarr.ndim == 0
    fv, sv = np.broadcast_arrays(np.atleast_1d(farr), np.atleast_1d(sarr))
    # F = inf is taken at the largest float, where both rules give their
    # F -> inf limit.
    fv = np.minimum(fv, np.finfo(float).max)

    # Below this point the integrands are numerically pure power laws (for
    # L > 0, while LS F/2 is also tiny, so that P(qa, uF) is its power law
    # wherever the weight is not) and the ratio equals its analytic small-F
    # limit to machine precision.
    tiny = fv < 1e-150
    if L > 0.0:
        with np.errstate(over="ignore", invalid="ignore"):
            kappa = 0.5 * L * sv
            tiny &= kappa * fv < 1e-150
    out = np.where(tiny, fv * hb_small_f_factor(p, k, a), 0.0)

    live = ~tiny
    if L == 0.0:
        out[live] = _phi_hb_zero_l(fv[live], qa, m)
    else:
        if not np.all(sv[live] > 0.0):
            raise ValueError("S must be positive and not NaN when L > 0")
        # Rows whose kappa = LS/2 overflows take the kappa -> inf limit, 0.
        live &= kappa < np.inf
        out[live] = _phi_hb_lpos(fv[live], sv[live], qa, m, L)
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

# Range of each bounded field.  Every field a kind uses is required.
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
            errors.append(f"{field}: required for {cfg.kind}")
        elif field in _FIELD_RANGES and not _FIELD_RANGES[field][1](value):
            errors.append(f"{field}: must be {_FIELD_RANGES[field][0]}, got {value}")
    return errors


def _no_checks(cfg: EstimatorConfig, spec: ModelSpec) -> list[str]:
    return []


def _check_pt(cfg, spec):
    """Computes the F-test threshold the PT rule reads, where its F
    quantile, at d2 = n, holds."""
    if spec.n > F_QUANTILE_MAX_D2:
        return [f"n: PT's F quantile holds only for n <= {F_QUANTILE_MAX_D2}, got {spec.n}"]
    pt_threshold(spec.p, spec.k, spec.n, cfg.alpha)
    return []


def _check_hb(cfg, spec):
    """n at most ``HB_MAX_N`` and the HB domain of ``check_hb_domain``,
    given the model; at L > 0 a config inside them also computes the
    Gauss-Legendre rules of ``_HB_ORDERS`` that ``phi_hb`` reads."""
    if spec.n > HB_MAX_N:
        return [f"n: HB's shrink function holds only for n <= {HB_MAX_N}, got {spec.n}"]
    try:
        check_hb_domain(spec.p, spec.k, spec.n, cfg.a, cfg.c)
    except ValueError as exc:
        return [str(exc)]
    if cfg.L > 0.0:
        for n in _HB_ORDERS:
            gauss_legendre(n)
    return []


def _check_weights(cfg, spec):
    if len(cfg.d) != spec.k:
        return [f"d: expected {spec.k} weights, got {len(cfg.d)}"]
    return []


@lru_cache(maxsize=64)
def _first_unit(k: int) -> np.ndarray:
    """e_1 among k means, read-only."""
    e1 = np.eye(1, k)[0]
    e1.flags.writeable = False
    return e1


def _first_mean(cfg: EstimatorConfig, spec: ModelSpec) -> np.ndarray:
    """The weights e_1 of the estimand mu_1."""
    return _first_unit(spec.k)


@dataclass(frozen=True)
class EstimatorKind:
    """One estimator kind: the config fields it uses, its batched rule, its
    check, its bound-optimal constants, if it has any, its estimand and
    whether it is shift-equivariant.

    The rule maps (config, spec, S, F, G, J) to the coefficients (u, v) of
    the B estimates u x + v nu_hat (``rule_estimates``), all of shape (B,):
    x = sum_i w_i X_i is the unshrunk estimate of the kind's estimand, X_1,
    or sum_i d_i X_i for LINCOMB, and G and J are the sizes of the
    sample's nu_hat and X_1 (``size_statistics``), taken once per plan at
    origin 0, so only a kind that estimates mu_1 and is not equivariant may
    read them.  The check runs after the field checks pass, against a valid
    model: it returns what the fields violate beyond
    ``_FIELD_RANGES``, and for a config it accepts it computes every
    constant the rule memoizes, so that processes forked after validation
    inherit them.  ``optimal`` maps (config, spec) to the bound-optimal
    values of the config's constants, which may depend on the constants the
    config already holds.  ``estimand`` maps (config, spec) to the weights w
    of the estimated sum_i w_i mu_i.  An ``equivariant`` kind estimates mu_1
    and its estimate moves by c when every X_i does, so the engine may
    evaluate it on draws whose first mean is 0."""

    fields: tuple[str, ...]
    rule: Callable[..., tuple[np.ndarray, np.ndarray]]
    check: Callable[[EstimatorConfig, ModelSpec], list[str]] = _no_checks
    optimal: Callable[[EstimatorConfig, ModelSpec], dict] | None = None
    estimand: Callable[[EstimatorConfig, ModelSpec], np.ndarray] = _first_mean
    equivariant: bool = False


def _factor(phi: ShrinkFunction, stat: np.ndarray, S: np.ndarray, at_zero: float):
    """phi(stat, S)/stat row by row, and ``at_zero`` where stat is not > 0, which phi never sees."""
    pos = stat > 0.0
    live = np.where(pos, stat, 1.0)
    return np.where(pos, phi(live, S) / live, at_zero)


def _pt_rule(cfg, spec, S, F, G, J):
    """(1, 0), X_1, where the equal-means hypothesis is rejected at level
    alpha, and (0, 1), nu_hat, elsewhere."""
    u = (F > pt_threshold(spec.p, spec.k, spec.n, cfg.alpha)).astype(float)
    return u, 1.0 - u


def _js_rule(cfg, spec, S, F, G, J):
    """(1 - ((p-2)/(n+2))/J, 0); (1, 0) when X_1 = 0."""
    js = lambda j, s: (spec.p - 2.0) / (spec.n + 2.0)
    return 1.0 - _factor(js, J, S, 0.0), np.zeros_like(S)


def _eb_rule(cfg, spec, S, F, G, J):
    """(1 - f, f) with f = min(a0/F, 1)."""
    f = _factor(lambda f, s: np.minimum(cfg.a0, f), F, S, 1.0)
    return 1.0 - f, f


def _hb_rule(cfg, spec, S, F, G, J):
    """(1 - f, f) with f = phi_hb(F, S)/F, and (q+a)/(q+a+1) at F = 0."""
    hb = lambda f, s: phi_hb(f, s, spec.p, spec.k, spec.n, cfg.a, cfg.c, cfg.L)
    f = _factor(hb, F, S, hb_small_f_factor(spec.p, spec.k, cfg.a))
    return 1.0 - f, f


def _heb_rule(cfg, spec, S, F, G, J):
    """(1 - f, f - g) with f = min(a0/F, 1) and g = min(b0/G, 1)."""
    u, f = _eb_rule(cfg, spec, S, F, G, J)
    return u, f - _factor(lambda g, s: np.minimum(cfg.b0, g), G, S, 1.0)


def _class1_rule(cfg, spec, S, F, G, J):
    """(1 - f, f) with f = phi(F, S)/F."""
    f = _factor(cfg.phi, F, S, 0.0)
    return 1.0 - f, f


def _class2_rule(cfg, spec, S, F, G, J):
    """(1 - f, f - g) with f = phi(F, S)/F and g = psi(G, S)/G."""
    u, f = _class1_rule(cfg, spec, S, F, G, J)
    return u, f - _factor(cfg.psi, G, S, 0.0)


def _lincomb_rule(cfg, spec, S, F, G, J):
    """(1 - f, f sum_i d_i) with f = phi(F, S)/F: the estimate
    sum_i d_i [X_i - f (X_i - nu_hat)] of sum_i d_i mu_i."""
    u, f = _class1_rule(cfg, spec, S, F, G, J)
    return u, f * sum(cfg.d)


# PT, EB, HB and CLASS1 shrink X_1 toward nu_hat by a factor of F and S,
# all of which a common shift leaves alone or moves with it; JS, HEB and
# CLASS2 also shrink toward the origin.
ESTIMATORS: dict[str, EstimatorKind] = {
    "PT": EstimatorKind(("alpha",), _pt_rule, _check_pt, equivariant=True),
    "JS": EstimatorKind((), _js_rule),
    "EB": EstimatorKind(
        ("a0",), _eb_rule, optimal=lambda cfg, spec: {"a0": optimal_eb_constant(spec)},
        equivariant=True,
    ),
    # a puts the supremum (p(k-1) + 2a)/(n - 2(a + c)) of phi_hb at the
    # double-shrinkage bound, so it is solved at the config's own c.
    "HB": EstimatorKind(
        ("a", "c", "L"), _hb_rule, _check_hb,
        optimal=lambda cfg, spec: {"a": solve_hb_a(spec, c=cfg.c)}, equivariant=True,
    ),
    "HEB": EstimatorKind(
        ("a0", "b0"), _heb_rule,
        optimal=lambda cfg, spec: dict(zip(("a0", "b0"), optimal_heb_constants(spec))),
    ),
    "LINCOMB": EstimatorKind(
        ("d", "phi"), _lincomb_rule, _check_weights,
        estimand=lambda cfg, spec: np.array(cfg.d, dtype=float),
    ),
    "CLASS1": EstimatorKind(("phi",), _class1_rule, equivariant=True),
    "CLASS2": EstimatorKind(("phi", "psi"), _class2_rule),
}
CONFIG_KINDS = tuple(
    kind for kind, entry in ESTIMATORS.items() if set(entry.fields) <= set(_NUMERIC_FIELDS)
)


def preset_config(
    kind: str,
    spec: ModelSpec,
    alpha: float = 0.05,
    given: dict | None = None,
    label: str | None = None,
) -> EstimatorConfig:
    """The config of a ``kind`` estimator with the constants in ``given``
    and, for the fields it omits, the preset's: ``alpha`` for PT, c = 1 for
    HB, the field defaults, and the bound-optimal a0, b0 and a derived from
    the model (HB's a at the config's c).

    The bound-optimal constants are derived only when one is omitted, so a
    model without them still runs the kinds that do not need them."""
    entry = ESTIMATORS[kind]
    values = {"alpha": alpha, "c": 1.0, **(given or {})}
    values = {field: values[field] for field in entry.fields if field in values}
    cfg = EstimatorConfig(kind=kind, label=label, **values)
    if entry.optimal is not None and any(getattr(cfg, field) is None for field in entry.fields):
        cfg = replace(cfg, **{**entry.optimal(cfg, spec), **values})
    return cfg


def rule_estimates(config: EstimatorConfig, spec: ModelSpec, x: np.ndarray, S: np.ndarray,
                   nu: np.ndarray, F: np.ndarray) -> np.ndarray:
    """The B estimates u x + v nu_hat (B, p) of ``config``'s rule, which
    returns (u, v), on S, nu_hat, F and the unshrunk estimates ``x`` of its
    estimand, which are X_1 for every kind that reads J."""
    u, v = ESTIMATORS[config.kind].rule(config, spec, S, F, *size_statistics(spec, x, nu, S))
    return u[:, None] * x + v[:, None] * nu


def estimate(sample: Sample, spec: ModelSpec, config: EstimatorConfig) -> np.ndarray:
    """Evaluate the estimator described by ``config`` on one sample: its
    batched rule with B = 1.  The model is validated first, then the config
    and then the shape of the sample."""
    errors = validate_spec(spec) or config.validate(spec)
    if errors:
        raise ValueError("; ".join(errors))
    if sample.X.shape != (spec.k, spec.p):
        raise ValueError(f"X: expected shape ({spec.k}, {spec.p}), got {sample.X.shape}")
    X = sample.X[np.newaxis]
    S = np.array([sample.S])
    nu, F, _ = batch_pooled_stats(spec, X, S)
    x = ESTIMATORS[config.kind].estimand(config, spec) @ X
    return rule_estimates(config, spec, x, S, nu, F)[0]
