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
  (CLASS1, CLASS2, LINCOMB) driven by user-supplied shrink functions.

Each kind is defined once, in the ``ESTIMATORS`` registry, as a rule
batched over B samples; the Monte Carlo engine calls it on whole chunks
and ``estimate`` calls it with B = 1.

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
from .numerics import QuadratureError, _beta_cont_frac, _log_q_ratio, f_quantile, gauss_jacobi
from .statistics import batch_pooled_stats, g_statistic

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
    if np.any(far):
        # t = T / B(qa+1, b); then I_w(b, qa+1) = t z cf / b.
        ln_beta = math.lgamma(qa + 1.0) + math.lgamma(b) - math.lgamma(m + 1.0)
        t = np.exp(qa * np.log1p(-w[far]) - b * np.log1p(F[far]) - ln_beta)
        ratio[far] = t / (1.0 - t * z[far] * _beta_cont_frac(b, qa + 1.0, w[far]) / b)
    return qa / (b + ratio)


# Orders (Gauss-Jacobi nodes on the z panel, Gauss-Legendre nodes per log-x
# panel) of the two rules whose difference is the error estimate for L > 0.
_HB_ORDERS = ((48, 16), (64, 24))
_HB_RTOL = 1e-12
_HB_MAX_PANELS = 512
# Nodes of both orders in one slice of rows of ``_phi_hb_lpos`` (a row has
# at most 20,592): each node array of a slice stays at 8 MiB or less.
_HB_NODE_BUDGET = 1 << 20


def _hb_rules(qa: float) -> list:
    """Per order of ``_HB_ORDERS``, the Gauss-Jacobi rule of the z panel
    (weight z^(qa-1)) and the Gauss-Legendre rule of the log-x panels, as
    memoized by ``gauss_jacobi``."""
    return [(gauss_jacobi(nz, qa - 1.0), gauss_jacobi(nt, 0.0)) for nz, nt in _HB_ORDERS]


def _hb_lpos_rule(zmax, span, panels, qa, m, rules):
    """The L > 0 rule of one ``_hb_rules`` pair as flat node arrays over all
    rows: (row, x, log numerator weight, log denominator weight).  The log-x
    panels, ``panels`` per row, cover [zmax/(1-zmax), that times e^span].
    The weights include every factor of the integrand except
    Q(m+1, kappa (1+x)); the denominator is scaled by zmax^-qa and the
    numerator by zmax^-(qa+1), so that neither underflows where F is tiny."""
    (s, w), (u, wu) = rules
    nz, nt = s.size, u.size
    z = zmax[:, None] * s
    log_den_z = np.log(w) + (m - qa) * np.log1p(-z)

    rows = np.repeat(np.arange(zmax.size), panels)
    index = np.arange(rows.size) - (np.cumsum(panels) - panels)[rows]
    h = (span / np.maximum(panels, 1))[rows]
    # Offsets in log x from the panel start, so that x keeps full relative
    # precision where log x is large.
    offset = h[:, None] * (index[:, None] + u)
    x_t = (zmax / (1.0 - zmax))[rows, None] * np.exp(offset)
    # The z panel carries the factor zmax^qa of z = zmax s; the log-x panels
    # are divided by it instead: x^qa / zmax^qa = exp(qa (offset - log(1-zmax))).
    log_den_t = (
        np.log(h[:, None] * wu) + qa * (offset - np.log1p(-zmax)[rows, None])
        - (m + 1.0) * np.log1p(x_t)
    )
    row = np.concatenate([np.repeat(np.arange(zmax.size), nz), np.repeat(rows, nt)])
    x = np.concatenate([(z / (1.0 - z)).ravel(), x_t.ravel()])
    log_den = np.concatenate([log_den_z.ravel(), log_den_t.ravel()])
    return row, x, log_den + np.log(x / zmax[row]), log_den


def _hb_lpos_values(zmax, span, panels, kappa, qa, m):
    """The values of both ``_hb_rules`` orders of ``_phi_hb_lpos`` at its
    per-row panel bounds, one array per order."""
    rules = [_hb_lpos_rule(zmax, span, panels, qa, m, pair) for pair in _hb_rules(qa)]
    # log Q(m+1, kappa (1+x)) - log Q(m+1, kappa) at the nodes of both rules,
    # in one call that takes each row's Q(m+1, kappa) once.
    row = np.concatenate([rule[0] for rule in rules])
    x = np.concatenate([rule[1] for rule in rules])
    log_q = _log_q_ratio(m + 1.0, kappa, row, kappa[row] * x)
    split = np.cumsum([rule[1].size for rule in rules])[:-1]
    values = []
    for (row, _, log_num, log_den), lq in zip(rules, np.split(log_q, split)):
        num = np.bincount(row, np.exp(log_num + lq), minlength=zmax.size)
        den = np.bincount(row, np.exp(log_den + lq), minlength=zmax.size)
        values.append(zmax * num / den)
    return values


def _phi_hb_lpos(F: np.ndarray, S: np.ndarray, qa: float, m: float, L: float) -> np.ndarray:
    """phi_hb for L > 0, batched over the rows of F and S.

    With kappa = LS/2 the inner precision integral leaves the factor
    Q(m+1, kappa (1+x)), so

        phi = int_0^F x^qa (1+x)^-(m+1) Q dx / int_0^F x^(qa-1) (1+x)^-(m+1) Q dx.

    Both integrals share their nodes.  In z = x/(1+x) the first panel
    [0, zmax] is one Gauss-Jacobi rule whose weight carries z^(qa-1)
    exactly; zmax = min(Z, 1/2, z_a) with Z = F/(1+F), where z_a keeps the
    decay of Q (1+x)^-(m-qa), about exp(-(kappa + m - qa) x), across the
    panel to about exp(-(qa+20)).  The rest of [0, F] is integrated in
    log x on Gauss-Legendre panels: there the power laws at both ends
    become exponentials, the near-singular (1-z)^(m-qa-1) at z -> 1 among
    them, and the cutoff of Q at x ~ (m+1)/kappa is smooth.  log x stops
    at F or where the integrand has fallen by about e^-45 (through Q or
    through (1+x)^-(m-qa)).  Q is taken in log space relative to the row's
    Q(m+1, kappa), evaluated once per row, so it may underflow.  Two rule
    orders give each value an error estimate; rows that miss ``_HB_RTOL``
    raise QuadratureError.  The estimate does not see the truncation of
    log x, whose bounds are analytic.  The rows are evaluated in slices of
    at most ``_HB_NODE_BUDGET`` nodes, so memory does not grow with them.
    """
    beta = m - qa
    kappa = 0.5 * L * S
    with np.errstate(divide="ignore", over="ignore"):
        # The z panel ends where kappa x + (m-qa) x, the log-decay of
        # Q (1-z)^(m-qa) across it, reaches qa + 20.
        x_a = (qa + 20.0) / (kappa + beta)
        zmax = np.minimum(np.minimum(F / (1.0 + F), 0.5), x_a / (1.0 + x_a))
        # Where Q(m+1, kappa (1+x)) has fallen e^-45 below its value at the
        # peak: kappa (1+x) = max(kappa, m+1) + 50 + 10 sqrt(m+1) + 2 qa,
        # solved for x without forming kappa (1+x), which may round to kappa.
        x_cut = (
            np.maximum(m + 1.0 - kappa, 0.0) + 50.0 + 10.0 * math.sqrt(m + 1.0) + 2.0 * qa
        ) / kappa
        # Beyond the peak of the numerator, (1+x)^-(m-qa) has fallen e^-45.
        log_x_decay = math.log((qa + 1.0) / beta) + 45.0 / beta + (m + 1.0) / (qa + 1.0)
        # The log-x panels run from x_start = zmax/(1-zmax) to the first of
        # F, x_cut and exp(log_x_decay).
        x_start = zmax / (1.0 - zmax)
        span = np.minimum(np.log(np.minimum(F, x_cut) / x_start), log_x_decay - np.log(x_start))
        span = np.maximum(span, 0.0)
    # Log-x panels short enough for the steepest exponential rate of the
    # integrand in log x (qa + 20 where they start, m - qa + 1 at large x):
    # at most e^20 across one panel.
    width = min(2.0, 20.0 / max(qa + 20.0, beta + 1.0))
    panels = np.minimum(np.ceil(span / width), _HB_MAX_PANELS).astype(int)

    # Slices of whole rows, at least one, within the node budget.  Rows are
    # independent, so the slicing moves no bit.
    ends = np.cumsum(sum(nz + panels * nt for nz, nt in _HB_ORDERS))
    low, high = np.empty_like(F), np.empty_like(F)
    start = 0
    while start < F.size:
        limit = (ends[start - 1] if start else 0) + _HB_NODE_BUDGET
        stop = max(int(np.searchsorted(ends, limit, side="right")), start + 1)
        rows = slice(start, stop)
        low[rows], high[rows] = _hb_lpos_values(
            zmax[rows], span[rows], panels[rows], kappa[rows], qa, m
        )
        start = stop
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
    for L = 0 it does not depend on S at all.  For L > 0 the inner integral
    is an upper incomplete gamma factor and the outer ones are computed by a
    fixed-order rule batched over all values (see ``_phi_hb_lpos``); a value
    whose error estimate misses 1e-12 relative raises QuadratureError.

    Broadcasts over array-valued F (and S).  Raises unless (a, c, L) lies
    in the domain of ``minimax.check_hb_domain``.
    """
    check_hb_domain(p, k, n, a, c, L)
    qa = 0.5 * p * (k - 1) + a
    m = 0.5 * (n + p * (k - 1)) - c
    farr = np.asarray(F, dtype=float)
    sarr = np.asarray(S, dtype=float)
    if not np.all(farr >= 0.0):
        raise ValueError("F must be nonnegative and not NaN")
    scalar = farr.ndim == 0 and sarr.ndim == 0
    fv, sv = np.broadcast_arrays(np.atleast_1d(farr), np.atleast_1d(sarr))
    # F = inf is taken at the largest float, past where the integrands of
    # both rules are cut off or underflow: the F -> inf limit.
    fv = np.minimum(fv, np.finfo(float).max)

    # Below this point the integrands are numerically pure power laws (for
    # L > 0, while Q(m+1, LS(1+x)/2) is also constant across [0, F]) and the
    # ratio equals its analytic small-F limit to machine precision.
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
    """Computes the F-test threshold the PT rule reads."""
    pt_threshold(spec.p, spec.k, spec.n, cfg.alpha)
    return []


def _check_hb(cfg, spec):
    """The HB domain of ``check_hb_domain``, given the model; at L > 0 a
    config inside it also computes the quadrature rules ``phi_hb`` reads."""
    try:
        check_hb_domain(spec.p, spec.k, spec.n, cfg.a, cfg.c)
    except ValueError as exc:
        return [str(exc)]
    if cfg.L > 0.0:
        _hb_rules(0.5 * spec.p * (spec.k - 1) + cfg.a)
    return []


def _check_weights(cfg, spec):
    if len(cfg.d) != spec.k:
        return [f"d: expected {spec.k} weights, got {len(cfg.d)}"]
    return []


def _first_mean(cfg: EstimatorConfig, spec: ModelSpec) -> np.ndarray:
    """The weights e_1 of the estimand mu_1."""
    return np.eye(spec.k)[0]


@dataclass(frozen=True)
class EstimatorKind:
    """One estimator kind: the config fields it uses, its batched rule, its
    check, its bound-optimal constants, if it has any, its estimand and
    whether it is shift-equivariant.

    The rule maps (config, spec, x (B, p), S (B,), nu_hat (B, p), F (B,)) to
    the B estimates, shape (B, p), where x = sum_i w_i X_i is the unshrunk
    estimate of the kind's estimand: X_1, or sum_i d_i X_i for LINCOMB.  The
    rules that read G compute it from nu_hat and S.  The check runs after the
    field checks pass, against a valid model: it returns what the fields
    violate beyond ``_FIELD_RANGES``, and for a config it accepts it
    computes every constant the rule memoizes, so that processes forked
    after validation inherit them.  ``optimal`` maps (config, spec) to the
    bound-optimal values of the config's constants, which may depend on the
    constants the config already holds.  ``estimand`` maps (config, spec) to
    the weights w of the estimated sum_i w_i mu_i.  An ``equivariant`` kind
    estimates mu_1 and its estimate moves by c when every X_i does, so the
    engine may evaluate it on draws whose first mean is 0."""

    fields: tuple[str, ...]
    rule: Callable[..., np.ndarray]
    check: Callable[[EstimatorConfig, ModelSpec], list[str]] = _no_checks
    optimal: Callable[[EstimatorConfig, ModelSpec], dict] | None = None
    estimand: Callable[[EstimatorConfig, ModelSpec], np.ndarray] = _first_mean
    equivariant: bool = False


def _shrink(x: np.ndarray, nu: np.ndarray | float, factor: np.ndarray) -> np.ndarray:
    """x - factor (x - nu), row by row."""
    return x - factor[:, None] * (x - nu)


def _factor(phi: ShrinkFunction, stat: np.ndarray, S: np.ndarray, at_zero: float):
    """phi(stat, S)/stat row by row, and ``at_zero`` where stat is not positive."""
    factor = np.full_like(stat, at_zero)
    pos = stat > 0.0
    live = stat[pos]
    factor[pos] = phi(live, S[pos]) / live
    return factor


def _pt_rule(cfg, spec, x, S, nu, F):
    """X_1 when the equal-means hypothesis is rejected at level alpha,
    nu_hat otherwise."""
    thr = pt_threshold(spec.p, spec.k, spec.n, cfg.alpha)
    return np.where((F > thr)[:, None], x, nu)


def _js_rule(cfg, spec, x, S, nu, F):
    """X_1 - ((p-2)/(n+2)) (S/||X_1||^2_{V_1^{-1}}) X_1; 0 when X_1 = 0."""
    norm2 = np.einsum("bi,bi->b", x @ spec.v_inv[0], x)
    js = lambda t, s: (spec.p - 2.0) / (spec.n + 2.0) * s
    return _shrink(x, 0.0, _factor(js, norm2, S, 0.0))


def _eb_rule(cfg, spec, x, S, nu, F):
    """X_1 - min(a0/F, 1)(X_1 - nu_hat)."""
    return _shrink(x, nu, _factor(lambda f, s: np.minimum(cfg.a0, f), F, S, 1.0))


def _hb_rule(cfg, spec, x, S, nu, F):
    """X_1 - (phi_hb(F, S)/F)(X_1 - nu_hat); (q+a)/(q+a+1) at F = 0."""
    hb = lambda f, s: phi_hb(f, s, spec.p, spec.k, spec.n, cfg.a, cfg.c, cfg.L)
    return _shrink(x, nu, _factor(hb, F, S, hb_small_f_factor(spec.p, spec.k, cfg.a)))


def _heb_rule(cfg, spec, x, S, nu, F):
    """X_1 - min(a0/F, 1)(X_1 - nu_hat) - min(b0/G, 1) nu_hat."""
    G = g_statistic(spec, nu, S)
    est = _eb_rule(cfg, spec, x, S, nu, F)
    return est - _factor(lambda g, s: np.minimum(cfg.b0, g), G, S, 1.0)[:, None] * nu


def _class1_rule(cfg, spec, x, S, nu, F):
    """X_1 - (phi(F, S)/F)(X_1 - nu_hat)."""
    return _shrink(x, nu, _factor(cfg.phi, F, S, 0.0))


def _class2_rule(cfg, spec, x, S, nu, F):
    """X_1 - (phi(F, S)/F)(X_1 - nu_hat) - (psi(G, S)/G) nu_hat."""
    est = _class1_rule(cfg, spec, x, S, nu, F)
    return est - _factor(cfg.psi, g_statistic(spec, nu, S), S, 0.0)[:, None] * nu


def _lincomb_rule(cfg, spec, x, S, nu, F):
    """sum_i d_i [X_i - (phi(F, S)/F)(X_i - nu_hat)], an estimate of
    sum_i d_i mu_i, as x - (phi(F, S)/F)(x - (sum_i d_i) nu_hat) with
    x = sum_i d_i X_i."""
    return _shrink(x, sum(cfg.d) * nu, _factor(cfg.phi, F, S, 0.0))


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
    kind = ESTIMATORS[config.kind]
    return kind.rule(config, spec, kind.estimand(config, spec) @ X, S, nu, F)[0]
