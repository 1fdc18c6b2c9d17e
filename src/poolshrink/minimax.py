"""Minimaxity condition checkers and shrink-constant calculators.

A shrinkage rule improves uniformly on the unshrunk X_1 (whose constant
risk tr(V_1 Q) is the minimax value) when the relevant trace ratio
tr(M Q)/Ch_max(M Q) exceeds 2 and the shrink function stays inside the
matching upper bound while being monotone the right way in each argument.
The matrix M is V_1 - A for single shrinkage toward the pooled mean,
additionally A itself for the double-shrinkage term, and
sum_i d_i^2 V_i - (sum_i d_i)^2 A for linear combinations.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from .model import ModelSpec
from .numerics import chmax_product, trace_product
from .statistics import lincomb_deviation_matrix

__all__ = [
    "MinimaxReport",
    "check_hb_domain",
    "double_shrinkage_report",
    "lincomb_shrinkage_report",
    "optimal_eb_constant",
    "optimal_heb_constants",
    "single_shrinkage_report",
    "solve_hb_a",
    "solve_hb_a_from_ratio",
]

_CHMAX_TOL = 1e-12


@dataclass(frozen=True)
class MinimaxReport:
    """Trace-ratio condition and the resulting shrink-function bounds.

    ``phi_upper_single`` is the bound 2(ratio - 2)/(n + 2) for pure
    single-shrinkage rules; ``phi_upper_double`` is the halved bound
    (ratio - 2)/(n + 2) that applies to the first factor of a
    double-shrinkage rule; ``psi_upper_double`` is the analogous bound
    built from the pooled matrix product A Q (present only on
    double-shrinkage reports).
    """

    trace: float
    chmax: float
    ratio: float
    condition_holds: bool
    phi_upper_single: float
    phi_upper_double: float
    psi_upper_double: float | None = None
    trace_pooled: float | None = None
    chmax_pooled: float | None = None
    ratio_pooled: float | None = None

    def as_dict(self) -> dict:
        return {key: val for key, val in asdict(self).items() if val is not None}


def _centre(a: np.ndarray) -> int:
    """The exponent halfway between those of a's largest and smallest diagonal entry."""
    diag = np.abs(np.diagonal(a))
    return (math.frexp(float(diag.max()))[1] + math.frexp(float(diag.min()))[1]) // 2


def _shrinkage_report(m: np.ndarray, term: np.ndarray, spec: ModelSpec, e=0) -> MinimaxReport:
    """Condition and single/double bounds of M 2^e Q, where ``term`` is the
    part of M that does not cancel.  They are built at unit scale, M and
    ``term`` times 2^-e_m and Q times 4^-e_q with each diagonal centred on 1,
    which is exact, so no units of V, Q or d change them; there Ch_max counts
    as 0, and the ratio as NaN, at most ``_CHMAX_TOL`` tr(term Q).  Only trace
    and Ch_max are scaled back: inf where they overflow, 0 where they underflow."""
    e_m, e_q = _centre(term), _centre(spec.Q) // 2
    m, term, q = np.ldexp(m, -e_m), np.ldexp(term, -e_m), np.ldexp(spec.Q, -2 * e_q)
    # Symmetric parts, as validate_spec takes them in the model's own units.
    m, q = 0.5 * (m + m.T), 0.5 * (q + q.T)
    tr, ch = trace_product(m, q), chmax_product(m, q)
    ch = ch if ch > _CHMAX_TOL * trace_product(term, q) else 0.0
    ratio = tr / ch if ch else float("nan")
    with np.errstate(over="ignore"):
        trace, chmax = map(float, np.ldexp([tr, ch], e + e_m + 2 * e_q))
    bound = 2.0 * (ratio - 2.0) / (spec.n + 2.0)
    return MinimaxReport(
        trace=trace,
        chmax=chmax,
        ratio=ratio,
        condition_holds=ratio > 2.0,
        phi_upper_single=bound,
        phi_upper_double=0.5 * bound,
    )


def _once(spec: ModelSpec, name: str, build) -> MinimaxReport:
    """``build()``, once per model: kept with the model's cached values,
    which its ``with_means`` copies share."""
    if name not in vars(spec):
        vars(spec)[name] = build()
    return vars(spec)[name]


def single_shrinkage_report(spec: ModelSpec) -> MinimaxReport:
    """Condition and bounds for rules shrinking X_1 toward the pooled mean:
    built from the matrix product (V_1 - A) Q, once per model."""
    return _once(spec, "_single", lambda: _shrinkage_report(spec.V[0] - spec.A, spec.V[0], spec))


def double_shrinkage_report(spec: ModelSpec) -> MinimaxReport:
    """Condition and bounds for double-shrinkage rules, which additionally
    pull the pooled mean toward 0: requires the trace ratio of both
    (V_1 - A) Q and A Q to exceed 2.  ``psi_upper_double`` is the
    ``phi_upper_double`` of A Q, built once per model."""
    base = single_shrinkage_report(spec)
    pooled = _once(spec, "_pooled", lambda: _shrinkage_report(spec.A, spec.A, spec))
    return replace(
        base,
        condition_holds=base.condition_holds and pooled.condition_holds,
        psi_upper_double=pooled.phi_upper_double,
        trace_pooled=pooled.trace,
        chmax_pooled=pooled.chmax,
        ratio_pooled=pooled.ratio,
    )


def lincomb_shrinkage_report(spec: ModelSpec, d: Sequence[float]) -> MinimaxReport:
    """Condition and bounds for estimating the linear combination
    sum_i d_i mu_i: built from M_d = sum_i d_i^2 V_i - (sum_i d_i)^2 A.

    With d = e_1 this reduces exactly to the single-shrinkage report.
    When d is proportional to the pooling weights, M_d is numerically
    zero and the condition fails with chmax = 0.  M_d is built at the
    exact d / 2^e, 2^e near max |d_i|, so that it cannot overflow.
    """
    # Called at d itself, so weights whose M_d overflows fail by name.
    lincomb_deviation_matrix(spec, d)
    e = math.frexp(max(map(abs, d)))[1]
    unit = [math.ldexp(x, -e) for x in d]
    term = np.einsum("i,ijk->jk", np.square(unit), spec.V)
    return _shrinkage_report(lincomb_deviation_matrix(spec, unit), term, spec, 2 * e)


def optimal_eb_constant(spec: ModelSpec) -> float:
    """EB constant minimizing the risk upper bound: ``phi_upper_double`` =
    (ratio - 2)/(n + 2), half of the admissible range of a single shrink."""
    report = single_shrinkage_report(spec)
    if not report.condition_holds:
        raise ValueError("trace-ratio condition fails: no positive EB constant exists")
    return report.phi_upper_double


def optimal_heb_constants(spec: ModelSpec) -> tuple[float, float]:
    """HEB constants minimizing the risk upper bound: the midpoints of the
    double-shrinkage ranges, half of ``phi_upper_double`` and of
    ``psi_upper_double``."""
    report = double_shrinkage_report(spec)
    if not report.condition_holds:
        raise ValueError("trace-ratio conditions fail: no positive HEB constants exist")
    return 0.5 * report.phi_upper_double, 0.5 * report.psi_upper_double


def check_hb_domain(p: int, k: int, n: int, a: float, c: float, L: float = 0.0) -> None:
    """Raise unless (a, c, L) lies in the HB parameter domain of the model:
    a > -p(k-1)/2, a + c < n/2 and L >= 0."""
    q = 0.5 * p * (k - 1)
    if not a > -q:
        raise ValueError(f"a must exceed -p(k-1)/2 = {-q}, got {a}")
    if not a + c < 0.5 * n:
        raise ValueError(f"a + c must be below n/2 = {0.5 * n}, got {a + c}")
    if not L >= 0.0:
        raise ValueError(f"L must be nonnegative, got {L}")


def solve_hb_a_from_ratio(ratio: float, p: int, k: int, n: int, c: float = 1.0) -> float:
    """Closed-form solution of the HB constant equation

        (p(k-1) + 2a) / (n - 2(a + c)) * (n + 2) = ratio - 2,

    which is linear in a:
        a = [R(n - 2c) - p(k-1)(n + 2)] / [2(n + 2) + 2R],  R = ratio - 2.

    Raises if R <= 0 or the solution leaves the HB parameter domain (see
    ``check_hb_domain``).
    """
    r = ratio - 2.0
    if not r > 0.0:
        raise ValueError("trace-ratio condition fails: HB constant is undefined")
    pk = p * (k - 1.0)
    a = (r * (n - 2.0 * c) - pk * (n + 2.0)) / (2.0 * (n + 2.0) + 2.0 * r)
    check_hb_domain(p, k, n, a, c)
    return a


def solve_hb_a(spec: ModelSpec, c: float = 1.0) -> float:
    """Solve for the HB prior constant a that makes the supremum of the HB
    shrink function sit exactly at the double-shrinkage bound; see
    ``solve_hb_a_from_ratio`` for the equation and its failures."""
    return solve_hb_a_from_ratio(single_shrinkage_report(spec).ratio, spec.p, spec.k, spec.n, c)
