"""poolshrink: shrinkage estimation of a multivariate normal mean toward a
pooled k-sample target.

The package covers the preliminary-test, James-Stein, empirical Bayes,
hierarchical Bayes and hierarchical empirical Bayes estimators of the first
population mean, the trace-ratio conditions under which the Bayes rules are
minimax, and a deterministic Monte Carlo engine measuring risk and PRIAL
(percentage relative improvement in average loss) against the unshrunk
estimator.
"""

from .estimators import ESTIMATORS, EstimatorConfig, estimate, phi_hb
from .minimax import (
    MinimaxReport,
    double_shrinkage_report,
    lincomb_shrinkage_report,
    single_shrinkage_report,
    solve_hb_a,
)
from .model import ModelSpec, Sample, scalar_spec, validate_spec
from .risksim import (
    RiskReport,
    SimPlan,
    chisq_identity_check,
    simulate_many,
    simulate_risk,
    stein_identity_check,
    table1_preset,
)
from .statistics import linear_bound_check, pooled_deviance_gap

__all__ = [
    "ESTIMATORS", "EstimatorConfig", "estimate", "phi_hb",
    "MinimaxReport", "double_shrinkage_report",
    "lincomb_shrinkage_report", "single_shrinkage_report", "solve_hb_a",
    "ModelSpec", "Sample", "scalar_spec", "validate_spec",
    "RiskReport", "SimPlan", "chisq_identity_check", "simulate_many", "simulate_risk",
    "stein_identity_check", "table1_preset",
    "linear_bound_check", "pooled_deviance_gap",
]

__version__ = "0.1.0"
