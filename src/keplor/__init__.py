"""keplor: effect-size bounds for 2x2 tables and the Laplace limit constant.

The standardized log odds ratio of a case-control design is capped by a
closed-form curve of the odds ratio alone; the cap's peak value is the
Laplace limit constant, the convergence radius of the classical Kepler
power series in the eccentricity.  This package computes the estimators,
the bounds, the constants, the Kepler solvers, and the Bayesian
prior-specification helpers that tie the story together, plus a brute-force
verifier for the bound.
"""

from .contingency import (
    CohortParams,
    EffectRatios,
    EffectSummary,
    OddsRatioEstimate,
    Proportions,
    RiskParams,
    TwoByTwoTable,
    cohort_to_risk,
    estimate_odds_ratio,
    estimate_proportions,
    odds_and_risk_ratio,
    risk_to_cohort,
    t_statistic,
)
from .effect_bounds import (
    BoundConstants,
    VerificationReport,
    bound_constants,
    bound_curve,
    bound_curve_derivative,
    max_standardized_effect,
    min_variance_exposure,
    min_variance_prevalence,
    optimal_risk,
    sigma2_by_exposure,
    sigma2_by_prevalence,
    standardized_effect,
    summarize_risk,
    verify_bound,
)
from .errors import (
    DomainError,
    InconsistentParams,
    KeplorError,
    NoConvergence,
    NonFinite,
    NoSignChange,
    OrderTooLarge,
    ZeroCell,
    ZeroMargin,
)
from .kepler import (
    SERIES_ORDER_CAP,
    KeplerProblem,
    KeplerSolution,
    kepler_series,
    kepler_solve,
    mean_anomaly,
    series_partial_sums,
    series_radius,
)
from .bayes_prior import (
    PathwayResult,
    PriorSpec,
    flattest_prior,
    flattest_sigma,
    p_to_z,
    prevalence_pathway,
    z_to_p,
)
from .numerics import Bracket, RootResult, find_root, normal_cdf, normal_quantile

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "KeplorError",
    "DomainError",
    "NoSignChange",
    "NonFinite",
    "NoConvergence",
    "ZeroCell",
    "ZeroMargin",
    "InconsistentParams",
    "OrderTooLarge",
    # numerics
    "Bracket",
    "RootResult",
    "find_root",
    "normal_cdf",
    "normal_quantile",
    # contingency
    "TwoByTwoTable",
    "CohortParams",
    "RiskParams",
    "EffectSummary",
    "Proportions",
    "OddsRatioEstimate",
    "EffectRatios",
    "estimate_proportions",
    "estimate_odds_ratio",
    "t_statistic",
    "cohort_to_risk",
    "risk_to_cohort",
    "odds_and_risk_ratio",
    # effect_bounds
    "BoundConstants",
    "VerificationReport",
    "sigma2_by_prevalence",
    "sigma2_by_exposure",
    "min_variance_prevalence",
    "min_variance_exposure",
    "optimal_risk",
    "standardized_effect",
    "summarize_risk",
    "max_standardized_effect",
    "bound_curve",
    "bound_curve_derivative",
    "bound_constants",
    "verify_bound",
    # kepler
    "KeplerProblem",
    "KeplerSolution",
    "SERIES_ORDER_CAP",
    "mean_anomaly",
    "kepler_solve",
    "kepler_series",
    "series_partial_sums",
    "series_radius",
    # bayes_prior
    "PriorSpec",
    "PathwayResult",
    "p_to_z",
    "z_to_p",
    "flattest_prior",
    "flattest_sigma",
    "prevalence_pathway",
]
