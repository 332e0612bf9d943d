"""The package exports each public name once, from its home module."""

import keplor
from keplor import bayes_prior, contingency, effect_bounds, errors, kepler, numerics

MODULES = (errors, numerics, contingency, effect_bounds, kepler, bayes_prior)

PUBLIC_NAMES = [
    "BoundConstants",
    "Bracket",
    "CohortParams",
    "DomainError",
    "EffectRatios",
    "EffectSummary",
    "InconsistentParams",
    "KeplerProblem",
    "KeplerSolution",
    "KeplorError",
    "NoConvergence",
    "NoSignChange",
    "NonFinite",
    "OddsRatioEstimate",
    "OrderTooLarge",
    "PathwayResult",
    "PriorSpec",
    "Proportions",
    "RiskParams",
    "RootResult",
    "SERIES_ORDER_CAP",
    "TwoByTwoTable",
    "VerificationReport",
    "ZeroCell",
    "ZeroMargin",
    "__version__",
    "bound_constants",
    "bound_curve",
    "bound_curve_derivative",
    "cohort_to_risk",
    "estimate_odds_ratio",
    "estimate_proportions",
    "find_root",
    "flattest_prior",
    "flattest_sigma",
    "kepler_series",
    "kepler_solve",
    "max_standardized_effect",
    "mean_anomaly",
    "min_variance_exposure",
    "min_variance_prevalence",
    "normal_cdf",
    "normal_quantile",
    "odds_and_risk_ratio",
    "optimal_risk",
    "p_to_z",
    "prevalence_pathway",
    "risk_to_cohort",
    "series_partial_sums",
    "series_radius",
    "sigma2_by_exposure",
    "sigma2_by_prevalence",
    "standardized_effect",
    "summarize_risk",
    "t_statistic",
    "verify_bound",
    "z_to_p",
]


def test_all_is_the_frozen_list_without_duplicates():
    assert len(keplor.__all__) == len(set(keplor.__all__))
    assert sorted(keplor.__all__) == PUBLIC_NAMES


def test_all_is_version_plus_the_module_lists():
    from_modules = [name for module in MODULES for name in module.__all__]
    assert sorted(["__version__", *from_modules]) == PUBLIC_NAMES


def test_each_name_is_its_home_module_object():
    for module in MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            assert getattr(keplor, name) is value
            assert getattr(value, "__module__", module.__name__) == module.__name__
