"""The package exports each public name once, from its home module."""

import subprocess
import sys

import pytest

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


def test_prior_module_still_binds_the_tail_conversions():
    # Their home is numerics; perfbench/worker.py calls them through bayes_prior.
    assert bayes_prior.p_to_z is numerics.p_to_z
    assert bayes_prior.z_to_p is numerics.z_to_p


def test_dir_covers_all():
    assert set(keplor.__all__) <= set(dir(keplor))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from keplor import *", namespace)
    del namespace["__builtins__"]
    assert len(namespace) == 57
    assert sorted(namespace) == PUBLIC_NAMES


def test_submodule_attribute_after_importing_the_cli(subprocess_env):
    # The CLI binds no library module into the package; the namespace loads
    # the one asked for, and nothing else.
    probe = (
        "import sys\n"
        "import keplor.cli\n"
        "numerics = keplor.numerics\n"
        "print(numerics is sys.modules['keplor.numerics'], "
        "*sorted(m for m in sys.modules if m.startswith('keplor')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=subprocess_env,
        check=True,
    )
    assert done.stdout.split() == ["True", "keplor", "keplor.cli", "keplor.errors", "keplor.numerics"]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'keplor' has no attribute 'no_such_name'"):
        keplor.no_such_name
    assert not hasattr(keplor, "no_such_name")
