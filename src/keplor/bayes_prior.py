"""Prior-specification helpers for standardized log odds ratios.

A normal prior on the standardized effect is pinned down by one tail
statement: the probability that the odds ratio exceeds a threshold.  Turning
that into a prior variance requires an assumed standard deviation for the log
odds ratio; the attainability ceiling from effect_bounds gives the smallest
defensible assumption, the flattest prior; numerics.p_to_z gives the quantile.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .contingency import RiskParams, risk_to_cohort
from .effect_bounds import (
    max_standardized_effect,
    min_variance_prevalence,
    sigma2_by_prevalence,
)
from .errors import DomainError, _Record
from .errors import _check_derived, _check_positive, _check_probability
# Imported as a pair: perfbench/worker.py also calls bayes_prior.z_to_p.
from .numerics import p_to_z, z_to_p

__all__ = [
    "PriorSpec",
    "PathwayResult",
    "flattest_prior",
    "flattest_sigma",
    "prevalence_pathway",
]


class PriorSpec(_Record):
    """A tail statement and the prior variance it induces.

    The tail statement is Pr(odds ratio > or_threshold) = tail_mass under the
    normal prior for the standardized effect; assumed_sigma is the standard
    deviation assumed for the log odds ratio.  flattest_prior validates those
    three inputs; the record itself checks only the induced prior_variance.
    """

    or_threshold: float
    tail_mass: float
    assumed_sigma: float
    prior_variance: float

    def __post_init__(self) -> None:
        _check_positive("prior_variance", self.prior_variance)


class PathwayResult(NamedTuple):
    """Output of prevalence_pathway: the implied design and its sigma."""

    risk_unexposed: float
    risk_ratio: float
    prevalence: float
    sigma: float


def flattest_prior(
    or_threshold: float, tail_mass: float, assumed_sigma: float
) -> PriorSpec:
    """Prior variance for the standardized effect from one tail statement.

    prior_variance = (ln(or_threshold) / assumed_sigma / q)^2 with
    q = p_to_z(tail_mass), the upper-tail quantile.  Quartering under a doubled
    assumed_sigma is exact.
    """
    if not (math.isfinite(or_threshold) and or_threshold > 1.0):
        raise DomainError(f"or_threshold must exceed 1, got {or_threshold!r}")
    if not 0.0 < tail_mass < 0.5:
        raise DomainError(f"tail_mass must lie in (0, 0.5), got {tail_mass!r}")
    _check_positive("assumed_sigma", assumed_sigma)
    quantile = p_to_z(tail_mass)
    ratio = math.log(or_threshold) / assumed_sigma / quantile
    variance = ratio * ratio
    _check_derived("prior_variance", variance, math.inf)
    return PriorSpec(
        or_threshold=or_threshold,
        tail_mass=tail_mass,
        assumed_sigma=assumed_sigma,
        prior_variance=variance,
    )


def flattest_sigma(or_threshold: float) -> float:
    """Smallest attainable sigma for a log odds ratio at the threshold.

    ln(x)/max_standardized_effect(x): assuming any larger sigma shrinks the
    prior variance, so this choice yields the flattest prior.
    """
    if not (math.isfinite(or_threshold) and or_threshold > 1.0):
        raise DomainError(f"or_threshold must exceed 1, got {or_threshold!r}")
    return math.log(or_threshold) / max_standardized_effect(or_threshold)


def prevalence_pathway(odds_ratio: float, risk_exposed: float) -> PathwayResult:
    """Sigma under an assumed exposed-group risk instead of the flattest choice.

    The unexposed risk is recovered from the odds ratio,
    risk_unexposed = 1 / (1 + odds_ratio*(1 - risk_exposed)/risk_exposed);
    the risk pair is anchored at pooled exposure 1/2 and converted to cohort
    parameters, where the variance-minimizing prevalence and its sigma are
    evaluated.
    """
    _check_positive("odds_ratio", odds_ratio)
    _check_probability("risk_exposed", risk_exposed)
    risk_unexposed = 1.0 / (1.0 + odds_ratio * (1.0 - risk_exposed) / risk_exposed)
    _check_derived("risk_unexposed", risk_unexposed)
    cohort = risk_to_cohort(
        RiskParams(risk_exposed=risk_exposed, risk_unexposed=risk_unexposed, exposure=0.5)
    )
    prevalence = min_variance_prevalence(
        cohort.exposure_cases, cohort.exposure_controls
    )
    sigma = math.sqrt(
        sigma2_by_prevalence(
            prevalence, cohort.exposure_cases, cohort.exposure_controls
        )
    )
    return PathwayResult(
        risk_unexposed=risk_unexposed,
        risk_ratio=risk_exposed / risk_unexposed,
        prevalence=prevalence,
        sigma=sigma,
    )
