"""Prior-specification helpers for standardized log odds ratios.

A normal prior on the standardized effect is pinned down by one tail
statement: the probability that the odds ratio exceeds a threshold.  Turning
that into a prior variance requires an assumed standard deviation for the log
odds ratio; the attainability ceiling from effect_bounds gives the smallest
defensible assumption and therefore the flattest (largest-variance) prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .contingency import RiskParams, risk_to_cohort
from .effect_bounds import (
    max_standardized_effect,
    min_variance_prevalence,
    sigma2_by_prevalence,
)
from .errors import DomainError, InconsistentParams
from .numerics import normal_cdf, normal_quantile

__all__ = [
    "PriorSpec",
    "PathwayResult",
    "p_to_z",
    "z_to_p",
    "flattest_prior",
    "flattest_sigma",
    "prevalence_pathway",
]


@dataclass(frozen=True)
class PriorSpec:
    """A tail statement and the prior variance it induces.

    The tail statement is Pr(odds ratio > or_threshold) = tail_mass under the
    normal prior for the standardized effect; assumed_sigma is the standard
    deviation assumed for the log odds ratio; prior_variance is the variance
    of the induced prior.
    """

    or_threshold: float
    tail_mass: float
    assumed_sigma: float
    prior_variance: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.or_threshold) and self.or_threshold > 1.0):
            raise DomainError(
                f"or_threshold must exceed 1, got {self.or_threshold!r}"
            )
        if not 0.0 < self.tail_mass < 1.0:
            raise DomainError(f"tail_mass must lie in (0, 1), got {self.tail_mass!r}")
        if not (math.isfinite(self.assumed_sigma) and self.assumed_sigma > 0.0):
            raise DomainError(
                f"assumed_sigma must be positive, got {self.assumed_sigma!r}"
            )
        if not (math.isfinite(self.prior_variance) and self.prior_variance > 0.0):
            raise DomainError(
                f"prior_variance must be positive, got {self.prior_variance!r}"
            )


class PathwayResult(NamedTuple):
    """Output of prevalence_pathway: the implied design and its sigma."""

    risk_unexposed: float
    risk_ratio: float
    prevalence: float
    sigma: float


def p_to_z(p_value: float) -> float:
    """Upper-tail p-value to the normal test statistic.

    Evaluated as -normal_quantile(p_value), never through 1 - p_value, which
    rounds to 1 below p = 1.1e-16; 0.0 - x keeps z = +0.0 at p = 1/2.
    """
    if not 0.0 < p_value < 1.0:
        raise DomainError(f"p_value must lie in (0, 1), got {p_value!r}")
    return 0.0 - normal_quantile(p_value)


def z_to_p(z: float) -> float:
    """Normal test statistic to its upper-tail p-value.

    normal_cdf(-z) is erfc(z/sqrt 2)/2, which keeps full relative accuracy in
    the upper tail, where 1 - normal_cdf(z) cancels to 0 past z = 8.3.
    """
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z!r}")
    return normal_cdf(-z)


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
    if not (math.isfinite(assumed_sigma) and assumed_sigma > 0.0):
        raise DomainError(f"assumed_sigma must be positive, got {assumed_sigma!r}")
    quantile = p_to_z(tail_mass)
    ratio = math.log(or_threshold) / assumed_sigma / quantile
    return PriorSpec(
        or_threshold=or_threshold,
        tail_mass=tail_mass,
        assumed_sigma=assumed_sigma,
        prior_variance=ratio * ratio,
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
    if not (math.isfinite(odds_ratio) and odds_ratio > 0.0):
        raise DomainError(f"odds_ratio must be positive, got {odds_ratio!r}")
    if not 0.0 < risk_exposed < 1.0:
        raise DomainError(f"risk_exposed must lie in (0, 1), got {risk_exposed!r}")
    denominator = 1.0 + odds_ratio * (1.0 - risk_exposed) / risk_exposed
    risk_unexposed = 1.0 / denominator
    if not 0.0 < risk_unexposed < 1.0:
        raise InconsistentParams(
            f"derived risk_unexposed {risk_unexposed!r} falls outside (0, 1)"
        )
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
