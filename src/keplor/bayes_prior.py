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

from .effect_bounds import max_standardized_effect
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
    return PriorSpec(or_threshold, tail_mass, assumed_sigma, variance)


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

    With r = risk_exposed and d = r + OR*(1 - r), the risk ratio, the unexposed
    risk is r/d; at pooled exposure 1/2 the cohort is p = d/(d + 1) and
    q = d/(d + OR).  Its variance-minimizing prevalence is
    1/(1 + (d + OR)/((d + 1)*s)), s = sqrt(OR), with sigma
    (1 + s)*(d + s)/(s*sqrt(d)), each evaluated so that no term overflows and
    every complement is a quotient of positive terms.
    """
    _check_positive("odds_ratio", odds_ratio)
    _check_probability("risk_exposed", risk_exposed)
    risk_ratio = risk_exposed + odds_ratio * (1.0 - risk_exposed)
    risk_unexposed = risk_exposed / risk_ratio
    _check_derived("risk_unexposed", risk_unexposed)
    root_or, root_rr = math.sqrt(odds_ratio), math.sqrt(risk_ratio)
    plus_one = risk_ratio + 1.0
    prevalence = 1.0 / (1.0 + (risk_ratio / plus_one + odds_ratio / plus_one) / root_or)
    _check_derived("prevalence", prevalence)
    sigma = (1.0 + 1.0 / root_or) * (root_rr + root_or / root_rr)
    return PathwayResult(risk_unexposed, risk_ratio, prevalence, sigma)
