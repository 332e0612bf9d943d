"""Design-dependent variance of the log odds ratio and its closed-form ceiling.

The variance of the estimated log odds ratio scales with the study design:
the case prevalence in the cohort parameterization, or the pooled exposure in
the risk parameterization.  Minimizing that variance over the design and then
over the risks yields a closed-form ceiling for the standardized effect
ln(OR)/sigma.  As a function of x = ln(OR) the ceiling is the odd curve
(x/4)*sech(x/4), whose peak value is the Laplace limit constant 0.6627...,
attained at x = 4z where z solves z*tanh(z) = 1.

`verify_bound` is a brute-force sampling oracle for the ceiling; it is the
only numpy user in the package and imports numpy on its first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .contingency import (
    EffectSummary,
    RiskParams,
    _check_probability,
    odds_and_risk_ratio,
)
from .errors import DomainError
from .kepler import _tanh_root

__all__ = [
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
]

# Rows drawn and evaluated at once by verify_bound.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class BoundConstants:
    """The constants of the standardized-effect ceiling.

    tanh_root
        z solving z*tanh(z) = 1.
    peak_log_or
        4z, the log odds ratio maximizing the ceiling.
    peak_or
        exp(4z).
    laplace_limit
        The peak ceiling value z/cosh(z), the Laplace limit constant.
    peak_risk
        Exposed-group risk at the attainment point, 1/(2z) + 1/2.
    """

    tanh_root: float
    peak_log_or: float
    peak_or: float
    laplace_limit: float
    peak_risk: float


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the brute-force bound check over sampled risk triples."""

    samples: int
    max_gamma_observed: float
    arg_max: RiskParams
    violations: int
    bound: float


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be a positive finite real, got {value!r}")


def sigma2_by_prevalence(
    prevalence: float, exposure_cases: float, exposure_controls: float
) -> float:
    """Variance factor of the log odds ratio in the cohort parameterization.

    1/(prevalence * p(1-p)) + 1/((1-prevalence) * q(1-q)) with p, q the
    exposure probabilities among cases and controls.
    """
    _check_probability("prevalence", prevalence)
    _check_probability("exposure_cases", exposure_cases)
    _check_probability("exposure_controls", exposure_controls)
    p, q, w = exposure_cases, exposure_controls, prevalence
    return 1.0 / (w * p * (1.0 - p)) + 1.0 / ((1.0 - w) * q * (1.0 - q))


def sigma2_by_exposure(
    exposure: float, risk_exposed: float, risk_unexposed: float
) -> float:
    """Variance factor of the log odds ratio in the risk parameterization."""
    _check_probability("exposure", exposure)
    _check_probability("risk_exposed", risk_exposed)
    _check_probability("risk_unexposed", risk_unexposed)
    re_, ru, v = risk_exposed, risk_unexposed, exposure
    return 1.0 / (v * re_ * (1.0 - re_)) + 1.0 / ((1.0 - v) * ru * (1.0 - ru))


def min_variance_prevalence(exposure_cases: float, exposure_controls: float) -> float:
    """Prevalence minimizing sigma2_by_prevalence for fixed exposure probabilities.

    Closed form 1/(1 + sqrt(p(1-p)/(q(1-q)))), the simplification of
    1/(1 + (p/q)/sqrt(OR)).
    """
    _check_probability("exposure_cases", exposure_cases)
    _check_probability("exposure_controls", exposure_controls)
    p, q = exposure_cases, exposure_controls
    return 1.0 / (1.0 + math.sqrt((p * (1.0 - p)) / (q * (1.0 - q))))


def min_variance_exposure(risk_ratio: float, odds_ratio: float) -> float:
    """Pooled exposure minimizing sigma2_by_exposure: 1/(1 + rr/sqrt(or)).

    Consistency of the (risk_ratio, odds_ratio) pair is the caller's
    responsibility; the formula is evaluated as stated for any positive pair.
    """
    _check_positive("risk_ratio", risk_ratio)
    _check_positive("odds_ratio", odds_ratio)
    return 1.0 / (1.0 + risk_ratio / math.sqrt(odds_ratio))


def optimal_risk(odds_ratio: float) -> RiskParams:
    """Risk triple maximizing the standardized effect at a fixed odds ratio.

    risk_unexposed = 1/(1 + sqrt(or)), risk_exposed = 1 - risk_unexposed,
    exposure = 1/2.
    """
    _check_positive("odds_ratio", odds_ratio)
    risk_unexposed = 1.0 / (1.0 + math.sqrt(odds_ratio))
    return RiskParams(
        risk_exposed=1.0 - risk_unexposed,
        risk_unexposed=risk_unexposed,
        exposure=0.5,
    )


def standardized_effect(risk: RiskParams) -> float:
    """ln(odds ratio) over the design standard deviation sqrt(sigma2_by_exposure)."""
    log_odds = math.log(odds_and_risk_ratio(risk).odds_ratio)
    sigma = math.sqrt(
        sigma2_by_exposure(risk.exposure, risk.risk_exposed, risk.risk_unexposed)
    )
    return log_odds / sigma


def summarize_risk(risk: RiskParams) -> EffectSummary:
    """Bundle the effect measures implied by a risk triple."""
    ratios = odds_and_risk_ratio(risk)
    log_odds = math.log(ratios.odds_ratio)
    sigma = math.sqrt(
        sigma2_by_exposure(risk.exposure, risk.risk_exposed, risk.risk_unexposed)
    )
    return EffectSummary(
        odds_ratio=ratios.odds_ratio,
        risk_ratio=ratios.risk_ratio,
        log_odds=log_odds,
        sigma=sigma,
        standardized=log_odds / sigma,
    )


def max_standardized_effect(odds_ratio: float) -> float:
    """Ceiling of the standardized effect over all designs at a fixed odds ratio.

    ln(or) / (2*sqrt(2 + (1+or)/sqrt(or))); evaluated through the equivalent
    hyperbolic form for |ln or| > 300 to keep clear of overflow.
    """
    _check_positive("odds_ratio", odds_ratio)
    log_odds = math.log(odds_ratio)
    if abs(log_odds) > 300.0:
        return bound_curve(log_odds)
    scale = 2.0 + (1.0 + odds_ratio) / math.sqrt(odds_ratio)
    return log_odds / (2.0 * math.sqrt(scale))


def bound_curve(log_odds: float) -> float:
    """The ceiling as an odd function of x = ln(or): (x/4)*sech(x/4)."""
    if math.isnan(log_odds):
        raise DomainError("bound_curve requires a non-NaN argument")
    t = 0.25 * log_odds
    a = abs(t)
    if a < 350.0:
        return t / math.cosh(t)
    # sech via decaying exponentials; underflows cleanly to +-0.0.
    e = math.exp(-a)
    return math.copysign(2.0 * a * e / (1.0 + e * e), t)


def bound_curve_derivative(log_odds: float) -> float:
    """Derivative of bound_curve: (4 - x*tanh(x/4)) * sech(x/4) / 16."""
    if math.isnan(log_odds):
        raise DomainError("bound_curve_derivative requires a non-NaN argument")
    t = 0.25 * log_odds
    a = abs(t)
    if a < 350.0:
        sech = 1.0 / math.cosh(t)
    else:
        e = math.exp(-a)
        sech = 2.0 * e / (1.0 + e * e)
    return (4.0 - log_odds * math.tanh(t)) * sech / 16.0


@lru_cache(maxsize=1)
def bound_constants() -> BoundConstants:
    """Derive the attainment constants from the root z of z*tanh(z) = 1.

    z comes from the one find_root solve in kepler that also gives
    series_radius; bound_curve(4z) evaluates z/cosh(z) at 0.25*(4z) == z, so
    laplace_limit equals series_radius() bit for bit.  Deterministic, cached.
    """
    z = _tanh_root()
    peak_log_or = 4.0 * z
    return BoundConstants(
        tanh_root=z,
        peak_log_or=peak_log_or,
        peak_or=math.exp(peak_log_or),
        laplace_limit=bound_curve(peak_log_or),
        peak_risk=1.0 / (2.0 * z) + 0.5,
    )


def _check_chunk(points, llc: float) -> tuple[int, int, float]:
    """Clip one chunk in place; return (violations, argmax row index, max |gamma|)."""
    import numpy as np

    np.clip(points, 1e-12, 1.0 - 1e-12, out=points)
    risk_exposed = points[:, 0]
    risk_unexposed = points[:, 1]
    exposure = points[:, 2]

    log_odds = (np.log(risk_exposed) - np.log1p(-risk_exposed)) - (
        np.log(risk_unexposed) - np.log1p(-risk_unexposed)
    )
    sigma2 = 1.0 / (exposure * risk_exposed * (1.0 - risk_exposed)) + 1.0 / (
        (1.0 - exposure) * risk_unexposed * (1.0 - risk_unexposed)
    )
    gamma_abs = np.abs(log_odds / np.sqrt(sigma2))
    # |max_standardized_effect(or)| = bound_curve(|ln or|), branch-free here.
    quarter = np.abs(log_odds) / 4.0
    per_or_bound = quarter / np.cosh(quarter)
    violations = (gamma_abs > per_or_bound + 1e-12) | (gamma_abs > llc + 1e-12)
    top = int(np.argmax(gamma_abs))
    return int(np.count_nonzero(violations)), top, float(gamma_abs[top])


def verify_bound(n_samples: int, seed: int) -> VerificationReport:
    """Sample risk triples and check every standardized effect against the ceiling.

    Half the triples are uniform over the open unit cube, half are Gaussian
    jitter (s.d. 0.02) around the attainment point so the empirical maximum
    closes in on the Laplace limit.  A triple counts as a violation when
    |gamma| exceeds |max_standardized_effect(or)| + 1e-12 or the Laplace
    limit + 1e-12.  Deterministic for a given (n_samples, seed).

    Triples are drawn and checked _CHUNK rows at a time, keeping only running
    totals, so memory stays flat at any n_samples; the report is the one an
    evaluation of all triples at once gives.  numpy is imported on first call.
    """
    if isinstance(n_samples, bool) or not isinstance(n_samples, int) or n_samples < 1:
        raise DomainError(f"n_samples must be a positive integer, got {n_samples!r}")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    import numpy as np

    constants = bound_constants()
    llc = constants.laplace_limit
    rng = np.random.default_rng(seed)
    center = np.array([constants.peak_risk, 1.0 - constants.peak_risk, 0.5])
    n_uniform = n_samples // 2
    violations = 0
    max_gamma = -math.inf
    for start in range(0, n_samples, _CHUNK):
        # Rows below n_uniform are uniform, the rest Gaussian.  Chunks follow
        # the row order, so the stream is consumed exactly as by one draw of
        # all uniform rows followed by one draw of all Gaussian rows.
        stop = min(start + _CHUNK, n_samples)
        split = min(max(n_uniform, start), stop) - start
        points = np.empty((stop - start, 3))
        rng.random(out=points[:split])
        concentrated = points[split:]
        concentrated[...] = rng.normal(0.0, 0.02, concentrated.shape)
        concentrated += center
        count, top, gamma = _check_chunk(points, llc)
        violations += count
        # Strict >: a tie in a later chunk keeps the earlier row, the first
        # occurrence np.argmax would pick over all triples.
        if gamma > max_gamma:
            max_gamma = gamma
            arg_max = points[top].tolist()
    return VerificationReport(
        samples=n_samples,
        max_gamma_observed=max_gamma,
        arg_max=RiskParams(
            risk_exposed=arg_max[0],
            risk_unexposed=arg_max[1],
            exposure=arg_max[2],
        ),
        violations=violations,
        bound=llc,
    )
