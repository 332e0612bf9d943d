"""Design-dependent variance of the log odds ratio and its closed-form ceiling.

The variance of the estimated log odds ratio scales with the study design:
the case prevalence in the cohort parameterization, or the pooled exposure in
the risk parameterization.  Minimizing that variance over the design and then
over the risks yields a closed-form ceiling for the standardized effect
ln(OR)/sigma.  As a function of x = ln(OR) the ceiling is the odd curve
(x/4)*sech(x/4), whose peak value is the Laplace limit constant 0.6627...,
attained at x = 4z where z solves z*tanh(z) = 1.

`verify_bound` is a brute-force sampling oracle for the ceiling; it is the
only numpy user in the package and imports numpy on its first call.  Only
`bound_constants` uses kepler, and imports it the same way.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

from .contingency import EffectRatios, EffectSummary, RiskParams
from .contingency import odds_and_risk_ratio
from .errors import _Record, _check_derived, _check_finite
from .errors import _check_integer, _check_positive, _check_probability

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
_CHUNK = 1 << 14


class BoundConstants(_Record):
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


class VerificationReport(_Record):
    """Outcome of the brute-force bound check over sampled risk triples."""

    samples: int
    max_gamma_observed: float
    arg_max: RiskParams
    violations: int
    bound: float


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
    s, half = _variance_factor(prevalence, exposure_cases, exposure_controls)
    scale = math.ldexp(1.0, -half)
    return s / scale / scale  # exact, or inf past the largest double


def sigma2_by_exposure(
    exposure: float, risk_exposed: float, risk_unexposed: float
) -> float:
    """Variance factor of the log odds ratio in the risk parameterization."""
    _check_probability("exposure", exposure)
    _check_probability("risk_exposed", risk_exposed)
    _check_probability("risk_unexposed", risk_unexposed)
    return sigma2_by_prevalence(exposure, risk_exposed, risk_unexposed)


def _variance_factor(w: float, a: float, b: float) -> tuple[float, int]:
    """1/(w*a*(1-a)) + 1/((1-w)*b*(1-b)), the variance factor of both forms,
    as (s, half) with sigma2 = s * 4**half.

    While both products are normal doubles, s is that sum and half is 0; the
    scaled form would give the same bits there, at about five times the cost.
    Otherwise each product is held as a mantissa times a power of two, which
    scales exactly; s lies in (1/2, 16], and half is at most 1073, so 2**-half
    is a double.
    """
    first, second = w * a * (1.0 - a), (1.0 - w) * b * (1.0 - b)
    if first >= 2.0**-1022 and second >= 2.0**-1022:
        return 1.0 / first + 1.0 / second, 0
    reciprocals = []
    for factors in ((w, a, 1.0 - a), (1.0 - w, b, 1.0 - b)):
        mantissa, exponent = 1.0, 0
        for factor in factors:
            m, e = math.frexp(factor)
            mantissa *= m
            exponent += e
        reciprocals.append((1.0 / mantissa, -exponent))
    (x, ex), (y, ey) = reciprocals
    half = (max(ex, ey) + 1) // 2
    return math.ldexp(x, ex - 2 * half) + math.ldexp(y, ey - 2 * half), half


def min_variance_prevalence(exposure_cases: float, exposure_controls: float) -> float:
    """Prevalence minimizing sigma2_by_prevalence for fixed exposure probabilities.

    Closed form 1/(1 + sqrt(p(1-p)/(q(1-q)))), the simplification of
    1/(1 + (p/q)/sqrt(OR)).  Raises InconsistentParams where the minimizer
    lies closer to 0 or 1 than a double can tell apart.
    """
    _check_probability("exposure_cases", exposure_cases)
    _check_probability("exposure_controls", exposure_controls)
    return _variance_minimizer(exposure_cases, exposure_controls, "prevalence")


def _variance_minimizer(p: float, q: float, name: str) -> float:
    """The w minimizing the variance factor of (w, p, q); errors call it `name`."""
    w = 1.0 / (1.0 + math.sqrt((p * (1.0 - p)) / (q * (1.0 - q))))
    if not 0.0 < w < 1.0:
        # The quotient overflowed or vanished; the balanced form
        # sqrt(q(1-q)) / (sqrt(p(1-p)) + sqrt(q(1-q))) does neither.
        root_p, root_q = math.sqrt(p * (1.0 - p)), math.sqrt(q * (1.0 - q))
        w = root_q / (root_p + root_q)
        _check_derived(name, w)
    return w


def min_variance_exposure(risk_ratio: float, odds_ratio: float) -> float:
    """Pooled exposure minimizing sigma2_by_exposure: 1/(1 + rr/sqrt(or)).

    Consistency of the (risk_ratio, odds_ratio) pair is the caller's
    responsibility; the formula is evaluated as stated for any positive pair.
    Raises InconsistentParams where the minimizer rounds to 0 or 1.
    """
    _check_positive("risk_ratio", risk_ratio)
    _check_positive("odds_ratio", odds_ratio)
    exposure = 1.0 / (1.0 + risk_ratio / math.sqrt(odds_ratio))
    _check_derived("exposure", exposure)
    return exposure


def optimal_risk(odds_ratio: float) -> RiskParams:
    """Risk triple maximizing the standardized effect at a fixed odds ratio.

    risk_unexposed = 1/(1 + sqrt(or)), risk_exposed = sqrt(or)/(1 + sqrt(or)),
    the larger as 1 minus the smaller, which is at least 2.2e-162; exposure = 1/2.
    InconsistentParams names the larger risk once it rounds to 1.0 (|ln or| > ~74.86).
    """
    _check_positive("odds_ratio", odds_ratio)
    root = math.sqrt(odds_ratio)
    low = min(root, 1.0) / (1.0 + root)
    high = 1.0 - low
    _check_derived("risk_exposed" if root >= 1.0 else "risk_unexposed", high)
    risk_exposed, risk_unexposed = (high, low) if root >= 1.0 else (low, high)
    return RiskParams(risk_exposed, risk_unexposed, 0.5)


def standardized_effect(risk: RiskParams) -> float:
    """ln(odds ratio) over the design standard deviation sqrt(sigma2_by_exposure).

    Past the double range the quotient is scaled by a power of two instead of
    giving nan or 0.
    """
    _, log_odds, s, half = _risk_effect(risk)
    return math.ldexp(log_odds / math.sqrt(s), -half)


def _risk_effect(risk: RiskParams) -> tuple[EffectRatios, float, float, int]:
    """The ratios, ln(odds ratio) and variance factor (s, half) of a risk triple.

    Where the odds ratio is 0, subnormal or inf, so that it keeps no or only
    a few significant bits, the log is the difference of the logits.
    """
    ratios = odds_and_risk_ratio(risk)
    re_, ru = risk.risk_exposed, risk.risk_unexposed
    if sys.float_info.min <= ratios.odds_ratio < math.inf:
        log_odds = math.log(ratios.odds_ratio)
    else:
        log_odds = (math.log(re_) - math.log1p(-re_)) - (math.log(ru) - math.log1p(-ru))
    return ratios, log_odds, *_variance_factor(risk.exposure, re_, ru)


def summarize_risk(risk: RiskParams) -> EffectSummary:
    """Bundle the effect measures implied by a risk triple.

    InconsistentParams names an odds ratio or sigma past the largest double.
    """
    ratios, log_odds, s, half = _risk_effect(risk)
    sigma = math.sqrt(s) / math.ldexp(1.0, -half)
    _check_derived("odds_ratio", ratios.odds_ratio, math.inf)
    _check_derived("sigma", sigma, math.inf)
    return EffectSummary(
        ratios.odds_ratio, ratios.risk_ratio, log_odds, sigma, log_odds / sigma
    )


def max_standardized_effect(odds_ratio: float) -> float:
    """Ceiling of the standardized effect over all designs at a fixed odds ratio.

    ln(or) / (2*sqrt(2 + (1+or)/sqrt(or))), finite for every positive double.
    bound_curve(ln or) is the same value but loses up to |ln or|/4 ulps.
    """
    _check_positive("odds_ratio", odds_ratio)
    scale = 2.0 + (1.0 + odds_ratio) / math.sqrt(odds_ratio)
    return math.log(odds_ratio) / (2.0 * math.sqrt(scale))


def bound_curve(log_odds: float) -> float:
    """The ceiling as an odd function of x = ln(or): (x/4)*sech(x/4)."""
    _check_finite("log_odds", log_odds)
    t = 0.25 * log_odds
    a = abs(t)
    if a < 350.0:
        return t / math.cosh(t)
    # Past |t| = 350, sech(t) is 2*exp(-|t|) to within a double.  Where that
    # exponential is subnormal, (2|t|*e)*e with e = exp(-|t|/2) keeps every
    # factor normal, so only the last product rounds to the subnormal grid.
    e = math.exp(-a)
    if e < 2.0**-1022:
        e = math.exp(-0.5 * a)
        return math.copysign(2.0 * a * e * e, t)
    return math.copysign(2.0 * a * e, t)


def bound_curve_derivative(log_odds: float) -> float:
    """Derivative of bound_curve: (4 - x*tanh(x/4)) * sech(x/4) / 16."""
    _check_finite("log_odds", log_odds)
    t = 0.25 * log_odds
    a = abs(t)
    if a < 350.0:
        sech = 1.0 / math.cosh(t)
    else:
        sech = 2.0 * math.exp(-a)
        if sech < 2.0**-1021:
            # exp(-|t|) is subnormal: split it as bound_curve does.
            e = math.exp(-0.5 * a)
            return (4.0 - log_odds * math.tanh(t)) * (2.0 * e) / 16.0 * e
    return (4.0 - log_odds * math.tanh(t)) * sech / 16.0


@lru_cache(maxsize=1)
def bound_constants() -> BoundConstants:
    """Derive the attainment constants from the root z of z*tanh(z) = 1.

    z comes from the one find_root solve in kepler, and laplace_limit is
    kepler.series_radius().  Deterministic and cached: kepler is imported once.
    """
    from . import kepler

    z = kepler._tanh_root()
    peak_log_or = 4.0 * z
    return BoundConstants(
        tanh_root=z,
        peak_log_or=peak_log_or,
        peak_or=math.exp(peak_log_or),
        laplace_limit=kepler.series_radius(),
        peak_risk=1.0 / (2.0 * z) + 0.5,
    )


def _check_chunk(columns, llc: float, scratch) -> tuple[int, int, float]:
    """Return (violations, argmax row, max |gamma|) of one chunk of triples.

    `columns` (3, n) holds the chunk's clipped risk_exposed, risk_unexposed
    and exposure rows, and is only read.  `scratch` (4, rows) is a buffer
    reused across chunks, with at least n rows.  Each step writes a
    contiguous scratch row instead of a fresh temporary, and gives the values
    the plain expression gives, bit for bit: |a/b| = |a|/b for b > 0, and
    past the curve or past the limit is past the smaller of the two.
    """
    import numpy as np

    n = columns.shape[1]
    risk_exposed, risk_unexposed, exposure = columns
    log_odds, gamma_abs, term, other = scratch[:, :n]

    # log_odds = (log(re) - log1p(-re)) - (log(ru) - log1p(-ru))
    np.negative(risk_exposed, out=term)
    np.log1p(term, out=term)
    np.log(risk_exposed, out=log_odds)
    np.subtract(log_odds, term, out=log_odds)
    np.negative(risk_unexposed, out=term)
    np.log1p(term, out=term)
    np.log(risk_unexposed, out=other)
    np.subtract(other, term, out=other)
    np.subtract(log_odds, other, out=log_odds)

    # sigma2 = 1/(v * re * (1-re)) + 1/((1-v) * ru * (1-ru)), into gamma_abs
    np.multiply(exposure, risk_exposed, out=gamma_abs)
    np.subtract(1.0, risk_exposed, out=term)
    np.multiply(gamma_abs, term, out=gamma_abs)
    np.divide(1.0, gamma_abs, out=gamma_abs)
    np.subtract(1.0, exposure, out=term)
    np.multiply(term, risk_unexposed, out=term)
    np.subtract(1.0, risk_unexposed, out=other)
    np.multiply(term, other, out=term)
    np.divide(1.0, term, out=term)
    np.add(gamma_abs, term, out=gamma_abs)

    # gamma_abs = |log_odds| / sqrt(sigma2), with |log_odds| kept for the curve
    np.abs(log_odds, out=log_odds)
    np.sqrt(gamma_abs, out=gamma_abs)
    np.divide(log_odds, gamma_abs, out=gamma_abs)

    # |max_standardized_effect(or)| = bound_curve(|ln or|), branch-free here:
    # quarter / cosh(quarter) with quarter = |log_odds| / 4, plus the slack,
    # and capped at the Laplace limit plus the slack.
    quarter = np.divide(log_odds, 4.0, out=log_odds)
    np.cosh(quarter, out=term)
    np.divide(quarter, term, out=term)
    np.add(term, 1e-12, out=term)
    np.minimum(term, llc + 1e-12, out=term)

    # The bytes of the spent `other` row hold the violation flags.
    violated = other.view(np.bool_)[:n]
    np.greater(gamma_abs, term, out=violated)
    top = int(np.argmax(gamma_abs))
    return int(np.count_nonzero(violated)), top, float(gamma_abs[top])


def verify_bound(n_samples: int, seed: int) -> VerificationReport:
    """Sample risk triples and check every standardized effect against the ceiling.

    Half the triples are uniform over the open unit cube, half are Gaussian
    jitter (s.d. 0.02) around the attainment point so the empirical maximum
    closes in on the Laplace limit.  A triple counts as a violation when
    |gamma| exceeds the smaller of |max_standardized_effect(or)| + 1e-12 and
    the Laplace limit + 1e-12.  Deterministic for a given (n_samples, seed).

    Triples are drawn and checked _CHUNK rows at a time into one set of
    buffers allocated per call, keeping only running totals, so memory stays
    flat at any n_samples; the report is the one an evaluation of all triples
    at once gives.  numpy is imported on first call.
    """
    _check_integer("n_samples", n_samples, 1)
    _check_integer("seed", seed, 0)
    import numpy as np

    constants = bound_constants()
    llc = constants.laplace_limit
    rng = np.random.default_rng(seed)
    center = np.array([[constants.peak_risk], [1.0 - constants.peak_risk], [0.5]])
    n_uniform = n_samples // 2
    rows = min(n_samples, _CHUNK)
    # Once clipped into `columns`, the draws are spent, so their three rows
    # double as the kernel's scratch.
    scratch = np.empty((4, rows))
    draws = scratch[:3].reshape(rows, 3)
    columns = np.empty((3, rows))
    violations = 0
    max_gamma = -math.inf
    for start in range(0, n_samples, _CHUNK):
        # Rows below n_uniform are uniform, the rest Gaussian.  Chunks follow
        # the row order, so the stream is consumed exactly as by one draw of
        # all uniform rows followed by one draw of all Gaussian rows.
        stop = min(start + _CHUNK, n_samples)
        split = min(max(n_uniform, start), stop) - start
        points, chunk = draws[: stop - start], columns[:, : stop - start]
        rng.random(out=points[:split])
        np.clip(points[:split].T, 1e-12, 1.0 - 1e-12, out=chunk[:, :split])
        # numpy draws normal(0, 0.02) as 0.0 + 0.02 * z, z by z.
        rng.standard_normal(out=points[split:])
        concentrated = np.multiply(points[split:].T, 0.02, out=chunk[:, split:])
        concentrated += center
        np.clip(concentrated, 1e-12, 1.0 - 1e-12, out=concentrated)
        count, top, gamma = _check_chunk(chunk, llc, scratch)
        violations += count
        # Strict >: a tie in a later chunk keeps the earlier row, the first
        # occurrence np.argmax would pick over all triples.
        if gamma > max_gamma:
            max_gamma = gamma
            arg_max = columns[:, top].tolist()
    return VerificationReport(
        samples=n_samples,
        max_gamma_observed=max_gamma,
        arg_max=RiskParams(*arg_max),
        violations=violations,
        bound=llc,
    )
