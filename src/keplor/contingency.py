"""2x2 case-control tables: estimators and parameterization conversions.

A table of counts (rows: cases/controls, columns: exposed/unexposed) supports
two equivalent descriptions of the underlying population: the cohort
parameterization (exposure probability among cases, among controls, and the
case prevalence) and the risk parameterization (disease risk among exposed,
among unexposed, and the pooled exposure probability).  This module holds the
count estimators and the Bayes maps between the two parameterizations.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import DomainError, NonFinite, ZeroCell, ZeroMargin, _Record
from .errors import _parse_count, _split_counts
from .errors import _check_derived, _check_integer, _check_positive, _check_probability

__all__ = [
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
]

# Standardized effects cannot exceed the Laplace limit; checked post-hoc on
# EffectSummary with one spare digit of slack.
_STANDARDIZED_CAP = 0.6627434194
# fdlibm's split of ln 2: _LN2_HI has 20 trailing zero bits, so shift * _LN2_HI
# is exact for every shift a table's cross products can have.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


class TwoByTwoTable(_Record):
    """Counts n11, n12 (cases exposed/unexposed), n21, n22 (controls)."""

    n11: int
    n12: int
    n21: int
    n22: int

    def __post_init__(self) -> None:
        n11, n12, n21, n22 = self.n11, self.n12, self.n21, self.n22
        # One comparison passes a valid record; only a failing one runs the
        # helpers, which name the first bad field.  RiskParams and
        # CohortParams check the same way.
        if not (
            type(n11) is int and type(n12) is int and type(n21) is int
            and type(n22) is int and n11 >= 0 and n12 >= 0 and n21 >= 0 and n22 >= 0
        ):
            for name, value in self.__dict__.items():
                _check_integer(name, value, 0)
        if n11 + n12 < 1:
            raise ZeroMargin("table has no cases (first row sums to zero)")
        if n21 + n22 < 1:
            raise ZeroMargin("table has no controls (second row sums to zero)")

    @property
    def cases(self) -> int:
        return self.n11 + self.n12

    @property
    def controls(self) -> int:
        return self.n21 + self.n22

    @property
    def total(self) -> int:
        return self.cases + self.controls

    def cells(self) -> tuple[int, int, int, int]:
        return (self.n11, self.n12, self.n21, self.n22)

    @classmethod
    def from_text(cls, text: str) -> "TwoByTwoTable":
        """Parse 'n11,n12,n21,n22' (row-major, non-negative integers)."""
        parts = _split_counts(text, DomainError)
        return cls(*[_parse_count(piece, DomainError) for piece in parts])


class CohortParams(_Record):
    """Exposure probabilities among cases and controls, plus case prevalence."""

    exposure_cases: float
    exposure_controls: float
    prevalence: float

    def __post_init__(self) -> None:
        p, q, w = self.exposure_cases, self.exposure_controls, self.prevalence
        if not (0.0 < p < 1.0 and 0.0 < q < 1.0 and 0.0 < w < 1.0):
            for name, value in self.__dict__.items():
                _check_probability(name, value)


class RiskParams(_Record):
    """Disease risks among exposed and unexposed, plus pooled exposure."""

    risk_exposed: float
    risk_unexposed: float
    exposure: float

    def __post_init__(self) -> None:
        re_, ru, v = self.risk_exposed, self.risk_unexposed, self.exposure
        if not (0.0 < re_ < 1.0 and 0.0 < ru < 1.0 and 0.0 < v < 1.0):
            for name, value in self.__dict__.items():
                _check_probability(name, value)


class EffectSummary(_Record):
    """Odds ratio, risk ratio, log odds, its standard deviation, and their quotient."""

    odds_ratio: float
    risk_ratio: float
    log_odds: float
    sigma: float
    standardized: float

    def __post_init__(self) -> None:
        for name in ("odds_ratio", "risk_ratio", "sigma"):
            _check_positive(name, getattr(self, name))
        log_or = math.log(self.odds_ratio)
        if self.odds_ratio < sys.float_info.min:
            # log_odds comes from the risks, and a subnormal odds ratio is off
            # from the true one by up to half a step of 2**-1074; the 1e-12
            # covers the few ulps of the logit difference.
            consistent = abs(self.log_odds - log_or) <= math.ulp(0.0) / self.odds_ratio + 1e-12
        else:
            consistent = self.log_odds == log_or
        if not consistent:
            raise DomainError("log_odds must equal log(odds_ratio) by construction")
        if self.standardized != self.log_odds / self.sigma:
            raise DomainError("standardized must equal log_odds/sigma by construction")
        if not abs(self.standardized) < _STANDARDIZED_CAP:
            raise DomainError(
                f"standardized effect {self.standardized!r} exceeds the "
                f"attainable bound {_STANDARDIZED_CAP}"
            )


class Proportions(NamedTuple):
    exposure_cases: float
    exposure_controls: float
    case_fraction: float
    total: int


class OddsRatioEstimate(NamedTuple):
    odds_ratio: float
    log_odds: float


class EffectRatios(NamedTuple):
    odds_ratio: float
    risk_ratio: float


def estimate_proportions(table: TwoByTwoTable) -> Proportions:
    """Row-wise exposure proportions, the case fraction, and the grand total."""
    cases = table.cases
    controls = table.controls
    total = cases + controls
    return Proportions(table.n11 / cases, table.n21 / controls, cases / total, total)


def _cells(table: TwoByTwoTable, correction: bool) -> tuple[int, ...]:
    """The counts, or 2c + 1 under correction: the cells plus 1/2, doubled."""
    counts = table.cells()
    if not correction and 0 in counts:
        raise ZeroCell(
            "table contains an empty cell; pass correction=True to add 0.5 "
            "to every cell"
        )
    try:
        float(max(counts))
    except OverflowError:
        raise NonFinite("a count exceeds the double-precision range") from None
    return tuple(2 * c + 1 for c in counts) if correction else counts


def _odds_ratio(cells: tuple[int, ...]) -> OddsRatioEstimate:
    """(c11*c22)/(c12*c21) from the exact cross products, rounded once, and its log."""
    c11, c12, c21, c22 = cells
    top, bottom = c11 * c22, c12 * c21
    try:
        odds_ratio = top / bottom
    except OverflowError:
        odds_ratio = math.inf
    if sys.float_info.min <= odds_ratio < math.inf:
        return OddsRatioEstimate(odds_ratio, math.log(odds_ratio))
    # A subnormal, zero or infinite odds ratio has lost bits; the exact quotient
    # is q * 2**shift, and q in (1/2, 2) rounds once.
    shift = top.bit_length() - bottom.bit_length()
    q = (top << max(-shift, 0)) / (bottom << max(shift, 0))
    return OddsRatioEstimate(odds_ratio, shift * _LN2_HI + (math.log(q) + shift * _LN2_LO))


def estimate_odds_ratio(
    table: TwoByTwoTable, correction: bool = False
) -> OddsRatioEstimate:
    """Cross-product odds ratio (n11*n22)/(n12*n21) and its natural log.

    With ``correction=True`` every cell gets 0.5 added first, which keeps the
    estimate finite in the presence of empty cells.  The cross products are
    exact integers, so the odds ratio is their quotient rounded once: 0.0, a
    subnormal, a normal double or inf.  The log odds is the log of a normal
    odds ratio, and otherwise ln q + shift * ln 2 of the exact quotient
    q * 2**shift, q in (1/2, 2).
    """
    return _odds_ratio(_cells(table, correction))


def t_statistic(table: TwoByTwoTable, correction: bool = False) -> float:
    """Standardized log odds ratio: log_odds / sqrt(sum of reciprocal cells).

    Algebraically identical to sqrt(N) * log_odds / sigma(case_fraction) with
    sigma evaluated at the observed proportions; asymptotically standard
    normal under the null.  Each reciprocal is one integer quotient, 1/c, or
    2/(2c + 1) under correction, and they are added left to right, so every
    Python version gives the same bits (``sum`` is compensated from 3.12).
    """
    cells = _cells(table, correction)
    c11, c12, c21, c22 = cells
    k = 2 if correction else 1
    return _odds_ratio(cells).log_odds / math.sqrt(k / c11 + k / c12 + k / c21 + k / c22)


def _share(x: float, y: float, u: float, v: float) -> float:
    """x*y/(x*y + u*v), each product a frexp mantissa product scaled by one power
    of two that puts the larger in [2**53, 2**55), then one sum and one quotient."""
    (mx, ex), (my, ey) = math.frexp(x), math.frexp(y)
    (mu, eu), (mv, ev) = math.frexp(u), math.frexp(v)
    exy, euv = ex + ey, eu + ev
    scale = 55 - (exy if exy > euv else euv)
    top = math.ldexp(mx * my, exy + scale)
    return top / (top + math.ldexp(mu * mv, euv + scale))


def cohort_to_risk(cohort: CohortParams) -> RiskParams:
    """Bayes map from (exposure_cases, exposure_controls, prevalence) to risks."""
    p = cohort.exposure_cases
    q = cohort.exposure_controls
    w = cohort.prevalence
    exposure = w * p + (1.0 - w) * q
    _check_derived("exposure", exposure)
    risk_exposed = _share(w, p, 1.0 - w, q)
    risk_unexposed = _share(w, 1.0 - p, 1.0 - w, 1.0 - q)
    _check_derived("risk_exposed", risk_exposed)
    _check_derived("risk_unexposed", risk_unexposed)
    return RiskParams(risk_exposed, risk_unexposed, exposure)


def risk_to_cohort(risk: RiskParams) -> CohortParams:
    """Inverse Bayes map; round-trips with cohort_to_risk."""
    re_ = risk.risk_exposed
    ru = risk.risk_unexposed
    v = risk.exposure
    prevalence = v * re_ + (1.0 - v) * ru
    _check_derived("prevalence", prevalence)
    exposure_cases = _share(v, re_, 1.0 - v, ru)
    exposure_controls = _share(v, 1.0 - re_, 1.0 - v, 1.0 - ru)
    _check_derived("exposure_cases", exposure_cases)
    _check_derived("exposure_controls", exposure_controls)
    return CohortParams(exposure_cases, exposure_controls, prevalence)


def odds_and_risk_ratio(risk: RiskParams) -> EffectRatios:
    """Odds ratio and risk ratio implied by a pair of risks.

    Both are invariant in the pooled exposure, so only the two risks enter.
    """
    odds_exposed = risk.risk_exposed / (1.0 - risk.risk_exposed)
    odds_unexposed = risk.risk_unexposed / (1.0 - risk.risk_unexposed)
    return EffectRatios(
        odds_exposed / odds_unexposed, risk.risk_exposed / risk.risk_unexposed
    )
