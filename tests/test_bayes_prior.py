import math

import pytest
from hypothesis import given, strategies as st

from keplor.bayes_prior import (
    PriorSpec,
    flattest_prior,
    flattest_sigma,
    p_to_z,
    prevalence_pathway,
    z_to_p,
)
from keplor.effect_bounds import bound_constants, max_standardized_effect
from keplor.errors import DomainError, InconsistentParams

# Frozen oracles: 50-digit evaluations rounded once to double.
Q975 = 1.9599639845400543
SIGMA0_LN2 = 0.1143390728346476  # ln(2)/llc scaled by 1/q975... see test
LN2_OVER_LLC = 1.0458756138848129
FLATTEST_SIGMA_PEAK = 7.240678298772009
SQRT_18 = 4.242640687119285
# Upper-tail pairs, 50-digit mpmath evaluations rounded once to double.
P_AT_Z8 = 6.220960574271784e-16
P_AT_Z10 = 7.619853024160525e-24
Z_AT_P1E16 = 8.222082216130435
Z_AT_P1E17 = 8.493793224109599

thresholds = st.floats(1.001, 1000.0)
masses = st.floats(0.0005, 0.4995)


class TestQuantileBridge:
    def test_center(self):
        assert p_to_z(0.5) == 0.0
        assert z_to_p(0.0) == 0.5

    def test_frozen_values(self):
        assert abs(p_to_z(0.025) - Q975) < 1e-9
        assert abs(z_to_p(1.959964) - 0.025) < 1e-8

    def test_upper_tail_frozen(self):
        assert z_to_p(8.0) == pytest.approx(P_AT_Z8, rel=1e-13)
        assert z_to_p(10.0) == pytest.approx(P_AT_Z10, rel=1e-13)
        assert p_to_z(1e-16) == pytest.approx(Z_AT_P1E16, rel=1e-14)
        assert p_to_z(1e-17) == pytest.approx(Z_AT_P1E17, rel=1e-14)

    def test_center_is_positive_zero(self):
        assert math.copysign(1.0, p_to_z(0.5)) == 1.0

    @given(masses)
    def test_roundtrip(self, p):
        assert abs(z_to_p(p_to_z(p)) - p) < 1e-9

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            p_to_z(bad)


class TestFlattestPrior:
    def test_textbook_numbers(self):
        llc = bound_constants().laplace_limit
        spec = flattest_prior(2.0, 0.025, math.log(2.0) / llc)
        ratio = llc / Q975
        assert spec.prior_variance == pytest.approx(ratio * ratio, rel=1e-12)
        assert abs(math.sqrt(spec.prior_variance) - 0.338141) < 1e-6
        assert abs(spec.assumed_sigma - LN2_OVER_LLC) < 1e-12

    def test_far_tail_mass(self):
        spec = flattest_prior(2.0, 1e-17, 1.0)
        ratio = math.log(2.0) / Z_AT_P1E17
        assert spec.prior_variance == pytest.approx(ratio * ratio, rel=1e-13)

    def test_unit_variance_calibration(self):
        # Threshold e, sigma 1, mass set so the quantile is exactly 1.
        spec = flattest_prior(math.e, z_to_p(1.0), 1.0)
        assert abs(spec.prior_variance - 1.0) < 1e-8

    @given(thresholds, masses, st.floats(0.05, 50.0))
    def test_doubling_sigma_quarters_variance(self, x, mass, sigma):
        base = flattest_prior(x, mass, sigma).prior_variance
        doubled = flattest_prior(x, mass, 2.0 * sigma).prior_variance
        assert doubled == base / 4.0

    def test_validation(self):
        with pytest.raises(DomainError):
            flattest_prior(1.0, 0.025, 1.0)
        with pytest.raises(DomainError):
            flattest_prior(0.5, 0.025, 1.0)
        with pytest.raises(DomainError):
            flattest_prior(2.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            flattest_prior(2.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            flattest_prior(2.0, 0.025, 0.0)
        with pytest.raises(DomainError):
            flattest_prior(2.0, 0.025, -1.0)


class TestFlattestSigma:
    def test_peak_threshold(self):
        value = flattest_sigma(121.354)
        assert abs(value - FLATTEST_SIGMA_PEAK) < 1e-9
        assert abs(value - 7.240688) < 1e-4

    def test_threshold_four(self):
        assert abs(flattest_sigma(4.0) - SQRT_18) < 1e-14

    @given(thresholds)
    def test_never_below_global_floor(self, x):
        # The bound curve peaks at llc, so sigma >= ln(x)/llc always.
        floor = math.log(x) / bound_constants().laplace_limit
        assert flattest_sigma(x) >= floor * (1.0 - 1e-12)

    @given(thresholds)
    def test_matches_definition(self, x):
        assert flattest_sigma(x) == math.log(x) / max_standardized_effect(x)


class TestPrevalencePathway:
    def test_threshold_four(self):
        result = prevalence_pathway(4.0, 0.5)
        assert result.risk_unexposed == 0.2
        assert result.risk_ratio == 2.5
        assert result.prevalence == pytest.approx(14.0 / 27.0, rel=1e-12)
        assert result.sigma * result.sigma == pytest.approx(18.225, rel=1e-12)
        assert abs(result.sigma - 4.2690748412273125) < 1e-12

    def test_balanced_risks(self):
        result = prevalence_pathway(4.0, 2.0 / 3.0)
        assert result.risk_unexposed == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert result.prevalence == pytest.approx(0.5, abs=1e-15)
        assert abs(result.sigma - SQRT_18) < 1e-13

    def test_peak_threshold(self):
        result = prevalence_pathway(121.354, 0.916778)
        assert abs(result.sigma - 7.240678298775434) < 1e-12
        # Agrees with the closed form to its own accuracy.
        assert abs(result.sigma - flattest_sigma(121.354)) < 1e-9

    @given(st.floats(-8.0, 8.0), st.floats(0.01, 0.99))
    def test_risk_inversion(self, log_or, risk_exposed):
        odds_ratio = math.exp(log_or)
        result = prevalence_pathway(odds_ratio, risk_exposed)
        odds_exposed = risk_exposed / (1.0 - risk_exposed)
        odds_unexposed = result.risk_unexposed / (1.0 - result.risk_unexposed)
        assert odds_exposed / odds_unexposed == pytest.approx(odds_ratio, rel=1e-12)
        assert result.risk_ratio == pytest.approx(
            risk_exposed / result.risk_unexposed, rel=1e-12
        )

    @given(st.floats(0.01, 6.0), st.floats(0.05, 0.95))
    def test_never_flatter_than_closed_form(self, log_or, risk_exposed):
        odds_ratio = math.exp(log_or)
        pathway_sigma = prevalence_pathway(odds_ratio, risk_exposed).sigma
        assert pathway_sigma >= flattest_sigma(odds_ratio) * (1.0 - 1e-12)

    def test_overflow_is_reported(self):
        with pytest.raises(InconsistentParams):
            prevalence_pathway(1e308, 1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            prevalence_pathway(0.0, 0.5)
        with pytest.raises(DomainError):
            prevalence_pathway(4.0, 0.0)
        with pytest.raises(DomainError):
            prevalence_pathway(4.0, 1.0)


class TestPriorSpec:
    def test_frozen(self):
        spec = PriorSpec(2.0, 0.025, 1.0, 0.25)
        with pytest.raises(Exception):
            spec.prior_variance = 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            PriorSpec(2.0, 0.025, 1.0, -0.25)
