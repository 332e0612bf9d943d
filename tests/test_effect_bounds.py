import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from keplor.contingency import RiskParams
from keplor.effect_bounds import (
    _CHUNK,
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
from keplor.errors import DomainError

# Frozen oracles: 50-digit evaluations rounded once to double.
TANH_ROOT = 1.1996786402577337
PEAK_LOG_OR = 4.798714561030935
PEAK_OR = 121.35432363898043
LAPLACE_LIMIT = 0.6627434193491816
PEAK_RISK = 0.9167782798004823
CURVE_AT_4 = 0.6480542736638853
CURVE_DERIVATIVE_AT_4 = 0.03862498152482808

probs = st.floats(0.001, 0.999)
log_ors = st.floats(-10.0, 10.0)


class TestVarianceFactors:
    def test_prevalence_form_examples(self):
        assert sigma2_by_prevalence(0.5, 2.0 / 3.0, 1.0 / 3.0) == pytest.approx(
            18.0, abs=1e-12
        )
        assert sigma2_by_prevalence(0.5, 0.5, 0.5) == 16.0
        assert sigma2_by_prevalence(0.25, 0.5, 0.5) == pytest.approx(
            64.0 / 3.0, abs=1e-12
        )

    def test_exposure_form_examples(self):
        assert sigma2_by_exposure(0.5, 0.5, 0.5) == 16.0
        assert sigma2_by_exposure(0.5, 2.0 / 3.0, 1.0 / 3.0) == pytest.approx(
            18.0, abs=1e-12
        )
        assert sigma2_by_exposure(4.0 / 9.0, 0.5, 0.2) == pytest.approx(
            20.25, abs=1e-12
        )

    def test_self_dual_point(self):
        # At (1/2, x, 1-x) both parameterizations coincide.
        assert sigma2_by_prevalence(0.5, 0.7, 0.3) == sigma2_by_exposure(0.5, 0.7, 0.3)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            sigma2_by_prevalence(bad, 0.5, 0.5)
        with pytest.raises(DomainError):
            sigma2_by_exposure(0.5, bad, 0.5)


class TestMinimizers:
    @given(probs)
    def test_equal_probabilities_prevalence(self, p):
        assert min_variance_prevalence(p, p) == 0.5

    def test_prevalence_examples(self):
        assert min_variance_prevalence(2.0 / 3.0, 1.0 / 3.0) == 0.5
        # fl(1-0.9) != fl(0.1), so the complement pair lands one ulp off.
        assert min_variance_prevalence(0.9, 0.1) == pytest.approx(0.5, abs=1e-15)

    def test_exposure_examples(self):
        assert min_variance_exposure(1.0, 1.0) == 0.5
        assert min_variance_exposure(2.5, 4.0) == pytest.approx(4.0 / 9.0, abs=1e-15)

    @given(st.floats(0.01, 100.0))
    def test_exposure_at_attainment(self, odds_ratio):
        # rr = sqrt(or) makes the minimizing exposure exactly one half.
        assert min_variance_exposure(math.sqrt(odds_ratio), odds_ratio) == 0.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            min_variance_exposure(bad, 4.0)
        with pytest.raises(DomainError):
            min_variance_exposure(2.0, bad)

    @given(probs, probs)
    def test_prevalence_is_stationary_and_minimal(self, p, q):
        w_best = min_variance_prevalence(p, q)
        sigma = lambda w: math.sqrt(sigma2_by_prevalence(w, p, q))
        h = 1e-6
        derivative = (sigma(w_best + h) - sigma(w_best - h)) / (2.0 * h)
        assert abs(derivative) < 1e-6
        best = sigma2_by_prevalence(w_best, p, q)
        for w in np.linspace(0.01, 0.99, 99):
            assert best <= sigma2_by_prevalence(float(w), p, q) * (1.0 + 1e-12)

    @given(probs, probs)
    def test_exposure_is_stationary_and_minimal(self, risk_exposed, risk_unexposed):
        odds_ratio = (risk_exposed / (1.0 - risk_exposed)) / (
            risk_unexposed / (1.0 - risk_unexposed)
        )
        v_best = min_variance_exposure(risk_exposed / risk_unexposed, odds_ratio)
        sigma = lambda v: math.sqrt(
            sigma2_by_exposure(v, risk_exposed, risk_unexposed)
        )
        h = 1e-6
        derivative = (sigma(v_best + h) - sigma(v_best - h)) / (2.0 * h)
        assert abs(derivative) < 1e-6
        best = sigma2_by_exposure(v_best, risk_exposed, risk_unexposed)
        for v in np.linspace(0.01, 0.99, 99):
            assert best <= sigma2_by_exposure(
                float(v), risk_exposed, risk_unexposed
            ) * (1.0 + 1e-12)


class TestOptimalRisk:
    def test_null_effect(self):
        assert optimal_risk(1.0) == RiskParams(0.5, 0.5, 0.5)

    def test_examples(self):
        at_four = optimal_risk(4.0)
        assert at_four.risk_unexposed == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert at_four.risk_exposed == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert at_four.exposure == 0.5
        at_peak = optimal_risk(PEAK_OR)
        assert abs(at_peak.risk_exposed - PEAK_RISK) < 1e-12

    @given(log_ors)
    def test_attainment_conditions(self, log_odds):
        odds_ratio = math.exp(log_odds)
        risks = optimal_risk(odds_ratio)
        assert risks.risk_exposed == 1.0 - risks.risk_unexposed
        risk_ratio = risks.risk_exposed / risks.risk_unexposed
        assert risk_ratio * risk_ratio == pytest.approx(odds_ratio, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            optimal_risk(0.0)
        with pytest.raises(DomainError):
            optimal_risk(-3.0)


class TestStandardizedEffect:
    def test_null(self):
        assert standardized_effect(RiskParams(0.3, 0.3, 0.8)) == 0.0

    def test_example(self):
        value = standardized_effect(RiskParams(2.0 / 3.0, 1.0 / 3.0, 0.5))
        assert value == pytest.approx(math.log(4.0) / math.sqrt(18.0), rel=1e-14)
        assert abs(value - 0.326753) < 1e-6

    def test_near_peak(self):
        value = standardized_effect(RiskParams(0.916778, 0.083222, 0.5))
        assert abs(value - 0.662743) < 1e-6

    def test_summary_bundles_consistently(self):
        risks = RiskParams(0.5, 0.2, 0.35)
        summary = summarize_risk(risks)
        assert summary.odds_ratio == 4.0
        assert summary.risk_ratio == 2.5
        assert summary.log_odds == math.log(4.0)
        assert summary.standardized == summary.log_odds / summary.sigma
        assert summary.standardized == standardized_effect(risks)


class TestBoundCurve:
    def test_origin(self):
        assert bound_curve(0.0) == 0.0
        assert bound_curve_derivative(0.0) == 0.25

    def test_frozen_values(self):
        assert bound_curve(4.0) == 1.0 / math.cosh(1.0)
        assert abs(bound_curve(4.0) - CURVE_AT_4) < 1e-15
        assert abs(bound_curve(PEAK_LOG_OR) - LAPLACE_LIMIT) < 1e-12
        assert abs(bound_curve_derivative(4.0) - CURVE_DERIVATIVE_AT_4) < 1e-15

    @given(st.floats(0.0, 1e308, allow_nan=False))
    def test_odd(self, x):
        assert bound_curve(-x) == -bound_curve(x)

    @given(st.floats(-699.0, 699.0))
    def test_exponential_form_identity(self, x):
        exponential_form = x / (
            2.0 * math.sqrt(2.0 + math.exp(x / 2.0) + math.exp(-x / 2.0))
        )
        assert abs(bound_curve(x) - exponential_form) < 1e-14

    def test_overflow_guard(self):
        # 2*(x/4)*exp(-x/4) once cosh would overflow; frozen 50-digit value.
        assert bound_curve(2000.0) == pytest.approx(7.124576406741286e-215, rel=1e-12)
        assert bound_curve(4000.0) == 0.0
        assert bound_curve(-4000.0) == 0.0
        assert bound_curve_derivative(1e308) == 0.0

    def test_unimodal(self):
        rising = [bound_curve(x) for x in np.linspace(0.0, PEAK_LOG_OR, 200)]
        assert all(a < b for a, b in zip(rising, rising[1:]))
        falling = [bound_curve(x) for x in np.linspace(PEAK_LOG_OR + 1e-6, 40.0, 200)]
        assert all(a > b for a, b in zip(falling, falling[1:]))

    def test_derivative_sign_change_at_peak(self):
        for x in np.linspace(0.0, PEAK_LOG_OR - 1e-6, 100):
            assert bound_curve_derivative(float(x)) > 0.0
        for x in np.linspace(PEAK_LOG_OR + 1e-6, 40.0, 100):
            assert bound_curve_derivative(float(x)) < 0.0

    @given(st.floats(-20.0, 20.0))
    def test_derivative_matches_finite_difference(self, x):
        h = 1e-6
        finite_difference = (bound_curve(x + h) - bound_curve(x - h)) / (2.0 * h)
        assert abs(bound_curve_derivative(x) - finite_difference) < 1e-6

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            bound_curve(math.nan)
        with pytest.raises(DomainError):
            bound_curve_derivative(math.nan)


class TestMaxStandardizedEffect:
    def test_null(self):
        assert max_standardized_effect(1.0) == 0.0

    def test_peak(self):
        assert abs(max_standardized_effect(PEAK_OR) - LAPLACE_LIMIT) < 1e-12
        assert abs(max_standardized_effect(121.354) - 0.6627) < 1e-4

    def test_example_at_four(self):
        assert max_standardized_effect(4.0) == pytest.approx(
            math.log(4.0) / math.sqrt(18.0), rel=1e-13
        )

    @given(log_ors)
    def test_consistency_triangle(self, log_odds):
        odds_ratio = math.exp(log_odds)
        ceiling = max_standardized_effect(odds_ratio)
        assert abs(ceiling - bound_curve(math.log(odds_ratio))) < 1e-13
        assert abs(ceiling - standardized_effect(optimal_risk(odds_ratio))) < 1e-12

    def test_huge_arguments_use_curve_form(self):
        assert max_standardized_effect(1e308) == bound_curve(math.log(1e308))
        assert max_standardized_effect(5e-324) == bound_curve(math.log(5e-324))

    def test_domain(self):
        with pytest.raises(DomainError):
            max_standardized_effect(0.0)
        with pytest.raises(DomainError):
            max_standardized_effect(math.inf)


class TestBoundConstants:
    def test_values(self):
        constants = bound_constants()
        assert abs(constants.tanh_root - TANH_ROOT) < 1e-13
        assert abs(constants.peak_log_or - PEAK_LOG_OR) < 1e-12
        assert abs(constants.peak_or - PEAK_OR) < 1e-10
        assert abs(constants.laplace_limit - LAPLACE_LIMIT) < 1e-14
        assert abs(constants.peak_risk - PEAK_RISK) < 1e-13

    def test_internal_identities(self):
        constants = bound_constants()
        z = constants.tanh_root
        assert abs(z * math.tanh(z) - 1.0) < 1e-12
        assert constants.peak_log_or == 4.0 * z
        assert abs(bound_curve_derivative(constants.peak_log_or)) < 1e-10
        quarter = constants.peak_log_or / 4.0
        assert abs(constants.laplace_limit - quarter / math.cosh(quarter)) < 1e-14
        logistic = math.exp(2.0 * z) / (1.0 + math.exp(2.0 * z))
        assert abs(constants.peak_risk - logistic) < 1e-12

    def test_cached(self):
        assert bound_constants() is bound_constants()


class TestVerifyBound:
    def test_single_sample(self):
        report = verify_bound(1, 0)
        assert report.samples == 1
        assert report.violations == 0

    def test_deterministic(self):
        assert verify_bound(1000, 7) == verify_bound(1000, 7)
        assert (
            verify_bound(1000, 7).max_gamma_observed
            != verify_bound(1000, 8).max_gamma_observed
        )

    def test_no_violations_and_near_peak(self):
        report = verify_bound(20000, 42)
        assert report.violations == 0
        assert report.bound == bound_constants().laplace_limit
        assert report.max_gamma_observed <= report.bound
        assert report.max_gamma_observed > report.bound - 1e-3
        assert isinstance(report.arg_max, RiskParams)

    # (max_gamma_observed, arg_max risk_exposed, risk_unexposed, exposure,
    # violations) as float.hex, frozen from the whole-array implementation
    # that evaluated every triple at once.  The sample counts put chunk edges
    # inside both the uniform and the concentrated stratum.
    @pytest.mark.parametrize(
        "samples,seed,expected",
        [
            (1, 7, ("0x1.5314aeb9d6c94p-1", "0x1.d5672ffd97097p-1", "0x1.6d59724d7a06ep-4", "0x1.fa62ba662140ep-2", 0)),
            (1, 42, ("0x1.502fd0ff9e308p-1", "0x1.d882c29e89183p-1", "0x1.ff5c808293caap-5", "0x1.07af4345bab44p-1", 0)),
            (2 * _CHUNK - 1, 7, ("0x1.5352e66db076fp-1", "0x1.d58b238c64c70p-1", "0x1.562438b55d016p-4", "0x1.00a5f54dc0276p-1", 0)),
            (2 * _CHUNK - 1, 42, ("0x1.5352ed47831edp-1", "0x1.d58a17050bae6p-1", "0x1.538e87d0b8424p-4", "0x1.ffd55aa60e1aep-2", 0)),
            (2 * _CHUNK, 7, ("0x1.5352e66db076fp-1", "0x1.d58b238c64c70p-1", "0x1.562438b55d016p-4", "0x1.00a5f54dc0276p-1", 0)),
            (2 * _CHUNK, 42, ("0x1.5352ed47831edp-1", "0x1.d58a17050bae6p-1", "0x1.538e87d0b8424p-4", "0x1.ffd55aa60e1aep-2", 0)),
            (2 * _CHUNK + 1, 7, ("0x1.5352e66db076fp-1", "0x1.d58b238c64c70p-1", "0x1.562438b55d016p-4", "0x1.00a5f54dc0276p-1", 0)),
            (2 * _CHUNK + 1, 42, ("0x1.5352ed47831edp-1", "0x1.d58a17050bae6p-1", "0x1.538e87d0b8424p-4", "0x1.ffd55aa60e1aep-2", 0)),
            (10**6, 7, ("0x1.535312275564fp-1", "0x1.d57712da0516ap-1", "0x1.545cc155d79cbp-4", "0x1.0002cbf49659dp-1", 0)),
            (10**6, 42, ("0x1.535308cabf29fp-1", "0x1.d54b8c842af19p-1", "0x1.54c45fa33c10ap-4", "0x1.ff390209a1cbep-2", 0)),
        ],
    )
    def test_frozen_across_chunk_edges(self, samples, seed, expected):
        report = verify_bound(samples, seed)
        arg = report.arg_max
        observed = (
            report.max_gamma_observed.hex(),
            arg.risk_exposed.hex(),
            arg.risk_unexposed.hex(),
            arg.exposure.hex(),
            report.violations,
        )
        assert observed == expected

    def test_memory_stays_flat(self):
        # numpy reports its buffers to tracemalloc; evaluating all 4e6
        # triples at once peaked near 370 MiB.
        tracemalloc.start()
        try:
            verify_bound(4 * 10**6, 42)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("samples,seed", [(0, 1), (-5, 1), (2.0, 1), (10, -1)])
    def test_domain(self, samples, seed):
        with pytest.raises(DomainError):
            verify_bound(samples, seed)
