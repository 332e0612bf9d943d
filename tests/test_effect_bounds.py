import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from draws import PROBABILITIES
from keplor import effect_bounds
from keplor.contingency import RiskParams
from keplor.effect_bounds import (
    _CHUNK,
    _check_chunk,
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
from keplor.errors import DomainError, InconsistentParams

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

    def test_underflowing_denominator_gives_inf(self):
        # 0.5 * 5e-324 rounds to 0; the true factor exceeds the largest double.
        assert sigma2_by_prevalence(0.5, 5e-324, 0.5) == math.inf
        assert sigma2_by_exposure(0.5, 0.5, 5e-324) == math.inf

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

    @pytest.mark.parametrize(
        "p,q,expected",
        [
            # 50-digit values rounded once to double.  The direct quotient
            # p(1-p)/(q(1-q)) overflows, so the direct form gave 0.0.
            (0.5, 5e-324, 4.445517498970155e-162),
            (0.5, 1e-323, 6.286911138810515e-162),
            (0.5, 1e-310, 1.999999999999997e-155),
        ],
    )
    def test_prevalence_past_the_quotient_range(self, p, q, expected):
        assert min_variance_prevalence(p, q) == pytest.approx(expected, rel=1e-15, abs=0)

    def test_prevalence_next_to_one_is_named_as_derived(self):
        # The true minimizer 1 - 4.4e-162 rounds to 1.0.
        with pytest.raises(InconsistentParams, match=r"^derived prevalence 1\.0 "):
            min_variance_prevalence(5e-324, 0.5)

    @given(probs, probs)
    def test_prevalence_in_range_keeps_the_direct_form(self, p, q):
        direct = 1.0 / (1.0 + math.sqrt((p * (1.0 - p)) / (q * (1.0 - q))))
        assert min_variance_prevalence(p, q) == direct

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

    @pytest.mark.parametrize(
        "risk_ratio,odds_ratio,value",
        [
            # rr/sqrt(or) = 1e-50 is lost next to 1, so 1/(1 + 1e-50) is 1.0.
            (1e-100, 1e-100, "1.0"),
            (1e-20, 4.0, "1.0"),
            # rr/sqrt(or) overflows to inf, so the minimizer is 0.0.
            (1e300, 1e-300, "0.0"),
        ],
    )
    def test_exposure_outside_the_unit_interval_is_named_as_derived(
        self, risk_ratio, odds_ratio, value
    ):
        with pytest.raises(InconsistentParams) as excinfo:
            min_variance_exposure(risk_ratio, odds_ratio)
        assert str(excinfo.value) == f"derived exposure {value} falls outside (0, 1)"

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
        smaller = min(risks.risk_exposed, risks.risk_unexposed)
        assert max(risks.risk_exposed, risks.risk_unexposed) == 1.0 - smaller
        risk_ratio = risks.risk_exposed / risks.risk_unexposed
        assert risk_ratio * risk_ratio == pytest.approx(odds_ratio, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "odds_ratio,risk_exposed,risk_unexposed",
        [
            # 50-digit values rounded once to double.  risk_exposed taken as
            # 1 - risk_unexposed was off by 8.3e-8, 8e-4 and 0.30 relative.
            (1e-20, 9.999999999e-11, 0.9999999999),
            (1e-28, 9.9999999999999e-15, 0.99999999999999),
            (1e-31, 3.1622776601683783e-16, 0.9999999999999997),
        ],
    )
    def test_small_odds_ratio(self, odds_ratio, risk_exposed, risk_unexposed):
        risks = optimal_risk(odds_ratio)
        assert risks.risk_exposed == pytest.approx(risk_exposed, rel=1e-15, abs=0)
        assert risks.risk_unexposed == pytest.approx(risk_unexposed, rel=1e-15, abs=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            optimal_risk(0.0)
        with pytest.raises(DomainError):
            optimal_risk(-3.0)

    @pytest.mark.parametrize(
        "odds_ratio,message",
        [
            # risk_exposed = 1 - 1e-20 rounds to 1.0.
            (1e40, "derived risk_exposed 1.0 falls outside (0, 1)"),
            # risk_unexposed = 1 - 1e-20 rounds to 1.0; the 0.0 left for
            # risk_exposed follows from it.
            (1e-40, "derived risk_unexposed 1.0 falls outside (0, 1)"),
        ],
    )
    def test_unrepresentable_risk_is_named_as_derived(self, odds_ratio, message):
        with pytest.raises(InconsistentParams) as excinfo:
            optimal_risk(odds_ratio)
        assert str(excinfo.value) == message


class TestStandardizedEffect:
    def test_null(self):
        assert standardized_effect(RiskParams(0.3, 0.3, 0.8)) == 0.0

    def test_example(self):
        value = standardized_effect(RiskParams(2.0 / 3.0, 1.0 / 3.0, 0.5))
        assert value == pytest.approx(math.log(4.0) / math.sqrt(18.0), rel=1e-14, abs=0)
        assert abs(value - 0.326753) < 1e-6

    def test_near_peak(self):
        value = standardized_effect(RiskParams(0.916778, 0.083222, 0.5))
        assert abs(value - 0.662743) < 1e-6

    def test_odds_ratio_underflow(self):
        # The odds ratio 5e-324 / 9.38 rounds to 0, so its log is the
        # difference of the logits (50-digit value rounded once to double).
        # The summary cannot hold a zero odds ratio, and says it derived it.
        risks = RiskParams(5e-324, 0.9037397020443425, 1e-17)
        assert standardized_effect(risks) == pytest.approx(
            -5.2483959269179529687217852624591530083443631901519e-168, rel=1e-15, abs=0
        )
        with pytest.raises(
            InconsistentParams, match=r"^derived odds_ratio 0\.0 falls outside \(0, inf\)$"
        ):
            summarize_risk(risks)

    def test_summary_names_an_overflow_as_derived(self):
        # Risks of 5e-324 have sigma2 = 2**1076 / (1 - 2**-1074), whose
        # root 2**538 is a double (50 digits: 8.9978275890863927656e161).
        summary = summarize_risk(RiskParams(5e-324, 5e-324, 0.5))
        assert summary.sigma == 8.997827589086393e161 == 2.0**538
        assert summary.standardized == 0.0
        # standardized_effect answers past the double range; the summary
        # cannot hold an infinite sigma or odds ratio, and says it derived it.
        # Here sigma is about 2**1074.
        with pytest.raises(InconsistentParams, match=r"^derived sigma inf falls outside \(0, inf\)$"):
            summarize_risk(RiskParams(5e-324, 0.5, 5e-324))
        with pytest.raises(InconsistentParams, match=r"^derived odds_ratio inf "):
            summarize_risk(RiskParams(0.3, 5e-324, 0.5))

    @pytest.mark.parametrize(
        "risks,expected",
        [
            # 50-digit values rounded once to double.  The odds ratio, the
            # variance factor or both overflow; the direct quotient gave nan,
            # inf or a signed zero.
            ((0.5, 1e-323, 0.5), 1.65316998437028e-159),
            ((0.5, 5e-324, 0.5), 1.1700571450848582e-159),
            ((1e-323, 0.5, 0.5), -1.65316998437028e-159),
            ((0.9999999999999999, 1e-300, 0.5), 5.1442890085646055e-148),
            ((0.9999999999999999, 5e-324, 1e-300), 1.7363676895894255e-159),
            ((0.6, 0.5, 5e-324), 4.415210731852954e-163),
            ((0.3, 0.2, 1e-310), 2.469992263923855e-156),
        ],
    )
    def test_past_the_double_range(self, risks, expected):
        assert standardized_effect(RiskParams(*risks)) == pytest.approx(
            expected, rel=1e-15, abs=0
        )

    @pytest.mark.parametrize(
        "risks,log_odds,expected",
        [
            # 50-digit values rounded once to double.  The odds ratio is
            # subnormal, so its log from the quotient was off by 1e-11 to 5e-4.
            ((1e-300, 0.9999999999999999, 0.3), -727.5123284678908, -3.984749131649716e-148),
            ((1e-300, 0.9999999999999998, 0.9), -726.8191812873308, -6.895212179900393e-148),
            ((1e-307, 0.9999999999999, 0.5), -736.8269188612406, -1.647595078225456e-151),
            ((3e-308, 0.9999999999999999, 0.5), -744.8343969231751, -9.122321076677059e-152),
        ],
    )
    def test_subnormal_odds_ratio(self, risks, log_odds, expected):
        risk = RiskParams(*risks)
        summary = summarize_risk(risk)
        assert 0.0 < summary.odds_ratio < sys.float_info.min
        assert summary.log_odds == pytest.approx(log_odds, rel=1e-15, abs=0)
        assert standardized_effect(risk) == pytest.approx(expected, rel=1e-15, abs=0)
        assert summary.standardized == standardized_effect(risk)

    @given(PROBABILITIES, PROBABILITIES, PROBABILITIES)
    def test_in_range_keeps_the_direct_quotient(self, risk_exposed, risk_unexposed, exposure):
        # While both variance products and the odds ratio are normal doubles,
        # every reader of the variance factor gives the direct form's bits.
        first = exposure * risk_exposed * (1.0 - risk_exposed)
        second = (1.0 - exposure) * risk_unexposed * (1.0 - risk_unexposed)
        assume(min(first, second) >= sys.float_info.min)
        odds_ratio = (risk_exposed / (1.0 - risk_exposed)) / (
            risk_unexposed / (1.0 - risk_unexposed)
        )
        assume(sys.float_info.min <= odds_ratio < math.inf)
        sigma2 = 1.0 / first + 1.0 / second
        risks = RiskParams(risk_exposed, risk_unexposed, exposure)
        assert sigma2_by_exposure(exposure, risk_exposed, risk_unexposed) == sigma2
        assert sigma2_by_prevalence(exposure, risk_exposed, risk_unexposed) == sigma2
        assert standardized_effect(risks) == math.log(odds_ratio) / math.sqrt(sigma2)
        assert summarize_risk(risks).sigma == math.sqrt(sigma2)

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
        assert bound_curve(2000.0) == pytest.approx(7.124576406741286e-215, rel=1e-12, abs=0)
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
        # Infinite log odds are rejected too, as max_standardized_effect(inf) is.
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="log_odds must be finite"):
                bound_curve(x)
            with pytest.raises(DomainError, match="log_odds must be finite"):
                bound_curve_derivative(x)


class TestMaxStandardizedEffect:
    def test_null(self):
        assert max_standardized_effect(1.0) == 0.0

    def test_peak(self):
        assert abs(max_standardized_effect(PEAK_OR) - LAPLACE_LIMIT) < 1e-12
        assert abs(max_standardized_effect(121.354) - 0.6627) < 1e-4

    def test_example_at_four(self):
        assert max_standardized_effect(4.0) == pytest.approx(
            math.log(4.0) / math.sqrt(18.0), rel=1e-13, abs=0
        )

    @given(log_ors)
    def test_consistency_triangle(self, log_odds):
        odds_ratio = math.exp(log_odds)
        ceiling = max_standardized_effect(odds_ratio)
        assert abs(ceiling - bound_curve(math.log(odds_ratio))) < 1e-13
        assert abs(ceiling - standardized_effect(optimal_risk(odds_ratio))) < 1e-12

    @pytest.mark.parametrize(
        "odds_ratio,expected",
        [
            # 50-digit values rounded once to double.  bound_curve(ln or),
            # which rounds ln(or) first, was off by 3.5e-15 and 1.1e-14.
            (1e308, 3.54598104321083e-75),
            (5e-324, -5.549398481159181e-79),
        ],
    )
    def test_extreme_arguments(self, odds_ratio, expected):
        assert max_standardized_effect(odds_ratio) == pytest.approx(
            expected, rel=1e-15, abs=0
        )

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
    # that evaluated every triple at once (16383 to 32770 samples: from
    # 2**16-row chunks, which held each of those counts in one chunk).  The
    # counts put edges of 2**14- and 2**16-row chunks inside both strata.
    @pytest.mark.parametrize(
        "samples,seed,expected",
        [
            (1, 7, ("0x1.5314aeb9d6c94p-1", "0x1.d5672ffd97097p-1", "0x1.6d59724d7a06ep-4", "0x1.fa62ba662140ep-2", 0)),
            (1, 42, ("0x1.502fd0ff9e308p-1", "0x1.d882c29e89183p-1", "0x1.ff5c808293caap-5", "0x1.07af4345bab44p-1", 0)),
            (16383, 7, ("0x1.5351bdb1e54a7p-1", "0x1.d55cecf4e08e5p-1", "0x1.594e17e5c2e7fp-4", "0x1.000f504b3c047p-1", 0)),
            (16383, 42, ("0x1.53525e9c5b3c0p-1", "0x1.d50f084ce4018p-1", "0x1.571c0e230c858p-4", "0x1.ff352e95b497ep-2", 0)),
            (16384, 7, ("0x1.5351bdb1e54a7p-1", "0x1.d55cecf4e08e5p-1", "0x1.594e17e5c2e7fp-4", "0x1.000f504b3c047p-1", 0)),
            (16384, 42, ("0x1.53525e9c5b3c0p-1", "0x1.d50f084ce4018p-1", "0x1.571c0e230c858p-4", "0x1.ff352e95b497ep-2", 0)),
            (16385, 7, ("0x1.5351bdb1e54a7p-1", "0x1.d55cecf4e08e5p-1", "0x1.594e17e5c2e7fp-4", "0x1.000f504b3c047p-1", 0)),
            (16385, 42, ("0x1.53525e9c5b3c0p-1", "0x1.d50f084ce4018p-1", "0x1.571c0e230c858p-4", "0x1.ff352e95b497ep-2", 0)),
            (32770, 7, ("0x1.5352c5fee2d15p-1", "0x1.d57124a85688ep-1", "0x1.5569deee42627p-4", "0x1.00d796a7ea7cep-1", 0)),
            (32770, 42, ("0x1.5352e858daae2p-1", "0x1.d55d4659bd997p-1", "0x1.553e1422cefd6p-4", "0x1.fefd1052f0d00p-2", 0)),
            (131071, 7, ("0x1.5352e66db076fp-1", "0x1.d58b238c64c70p-1", "0x1.562438b55d016p-4", "0x1.00a5f54dc0276p-1", 0)),
            (131071, 42, ("0x1.5352ed47831edp-1", "0x1.d58a17050bae6p-1", "0x1.538e87d0b8424p-4", "0x1.ffd55aa60e1aep-2", 0)),
            (131072, 7, ("0x1.5352e66db076fp-1", "0x1.d58b238c64c70p-1", "0x1.562438b55d016p-4", "0x1.00a5f54dc0276p-1", 0)),
            (131072, 42, ("0x1.5352ed47831edp-1", "0x1.d58a17050bae6p-1", "0x1.538e87d0b8424p-4", "0x1.ffd55aa60e1aep-2", 0)),
            (131073, 7, ("0x1.5352e66db076fp-1", "0x1.d58b238c64c70p-1", "0x1.562438b55d016p-4", "0x1.00a5f54dc0276p-1", 0)),
            (131073, 42, ("0x1.5352ed47831edp-1", "0x1.d58a17050bae6p-1", "0x1.538e87d0b8424p-4", "0x1.ffd55aa60e1aep-2", 0)),
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
        # triples at once peaked near 370 MiB, ten buffer rows of 2**16
        # doubles at 5.1 MiB, and seven rows of 2**14 (0.875 MiB) near
        # 0.98 MiB.  The first call imports numpy.random outside the trace.
        verify_bound(1, 0)
        tracemalloc.start()
        try:
            verify_bound(4 * 10**6, 42)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    def test_columns_are_the_clipped_draws(self, monkeypatch):
        # 40000 samples fill a uniform chunk, a chunk whose strata split at
        # row 3616 and a Gaussian chunk.
        seen = []

        def spy(columns, llc, scratch):
            seen.append(columns.copy())
            return _check_chunk(columns, llc, scratch)

        monkeypatch.setattr(effect_bounds, "_check_chunk", spy)
        verify_bound(40000, 7)
        assert [chunk.shape[1] for chunk in seen] == [_CHUNK, _CHUNK, 40000 - 2 * _CHUNK]
        rng = np.random.default_rng(7)
        peak = bound_constants().peak_risk
        center = [peak, 1.0 - peak, 0.5]
        uniform = np.clip(rng.random((20000, 3)), 1e-12, 1.0 - 1e-12)
        gaussian = np.clip(rng.normal(0.0, 0.02, (20000, 3)) + center, 1e-12, 1.0 - 1e-12)
        observed = np.concatenate(seen, axis=1).T
        assert np.array_equal(observed[:20000].view(np.int64), uniform.view(np.int64))
        assert np.array_equal(observed[20000:].view(np.int64), gaussian.view(np.int64))

    @pytest.mark.parametrize("samples,seed", [(0, 1), (-5, 1), (2.0, 1), (10, -1)])
    def test_domain(self, samples, seed):
        with pytest.raises(DomainError):
            verify_bound(samples, seed)


def _expression_chunk(points, llc):
    """The chunk check as plain numpy expressions, one temporary per step:
    the form the buffered kernel must match bit for bit."""
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
    quarter = np.abs(log_odds) / 4.0
    per_or_bound = quarter / np.cosh(quarter)
    violations = (gamma_abs > per_or_bound + 1e-12) | (gamma_abs > llc + 1e-12)
    top = int(np.argmax(gamma_abs))
    return int(np.count_nonzero(violations)), top, float(gamma_abs[top])


def _mixed_chunk(rng, rows, split):
    """`split` uniform rows, then Gaussian rows around the attainment point."""
    peak = bound_constants().peak_risk
    points = np.empty((rows, 3))
    points[:split] = rng.random((split, 3))
    points[split:] = rng.normal(0.0, 0.02, (rows - split, 3)) + [peak, 1.0 - peak, 0.5]
    return points


_EDGES = [0.0, 1e-300, 1e-12, 0.5, 1.0 - 1e-12, 1.0, -0.25, 1.5]
_EDGE_ROWS = np.array([[a, b, c] for a in _EDGES for b in _EDGES for c in _EDGES])


class TestCheckChunk:
    # Buffers with more rows than any chunk below, as verify_bound's are for
    # its last, shorter chunk.
    ROWS = _CHUNK

    def _compare(self, points, llc):
        columns = np.empty((3, self.ROWS))[:, : len(points)]
        scratch = np.full((4, self.ROWS), np.nan)
        expected_points = points.copy()
        expected = _expression_chunk(expected_points, llc)
        np.clip(points.T, 1e-12, 1.0 - 1e-12, out=columns)
        count, top, gamma = _check_chunk(columns, llc, scratch)
        assert (count, top, gamma.hex()) == (expected[0], expected[1], expected[2].hex())
        clipped = columns.T
        assert [x.hex() for x in clipped[top]] == [x.hex() for x in expected_points[top]]
        assert np.array_equal(clipped, expected_points)
        return expected

    @pytest.mark.parametrize("rows", [1, 2, 3, 1000, _CHUNK])
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_random_chunks_with_both_strata(self, rows, seed):
        rng = np.random.default_rng(seed)
        points = _mixed_chunk(rng, rows, rows // 2)
        llc = bound_constants().laplace_limit
        for limit in (llc, 0.3, 0.0):
            self._compare(points.copy(), limit)

    @pytest.mark.parametrize("split", [0, _CHUNK])
    def test_one_stratum_chunks(self, split):
        points = _mixed_chunk(np.random.default_rng(99), _CHUNK, split)
        self._compare(points, bound_constants().laplace_limit)

    def test_rows_at_and_past_the_clip_edges(self):
        for limit in (bound_constants().laplace_limit, 0.3, 0.0):
            count, _, gamma = self._compare(_EDGE_ROWS.copy(), limit)
            assert gamma > 0.0
        assert count > 0

    def test_ties_keep_the_first_row(self):
        rng = np.random.default_rng(12345)
        points = _mixed_chunk(rng, 512, 256)
        peak = bound_constants().peak_risk
        best = [peak, 1.0 - peak, 0.5]
        points[[17, 300, 511]] = best
        _, top, _ = self._compare(points, bound_constants().laplace_limit)
        assert top == 17
