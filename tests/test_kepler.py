import math

import pytest
from hypothesis import given, strategies as st

from keplor.effect_bounds import bound_constants
from keplor.errors import DomainError, OrderTooLarge
from keplor.kepler import (
    KeplerProblem,
    _harmonic_terms,
    kepler_series,
    kepler_solve,
    mean_anomaly,
    series_partial_sums,
    series_radius,
)

# Frozen oracles: 50-digit evaluations rounded once to double.
E_HALF = 1.4987011335178484  # M=1, eps=0.5
E_QUARTER_TURN_03 = 1.8584684120533297  # M=pi/2, eps=0.3
E_QUARTER_TURN_06 = 2.0913289660329153  # M=pi/2, eps=0.6
# Exact order-30 and order-64 partial sums of the series at M=pi/2, eps=0.6
# (60 digits, rounded once to double): still 1.2e-4 and -1.3e-6 off the root.
S30_QUARTER_TURN_06 = 2.091449821373805
S64_QUARTER_TURN_06 = 2.0913276387951236
E_QUARTER_TURN_08 = 2.2119306096084457  # M=pi/2, eps=0.8
LAPLACE_LIMIT = 0.6627434193491816

eccentricities = st.floats(0.0, 0.95)
anomalies = st.floats(-30.0, 30.0)


class TestProblemValidation:
    def test_accepts_bounds(self):
        KeplerProblem(0.0, 0.0)
        KeplerProblem(-12.0, 0.999)

    @pytest.mark.parametrize("ecc", [-0.1, 1.0, 1.5, math.nan, math.inf])
    def test_bad_eccentricity(self, ecc):
        with pytest.raises(DomainError):
            KeplerProblem(1.0, ecc)

    @pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf])
    def test_bad_anomaly(self, m):
        with pytest.raises(DomainError):
            KeplerProblem(m, 0.5)


class TestForwardMap:
    def test_examples(self):
        assert mean_anomaly(0.0, 0.5) == 0.0
        assert mean_anomaly(math.pi, 0.5) == pytest.approx(math.pi, abs=1e-15)
        assert mean_anomaly(1.0, 0.5) == 1.0 - 0.5 * math.sin(1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            mean_anomaly(math.nan, 0.5)


class TestSolver:
    def test_circular_orbit_is_identity(self):
        solution = kepler_solve(KeplerProblem(1.2, 0.0))
        assert solution.eccentric_anomaly == 1.2
        assert solution.method == "newton"
        assert solution.iterations_or_order == 0
        assert solution.residual == 0.0

    def test_zero_anomaly(self):
        assert kepler_solve(KeplerProblem(0.0, 0.9)).eccentric_anomaly == 0.0

    def test_half_turn(self):
        solution = kepler_solve(KeplerProblem(math.pi, 0.9))
        assert solution.eccentric_anomaly == math.pi
        assert solution.iterations_or_order == 0

    def test_reference_value(self):
        solution = kepler_solve(KeplerProblem(1.0, 0.5))
        assert abs(solution.eccentric_anomaly - E_HALF) < 1e-10
        assert abs(solution.eccentric_anomaly - 1.49870) < 1e-5
        assert solution.method == "newton"
        assert solution.residual <= 1e-12

    @pytest.mark.parametrize(
        "ecc,expected",
        [(0.3, E_QUARTER_TURN_03), (0.6, E_QUARTER_TURN_06), (0.8, E_QUARTER_TURN_08)],
    )
    def test_quarter_turn_references(self, ecc, expected):
        solution = kepler_solve(KeplerProblem(math.pi / 2.0, ecc))
        assert abs(solution.eccentric_anomaly - expected) < 1e-12

    def test_grid_residual_roundtrip_and_bracket(self):
        for ecc in [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99]:
            for m in [0.0, 0.1, 0.5, 1.0, 1.7, 2.4, 3.1, math.pi]:
                solution = kepler_solve(KeplerProblem(m, ecc))
                assert solution.residual <= 1e-12
                assert solution.method == "newton"
                recovered = mean_anomaly(solution.eccentric_anomaly, ecc)
                assert abs(recovered - m) <= 1e-11
                assert m - 1e-15 <= solution.eccentric_anomaly <= m + ecc + 1e-15

    def test_odd_symmetry_is_exact(self):
        plus = kepler_solve(KeplerProblem(1.0, 0.5)).eccentric_anomaly
        minus = kepler_solve(KeplerProblem(-1.0, 0.5)).eccentric_anomaly
        assert minus == -plus

    @given(anomalies, eccentricities)
    def test_roundtrip_property(self, m, ecc):
        solution = kepler_solve(KeplerProblem(m, ecc))
        assert solution.residual <= 1e-12
        assert abs(mean_anomaly(solution.eccentric_anomaly, ecc) - m) <= 1e-9 * max(
            1.0, abs(m)
        )

    def test_large_anomaly_reduction(self):
        m = 1.0 + 2.0 * math.pi * 1e6
        solution = kepler_solve(KeplerProblem(m, 0.5))
        assert abs(mean_anomaly(solution.eccentric_anomaly, 0.5) - m) < 1e-8

    def test_extreme_eccentricity_tight_tolerance(self):
        solution = kepler_solve(KeplerProblem(0.1, 0.999), tol=1e-13)
        assert solution.residual <= 1e-13
        assert solution.method == "newton"

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
    def test_bad_tolerance(self, tol):
        with pytest.raises(DomainError):
            kepler_solve(KeplerProblem(1.0, 0.5), tol=tol)


class TestSeriesCoefficients:
    def test_low_order_terms(self):
        assert _harmonic_terms(1) == ((1, 1.0),)
        assert _harmonic_terms(2) == ((2, 0.5),)
        assert _harmonic_terms(3) == ((3, 0.375), (1, -0.125))
        assert _harmonic_terms(4) == (
            (4, 0.3333333333333333),
            (2, -0.16666666666666666),
        )

    @given(st.floats(0.0, math.pi))
    def test_second_order_identity(self, m):
        # sum over terms of c*sin(k*m) at n=2 equals sin(m)cos(m).
        value = sum(c * math.sin(k * m) for k, c in _harmonic_terms(2))
        assert abs(value - math.sin(m) * math.cos(m)) < 5e-16


class TestSeries:
    @given(st.floats(0.0, math.pi), st.floats(0.0, 0.9))
    def test_order_one_is_first_correction(self, m, ecc):
        solution = kepler_series(KeplerProblem(m, ecc), 1)
        assert solution.eccentric_anomaly == m + ecc * math.sin(m)
        assert solution.method == "series"
        assert solution.iterations_or_order == 1

    @pytest.mark.parametrize(
        "m,ecc,order,tol",
        [(math.pi / 2.0, 0.3, 30, 1e-8), (1.0, 0.1, 10, 1e-9), (math.pi / 2.0, 0.5, 64, 1e-8)],
    )
    def test_converges_inside_radius(self, m, ecc, order, tol):
        truth = kepler_solve(KeplerProblem(m, ecc)).eccentric_anomaly
        approx = kepler_series(KeplerProblem(m, ecc), order).eccentric_anomaly
        assert abs(approx - truth) < tol

    @pytest.mark.parametrize(
        "order,exact", [(30, S30_QUARTER_TURN_06), (64, S64_QUARTER_TURN_06)]
    )
    def test_matches_exact_partial_sum_near_radius(self, order, exact):
        approx = kepler_series(KeplerProblem(math.pi / 2.0, 0.6), order).eccentric_anomaly
        assert abs(approx - exact) < 1e-14

    def test_diverges_outside_radius(self):
        problem = KeplerProblem(math.pi / 2.0, 0.8)
        truth = kepler_solve(problem).eccentric_anomaly
        errors = [
            abs(kepler_series(problem, order).eccentric_anomaly - truth)
            for order in range(1, 51)
        ]
        best = min(errors)
        # Error shrinks at first, then grows well past its minimum.
        assert errors.index(best) < 15
        assert errors[39] > 10.0 * best

    def test_order_validation(self):
        problem = KeplerProblem(1.0, 0.3)
        with pytest.raises(OrderTooLarge):
            kepler_series(problem, 65)
        for bad in [0, -1, 1.5, True]:
            with pytest.raises(DomainError):
                kepler_series(problem, bad)

    @given(anomalies, eccentricities)
    def test_partial_sums_match_each_order(self, m, ecc):
        problem = KeplerProblem(m, ecc)
        sums = series_partial_sums(problem, 64)
        assert sums == [kepler_series(problem, n).eccentric_anomaly for n in range(1, 65)]

    def test_partial_sums_validation(self):
        problem = KeplerProblem(1.0, 0.3)
        # Past the cap, the error names the order that was asked for.
        with pytest.raises(OrderTooLarge, match="order 100 exceeds the supported cap 64"):
            series_partial_sums(problem, 100)
        with pytest.raises(DomainError, match="order must be a positive integer, got 0"):
            series_partial_sums(problem, 0)
        for bad in [-1, 1.5, True]:
            with pytest.raises(DomainError):
                series_partial_sums(problem, bad)


class TestSeriesRadius:
    def test_matches_shared_constant(self):
        assert series_radius() == bound_constants().laplace_limit
        assert abs(series_radius() - LAPLACE_LIMIT) < 1e-12

    def test_defining_equation(self):
        # Radius r satisfies r = z/cosh(z) at the root z of z*tanh(z) = 1.
        radius = series_radius()
        z = bound_constants().tanh_root
        below = (z - 0.1) / math.cosh(z - 0.1)
        above = (z + 0.1) / math.cosh(z + 0.1)
        assert below < radius
        assert above < radius
