import math
from fractions import Fraction

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


# (M, eccentricity, tol, E.hex(), residual.hex(), iterations), frozen from the
# solver before its Newton loop moved into kepler_solve: the same float
# operations in the same order give these bits.  They cover negative M,
# |M| > 2*pi, e = 0, M = 0 and pi, the near-parabolic corner, tol 1e-13 and
# loose tolerances.
FROZEN_SOLVES = [
    (1.0, 0.5, 1e-12, '0x1.7faae0a2eff23p+0', '0x1.0000000000000p-52', 5),
    (0.5, 0.1, 1e-12, '0x1.1adea826eaa27p-1', '0x1.4800000000000p-47', 3),
    (2.0, 0.9, 1e-12, '0x1.42dcdedbcbc35p+1', '0x0.0p+0', 5),
    (3.0, 0.99, 1e-12, '0x1.8903378093174p+1', '0x0.0p+0', 4),
    (-1.0, 0.5, 1e-12, '-0x1.7faae0a2eff23p+0', '0x1.0000000000000p-52', 5),
    (-2.5, 0.7, 1e-12, '-0x1.61552c6740ae6p+1', '0x1.0000000000000p-48', 4),
    (-0.001, 0.999, 1e-12, '-0x1.5de71b2f4a98ep-3', '0x1.7142000000000p-45', 10),
    (-9.9, 0.3, 1e-12, '-0x1.3959f013e48cap+3', '0x0.0p+0', 4),
    (7.0, 0.5, 1e-12, '0x1.dd92f743a2e63p+2', '0x0.0p+0', 5),
    (-7.0, 0.5, 1e-12, '-0x1.dd92f743a2e63p+2', '0x0.0p+0', 5),
    (100.0, 0.8, 1e-12, '0x1.8cea269885adap+6', '0x0.0p+0', 6),
    (-1234.5, 0.6, 1e-12, '-0x1.34a37fb609b48p+10', '0x0.0p+0', 4),
    (1000000.0, 0.95, 1e-12, '0x1.e847e3079e63ap+19', '0x0.0p+0', 7),
    (6.283185307179586, 0.4, 1e-12, '0x1.921fb54442d18p+2', '0x0.0p+0', 0),
    (9.42477796076938, 0.4, 1e-12, '0x1.2d97c7f3321d2p+3', '0x1.c3d09eb53c672p-55', 0),
    (1.2, 0.0, 1e-12, '0x1.3333333333333p+0', '0x0.0p+0', 0),
    (-5.0, 0.0, 1e-12, '-0x1.4000000000000p+2', '0x0.0p+0', 0),
    (0.0, 0.9, 1e-12, '0x0.0p+0', '0x0.0p+0', 0),
    (3.141592653589793, 0.9, 1e-12, '0x1.921fb54442d18p+1', '0x1.fc4ab28be3f40p-54', 0),
    (-3.141592653589793, 0.9, 1e-12, '-0x1.921fb54442d18p+1', '0x1.fc4ab28be3f40p-54', 0),
    (3.141592652589793, 0.9, 1e-12, '0x1.921fb54321792p+1', '0x0.0p+0', 2),
    (1.5707963267948966, 0.6, 1e-12, '0x1.0bb0aae524fbcp+1', '0x1.7000000000000p-46', 4),
    (1e-12, 0.999999999999, 1e-12, '0x1.19799812de065p-39', '0x1.19799812dc361p-40', 1),
    (1e-09, 0.999999999, 1e-12, '0x1.dc0f0ecdd5b72p-10', '0x1.aee4a5ac00000p-52', 19),
    (1e-06, 0.999999, 1e-12, '0x1.27ea5dd699e36p-6', '0x1.4f0d49cc00000p-42', 15),
    (0.0003, 0.9999, 1e-12, '0x1.eba7103e7ee98p-4', '0x1.6100000000000p-56', 10),
    (0.01, 0.99, 1e-12, '0x1.5e7c1c1ee51ccp-2', '0x1.b000000000000p-55', 9),
    (-1e-10, 0.99999999999, 1e-12, '-0x1.ba4609b21ebd1p-11', '0x1.01dfea1091400p-44', 20),
    (2.5, 0.999999999999, 1e-12, '0x1.68b3ccd1cf683p+1', '0x1.e000000000000p-45', 4),
    (1e-300, 0.999, 1e-12, '0x1.56b6189a8b2b7p-996', '0x1.563284541d445p-997', 1),
    (5e-324, 0.5, 1e-12, '0x0.0000000000001p-1022', '0x0.0p+0', 1),
    (1.0, 0.5, 1e-13, '0x1.7faae0a2eff23p+0', '0x1.0000000000000p-52', 5),
    (2.0, 0.9, 1e-13, '0x1.42dcdedbcbc35p+1', '0x0.0p+0', 5),
    (-3.0, 0.99, 1e-13, '-0x1.8903378093174p+1', '0x0.0p+0', 4),
    (0.1, 0.999, 1e-13, '0x1.b3fe6d9d80e06p-1', '0x1.0000000000000p-55', 7),
    (1e-08, 0.99999999, 1e-13, '0x1.003ae31ef5186p-8', '0x1.ebdcf18000000p-53', 19),
    (1.0, 0.5, 0.001, '0x1.7fc43c06fe96ep+0', '0x1.8723883035000p-12', 3),
    (0.2, 0.2, 1e-06, '0x1.feae59662192bp-3', '0x1.a8b0000000000p-43', 3),
    (6.0, 0.75, 1e-09, '0x1.5c268a05955f8p+2', '0x1.4936000000000p-37', 5),
    (-0.3, 0.95, 1e-13, '-0x1.2d6d5ebc66872p+0', '0x1.0000000000000p-54', 7),
]


class TestFrozenBits:
    @pytest.mark.parametrize("m,ecc,tol,root,residual,iterations", FROZEN_SOLVES)
    def test_solve_keeps_its_bits(self, m, ecc, tol, root, residual, iterations):
        solution = kepler_solve(KeplerProblem(m, ecc), tol=tol)
        assert solution.eccentric_anomaly.hex() == root
        assert solution.residual.hex() == residual
        assert solution.iterations_or_order == iterations


class TestSeriesCoefficients:
    def test_low_order_terms(self):
        assert _harmonic_terms(1) == ((1, 1.0),)
        assert _harmonic_terms(2) == ((2, 0.5),)
        assert _harmonic_terms(3) == ((3, 0.375), (1, -0.125))
        assert _harmonic_terms(4) == (
            (4, 0.3333333333333333),
            (2, -0.16666666666666666),
        )

    @pytest.mark.parametrize("n", range(1, 65))
    def test_amplitudes_round_the_exact_rationals_once(self, n):
        # The amplitudes are integer true divisions; each must be the exact
        # rational rounded once, as float(Fraction) gives it.
        scale = Fraction(2, 2**n * math.factorial(n))
        expected = [
            (k, float(scale * math.comb(n, j) * (-1) ** j * k ** (n - 1)).hex())
            for j, k in enumerate(range(n, 0, -2))
        ]
        assert [(k, a.hex()) for k, a in _harmonic_terms(n)] == expected

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
