import math

import pytest
from hypothesis import given, strategies as st

from keplor.errors import DomainError, NoConvergence, NonFinite, NoSignChange
from keplor.numerics import Bracket, RootResult, find_root, normal_cdf, normal_quantile

# Frozen oracles: 50-digit evaluations rounded once to double.
TANH_ROOT = 1.1996786402577337
Q975 = 1.9599639845400543
CDF_AT_1959964 = 0.9750000009035577
CDF_AT_1 = 0.8413447460685429
Q999 = 3.0902323061678136
Q70 = 0.5244005127080408


class TestBracket:
    def test_valid(self):
        b = Bracket(1.0, 1.5)
        assert (b.lo, b.hi) == (1.0, 1.5)

    @pytest.mark.parametrize("lo,hi", [(1.5, 1.0), (1.0, 1.0)])
    def test_misordered(self, lo, hi):
        with pytest.raises(DomainError):
            Bracket(lo, hi)

    @pytest.mark.parametrize("lo,hi", [(math.nan, 1.0), (0.0, math.inf)])
    def test_non_finite(self, lo, hi):
        with pytest.raises(DomainError):
            Bracket(lo, hi)


class TestFindRoot:
    def test_tanh_root(self):
        result = find_root(
            lambda x: x * math.tanh(x) - 1.0,
            Bracket(1.0, 1.5),
            tol=1e-14,
            fprime=lambda x: math.tanh(x) + x / math.cosh(x) ** 2,
        )
        assert abs(result.root - TANH_ROOT) < 1e-8
        assert abs(result.root - TANH_ROOT) < 1e-13
        assert result.residual <= 1e-14
        assert 1.0 <= result.root <= 1.5

    def test_sqrt_two(self):
        result = find_root(
            lambda x: x * x - 2.0, Bracket(1.0, 2.0), fprime=lambda x: 2.0 * x
        )
        assert abs(result.root - math.sqrt(2.0)) < 1e-12
        assert result.residual <= 1e-12

    def test_odd_function_symmetric_bracket(self):
        result = find_root(lambda x: x, Bracket(-1.0, 1.0), fprime=lambda x: 1.0)
        assert result.root == 0.0
        assert result.residual == 0.0

    def test_root_at_endpoint(self):
        result = find_root(lambda x: x, Bracket(0.0, 1.0), fprime=lambda x: 1.0)
        assert result.root == 0.0
        assert result.iterations == 0

    def test_analytic_derivative_used(self):
        calls = []

        def fprime(x):
            calls.append(x)
            return 2.0 * x

        result = find_root(lambda x: x * x - 2.0, Bracket(1.0, 2.0), fprime=fprime)
        assert abs(result.root - math.sqrt(2.0)) < 1e-12
        assert calls

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            find_root(
                lambda x: x * x - 2.0, Bracket(2.0, 3.0), fprime=lambda x: 2.0 * x
            )

    def test_non_finite_evaluation(self):
        with pytest.raises(NonFinite):
            find_root(lambda x: math.nan, Bracket(0.0, 1.0), fprime=lambda x: 0.0)

    def test_exhausted_budget(self):
        # Newton closes on the triple root only linearly, by a third per
        # step, so 100 iterations leave |x**3| far above tol.
        with pytest.raises(NoConvergence, match="in 100 iterations"):
            find_root(
                lambda x: x**3, Bracket(-1.0, 2.0), tol=1e-300, fprime=lambda x: 3 * x * x
            )

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_bad_tol(self, tol):
        with pytest.raises(DomainError):
            find_root(lambda x: x, Bracket(-1.0, 1.0), tol=tol, fprime=lambda x: 1.0)

    @given(
        root=st.floats(-10.0, 10.0, allow_nan=False),
        left=st.floats(0.5, 3.0),
        right=st.floats(0.5, 3.0),
    )
    def test_monotone_cubic_recovers_root(self, root, left, right):
        # f'(x) = 3(x-root)^2 + 1 >= 1, so |f| <= tol pins the root to tol.
        def f(x):
            return (x - root) ** 3 + (x - root)

        def fprime(x):
            return 3 * (x - root) ** 2 + 1

        result = find_root(f, Bracket(root - left, root + right), fprime=fprime)
        assert abs(result.root - root) <= 1.01e-12
        assert root - left <= result.root <= root + right


class TestNormalCdf:
    def test_median(self):
        assert normal_cdf(0.0) == 0.5

    def test_tail_limit(self):
        assert abs(normal_cdf(10.0) - 1.0) < 1e-12
        assert abs(normal_cdf(-10.0)) < 1e-12

    def test_frozen_values(self):
        assert abs(normal_cdf(1.959964) - CDF_AT_1959964) < 1e-15
        assert abs(normal_cdf(1.0) - CDF_AT_1) < 1e-15

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            normal_cdf(math.nan)

    @given(st.floats(-37.0, 37.0, allow_nan=False))
    def test_symmetry(self, x):
        assert abs(normal_cdf(x) + normal_cdf(-x) - 1.0) < 1e-15

    @given(st.floats(-37.0, 37.0), st.floats(1e-6, 5.0))
    def test_monotone(self, x, step):
        assert normal_cdf(x) <= normal_cdf(x + step)


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_frozen_values(self):
        assert abs(normal_quantile(0.975) - Q975) < 1e-9
        assert abs(normal_quantile(0.025) + Q975) < 1e-9
        assert abs(normal_quantile(0.999) - Q999) < 1e-9
        assert abs(normal_quantile(0.7) - Q70) < 1e-9

    @pytest.mark.parametrize(
        "p,expected",
        [
            # 50-digit values rounded once to double.  Newton's step on
            # normal_cdf(x) - p next to 1 lost 3e-15 to 1.1e-9 of these.
            (0.999, 3.090232306167813),
            (1.0 - 1e-6, 4.753424308817087),
            (1.0 - 1e-10, 6.361340889697422),
            (1.0 - 1e-13, 7.3487545403000425),
        ],
    )
    def test_upper_tail_relative_accuracy(self, p, expected):
        assert normal_quantile(p) == pytest.approx(expected, rel=1e-15, abs=0)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1, math.nan])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            normal_quantile(p)

    def test_round_trip_grid(self):
        for i in range(1, 999):
            p = i / 1000.0
            assert abs(normal_cdf(normal_quantile(p)) - p) < 1e-9

    @given(st.floats(1e-9, 1.0 - 1e-9))
    def test_round_trip_property(self, p):
        assert abs(normal_cdf(normal_quantile(p)) - p) < 1e-9

    @given(st.floats(0.001, 0.999))
    def test_symmetry(self, p):
        # Range where 1-p is exact enough for +-1e-12 symmetry to be meaningful:
        # closer to the endpoints, rounding 1-p alone shifts the quantile more.
        assert abs(normal_quantile(p) + normal_quantile(1.0 - p)) < 1e-12

    def test_monotone_grid(self):
        values = [normal_quantile(i / 2000.0) for i in range(1, 2000)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_extreme_tails_finite(self):
        lo = normal_quantile(1e-300)
        hi = normal_quantile(1.0 - 1e-16)
        assert math.isfinite(lo) and lo < -37.0
        assert math.isfinite(hi) and hi > 8.0


def test_root_result_is_frozen():
    result = RootResult(1.0, 0.0, 3)
    with pytest.raises(AttributeError):
        result.root = 2.0
