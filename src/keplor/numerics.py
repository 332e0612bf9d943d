"""Shared numerical kernels: bracketed root finding and the normal tail.

The tail: normal_cdf, normal_quantile, and p_to_z/z_to_p for P = Pr(Z > z).
All are stateless pure functions over doubles, safe to call concurrently.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import DomainError, NoConvergence, NonFinite, NoSignChange, _Record
from .errors import _check_finite, _check_positive, _check_probability

__all__ = [
    "Bracket",
    "RootResult",
    "find_root",
    "normal_cdf",
    "normal_quantile",
    "p_to_z",
    "z_to_p",
]

_SQRT2 = math.sqrt(2.0)
_MAX_ITER = 100  # find_root's iteration budget
# Dekker's two-product needs the Veltkamp split (by 2**27 + 1) of each
# factor; _SQRT2's is taken once here.
_SPLIT = 134217729.0
_SQRT2_HI = _SPLIT * _SQRT2 - (_SPLIT * _SQRT2 - _SQRT2)
_SQRT2_LO = _SQRT2 - _SQRT2_HI
# (_SQRT2 - sqrt 2)/sqrt 2, frozen from 50-digit arithmetic.
_SQRT2_REL = 6.835808657661923e-17
_TWO_OVER_SQRTPI = 2.0 / math.sqrt(math.pi)


class Bracket(_Record):
    """Closed interval [lo, hi] expected to enclose a sign change."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError("bracket endpoints must be finite")
        if not self.lo < self.hi:
            raise DomainError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")


class RootResult(_Record):
    """Outcome of a root solve: the root, |f(root)|, and iterations used."""

    root: float
    residual: float
    iterations: int


def _eval_checked(f: Callable[[float], float], x: float) -> float:
    y = f(x)
    if not math.isfinite(y):
        raise NonFinite(f"f({x!r}) evaluated to {y!r}")
    return float(y)


def find_root(
    f: Callable[[float], float],
    bracket: Bracket,
    tol: float = 1e-12,
    *,
    fprime: Callable[[float], float],
) -> RootResult:
    """Solve f(x) = 0 inside a sign-change bracket.

    A safeguarded hybrid: a Newton step is taken whenever its candidate lands
    strictly inside the current bracket, otherwise the step degrades to
    bisection.  The bracket is tightened after every evaluation.

    Parameters
    ----------
    f : callable
        Continuous function with f(lo) and f(hi) of opposite sign.
    bracket : Bracket
        Initial enclosure of the root.
    tol : float
        Stop once |f(x)| <= tol or the enclosure width falls below tol.
    fprime : callable
        Derivative of f, keyword only.

    Returns
    -------
    RootResult
        The root always lies inside the initial bracket.

    Raises
    ------
    NoSignChange
        If f has the same nonzero sign at both endpoints.
    NonFinite
        If any evaluation of f returns NaN or an infinity.
    NoConvergence
        After _MAX_ITER iterations short of tol, which a continuous f can
        reach: x**3 on [-1, 2] at tol 1e-300 does.
    """
    _check_positive("tol", tol)
    lo, hi = float(bracket.lo), float(bracket.hi)
    flo = _eval_checked(f, lo)
    if flo == 0.0:
        return RootResult(lo, 0.0, 0)
    fhi = _eval_checked(f, hi)
    if fhi == 0.0:
        return RootResult(hi, 0.0, 0)
    if (flo > 0.0) == (fhi > 0.0):
        raise NoSignChange(
            f"no sign change over [{lo}, {hi}]: f(lo)={flo!r}, f(hi)={fhi!r}"
        )

    x = 0.5 * (lo + hi)
    for iteration in range(1, _MAX_ITER + 1):
        fx = _eval_checked(f, x)
        if abs(fx) <= tol:
            return RootResult(x, abs(fx), iteration)
        if (fx > 0.0) == (fhi > 0.0):
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
        if hi - lo <= tol:
            return RootResult(x, abs(fx), iteration)
        d = float(fprime(x))
        use_newton = math.isfinite(d) and d != 0.0
        if use_newton:
            candidate = x - fx / d
            use_newton = lo < candidate < hi
        x = candidate if use_newton else 0.5 * (lo + hi)
    raise NoConvergence(f"find_root: no convergence in {_MAX_ITER} iterations")


def normal_cdf(x: float) -> float:
    """Standard normal CDF, evaluated through the complementary error function.

    erfc magnifies the rounding of y = fl(-x/sqrt 2) about 2y**2-fold.  So
    for x < 0, while erfc(y) > 0, the rounding d = -x/sqrt 2 - y is rebuilt
    with Dekker's two-product and erfc(y) is moved by its first-order change,
    -(2/sqrt pi)*exp(-y**2)*d.  For x >= 0 the result is plain erfc(y)/2.
    """
    if math.isnan(x):
        raise DomainError("normal_cdf requires a non-NaN argument")
    y = -x / _SQRT2
    tail = math.erfc(y)
    if y > 0.0 and tail > 0.0:
        # r = -x - y*_SQRT2: Dekker's two-product gives the product's exact
        # rounding error, and Sterbenz's lemma makes -x - product exact.
        split = _SPLIT * y
        y_hi = split - (split - y)
        y_lo = y - y_hi
        product = y * _SQRT2
        error = (
            (y_hi * _SQRT2_HI - product) + y_hi * _SQRT2_LO + y_lo * _SQRT2_HI
        ) + y_lo * _SQRT2_LO
        r = (-x - product) - error
        d = r / _SQRT2 + y * _SQRT2_REL
        return 0.5 * (tail - _TWO_OVER_SQRTPI * math.exp(-y * y) * d)
    return 0.5 * tail


def normal_quantile(p: float) -> float:
    """Inverse of normal_cdf on (0, 1): statistics.NormalDist().inv_cdf.

    That is Wichura's AS241 (Applied Statistics 37:477, 1988), which forms
    1 - p itself above 1/2.  Relative error measured at most 7.1e-16 against
    50-digit values, from p = 5e-324 to 1 - 2**-53.  statistics is imported
    here, not at the top: it loads fractions and decimal, 5-7 ms that only
    the commands taking a quantile should pay.
    """
    _check_probability("p", p)
    import statistics

    return statistics.NormalDist().inv_cdf(p)


def p_to_z(p_value: float) -> float:
    """Upper-tail p-value to the normal test statistic.

    Evaluated as -normal_quantile(p_value), never through 1 - p_value, which
    rounds to 1 below p = 1.1e-16; 0.0 - x keeps z = +0.0 at p = 1/2.
    """
    _check_probability("p_value", p_value)
    return 0.0 - normal_quantile(p_value)


def z_to_p(z: float) -> float:
    """Normal test statistic to its upper-tail p-value.

    normal_cdf(-z) is erfc(z/sqrt 2)/2, which keeps full relative accuracy in
    the upper tail, where 1 - normal_cdf(z) cancels to 0 past z = 8.3.
    """
    _check_finite("z", z)
    return normal_cdf(-z)
