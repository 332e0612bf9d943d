"""Kepler-equation solving and the eccentricity power series.

The equation M = E - ecc*sin(E) is solved two ways: a safeguarded Newton
iteration (valid for every eccentricity below 1) and the classical power
series in the eccentricity from Lagrange inversion.  The series converges
only while the eccentricity stays below max_x x/cosh(x) = 0.6627..., the same
Laplace limit constant that caps the standardized log odds ratio in
effect_bounds.  The root of x*tanh(x) = 1 is solved once, here, with
`numerics.find_root`; `series_radius` and `bound_constants` both derive from
that one root, so `series_radius()` and `bound_constants().laplace_limit`
agree bit for bit.  `kepler_solve` keeps its own bracketed Newton loop,
specialised to the reduced Kepler problem for speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, NoConvergence, OrderTooLarge
from .numerics import Bracket, find_root

__all__ = [
    "SERIES_ORDER_CAP",
    "KeplerProblem",
    "KeplerSolution",
    "mean_anomaly",
    "kepler_solve",
    "kepler_series",
    "series_partial_sums",
    "series_radius",
]

TWO_PI = 2.0 * math.pi

# Beyond this order the harmonic amplitudes alternate at magnitudes where
# double-precision evaluation of the term sums is no longer trustworthy.
SERIES_ORDER_CAP = 64

_NEWTON_BUDGET = 60
_BISECTION_BUDGET = 200


def _check_eccentricity(value: float) -> None:
    if not 0.0 <= value < 1.0:
        raise DomainError(f"eccentricity must lie in [0, 1), got {value!r}")


@dataclass(frozen=True)
class KeplerProblem:
    """A mean anomaly (radians) and an elliptic eccentricity."""

    mean_anomaly: float
    eccentricity: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean_anomaly):
            raise DomainError(f"mean_anomaly must be finite, got {self.mean_anomaly!r}")
        _check_eccentricity(self.eccentricity)


@dataclass(frozen=True)
class KeplerSolution:
    """Eccentric anomaly with its residual and provenance.

    ``method`` is "newton", "bisection", or "series";
    ``iterations_or_order`` counts solver iterations for the first two and
    echoes the truncation order for the series.  The residual is measured on
    the internally reduced problem (mean anomaly folded into [0, pi]); for
    newton/bisection it is at most the requested tolerance, for the series it
    is reported as-is and can be large outside the convergence radius.
    """

    eccentric_anomaly: float
    residual: float
    method: str
    iterations_or_order: int


def mean_anomaly(eccentric_anomaly: float, eccentricity: float) -> float:
    """Forward Kepler map E - ecc*sin(E)."""
    if not math.isfinite(eccentric_anomaly):
        raise DomainError(
            f"eccentric_anomaly must be finite, got {eccentric_anomaly!r}"
        )
    _check_eccentricity(eccentricity)
    return eccentric_anomaly - eccentricity * math.sin(eccentric_anomaly)


def _reduce(m: float) -> tuple[float, float, float]:
    """Fold m to [0, pi]: returns (reduced, sign, base) with m = sign*reduced + base.

    Uses the exact IEEE remainder, then the symmetry E(-M) = -E(M).
    """
    r = math.remainder(m, TWO_PI)
    base = m - r
    if r >= 0.0:
        return r, 1.0, base
    return -r, -1.0, base


def _solve_reduced(m: float, ecc: float, tol: float) -> tuple[float, float, str, int]:
    """Solve on the reduced domain m in [0, pi]; returns (E, residual, method, iters).

    Newton from the starter m + ecc*sin(m), which provably lies in the
    enclosure [m, min(pi, m + ecc)].  Every candidate step is kept inside the
    current sign-change enclosure (an escaping step is replaced by the
    midpoint), so the iteration cannot wander; if the Newton budget is
    somehow exhausted, a pure bisection phase finishes the job.
    """
    if ecc == 0.0 or m == 0.0 or m == math.pi:
        return m, abs(ecc * math.sin(m)), "newton", 0
    lo, hi = m, min(math.pi, m + ecc)
    x = m + ecc * math.sin(m)
    if x > hi:
        x = hi
    for iteration in range(1, _NEWTON_BUDGET + 1):
        fx = x - ecc * math.sin(x) - m
        if abs(fx) <= tol:
            return x, abs(fx), "newton", iteration
        if fx < 0.0:
            lo = x
        else:
            hi = x
        candidate = x - fx / (1.0 - ecc * math.cos(x))
        x = candidate if lo < candidate < hi else 0.5 * (lo + hi)
    for iteration in range(_NEWTON_BUDGET + 1, _NEWTON_BUDGET + _BISECTION_BUDGET + 1):
        x = 0.5 * (lo + hi)
        fx = x - ecc * math.sin(x) - m
        if abs(fx) <= tol:
            return x, abs(fx), "bisection", iteration
        if fx < 0.0:
            lo = x
        else:
            hi = x
    raise NoConvergence(
        f"kepler solve stalled at m={m!r}, eccentricity={ecc!r}, tol={tol!r}"
    )


def kepler_solve(problem: KeplerProblem, tol: float = 1e-12) -> KeplerSolution:
    """Solve M = E - ecc*sin(E) for E.

    The mean anomaly is reduced modulo 2*pi and reflected into [0, pi] before
    solving (E(-M) = -E(M)), then the reduction is undone; on the reduced
    domain the solution satisfies E in [M, M + ecc].
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be a positive finite real, got {tol!r}")
    reduced, sign, base = _reduce(problem.mean_anomaly)
    root, residual, method, iterations = _solve_reduced(
        reduced, problem.eccentricity, tol
    )
    return KeplerSolution(
        eccentric_anomaly=sign * root + base,
        residual=residual,
        method=method,
        iterations_or_order=iterations,
    )


@lru_cache(maxsize=None)
def _harmonic_terms(n: int) -> tuple[tuple[int, float], ...]:
    """Amplitudes of sin(k*M) in the order-n Lagrange term, k = n-2j > 0.

    The order-n term is (1/n!) * d^{n-1}/dM^{n-1} [sin(M)^n].  Expanding
    sin(M)^n by the complex-exponential binomial identity and differentiating
    the harmonics term-wise gives the exact rational amplitudes
    2 * C(n, j) * (-1)^j * (n-2j)^(n-1) / (2^n * n!), rounded to double once.
    """
    scale = Fraction(2, 2**n * math.factorial(n))
    terms = []
    for j in range((n - 1) // 2 + 1):
        k = n - 2 * j
        amplitude = scale * math.comb(n, j) * (-1) ** j * k ** (n - 1)
        terms.append((k, float(amplitude)))
    return tuple(terms)


def _partial_sums(
    problem: KeplerProblem, order: int
) -> tuple[list[float], float, float, float]:
    """Reduced partial sums E_1..E_order, with the reduction (reduced, sign, base).

    Each sin(k*M) is evaluated once and shared by every order that uses it.
    """
    if isinstance(order, bool) or not isinstance(order, int) or order < 1:
        raise DomainError(f"order must be a positive integer, got {order!r}")
    if order > SERIES_ORDER_CAP:
        raise OrderTooLarge(
            f"order {order} exceeds the supported cap {SERIES_ORDER_CAP}"
        )
    reduced, sign, base = _reduce(problem.mean_anomaly)
    ecc = problem.eccentricity
    sines = [math.sin(k * reduced) for k in range(order + 1)]
    total = reduced
    ecc_power = 1.0
    sums = []
    for n in range(1, order + 1):
        ecc_power *= ecc
        term = 0.0
        for k, amplitude in _harmonic_terms(n):
            term += amplitude * sines[k]
        total += term * ecc_power
        sums.append(total)
    return sums, reduced, sign, base


def kepler_series(problem: KeplerProblem, order: int) -> KeplerSolution:
    """Truncated power series in the eccentricity for the eccentric anomaly.

    E = M + sum_{n=1..order} term_n(M) * ecc^n with exact harmonic
    coefficients.  The residual is reported but not guaranteed small: the
    series converges only for eccentricities below series_radius().
    """
    sums, reduced, sign, base = _partial_sums(problem, order)
    total = sums[-1]
    ecc = problem.eccentricity
    residual = abs(total - ecc * math.sin(total) - reduced)
    return KeplerSolution(
        eccentric_anomaly=sign * total + base,
        residual=residual,
        method="series",
        iterations_or_order=order,
    )


def series_partial_sums(problem: KeplerProblem, max_order: int) -> list[float]:
    """Eccentric anomalies of the series truncated at orders 1..max_order.

    Entry n-1 equals kepler_series(problem, n).eccentric_anomaly bit for bit,
    from one pass over the terms.  A max_order past the cap raises
    OrderTooLarge naming max_order.
    """
    sums, _, sign, base = _partial_sums(problem, max_order)
    return [sign * total + base for total in sums]


def _tanh_gap(t: float) -> float:
    return t * math.tanh(t) - 1.0


def _tanh_gap_slope(t: float) -> float:
    c = math.cosh(t)
    return math.tanh(t) + t / (c * c)


@lru_cache(maxsize=1)
def _tanh_root() -> float:
    """z solving z*tanh(z) = 1; series_radius and bound_constants share it.

    The bracket [1, 1.5] encloses the root (the gap is -0.24 at 1 and +0.36
    at 1.5); tolerance 1e-14.
    """
    return find_root(
        _tanh_gap, Bracket(1.0, 1.5), tol=1e-14, fprime=_tanh_gap_slope
    ).root


@lru_cache(maxsize=1)
def series_radius() -> float:
    """Convergence radius of the eccentricity series: max over x of x/cosh(x).

    The maximizer z solves x*tanh(x) = 1; the radius is z/cosh(z).
    effect_bounds.bound_constants takes the same z from _tanh_root and
    evaluates its peak at 0.25*(4z) == z, so the returned value matches
    bound_constants().laplace_limit bit for bit.
    """
    z = _tanh_root()
    return z / math.cosh(z)
