"""Kepler-equation solving and the eccentricity power series.

The equation M = E - ecc*sin(E) is solved two ways: a bracketed Newton
iteration (valid for every eccentricity below 1) and the classical power
series in the eccentricity from Lagrange inversion.  The series converges
only while the eccentricity stays below max_x x/cosh(x) = 0.6627..., the same
Laplace limit constant that caps the standardized log odds ratio in
effect_bounds.  The root of x*tanh(x) = 1 is solved once, here, with
`numerics.find_root`, and `series_radius` is the one evaluation of the
constant; `bound_constants().laplace_limit` is that value.  `kepler_solve`
keeps its own bracketed Newton loop, specialised to the reduced Kepler
problem for speed.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import DomainError, NoConvergence, OrderTooLarge, _Record
from .errors import _check_finite, _check_integer, _check_positive
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

# Largest order served; not an accuracy limit: the harmonic amplitudes are
# inexact from order 4 but correctly rounded at every order checked (to 129).
SERIES_ORDER_CAP = 64

_NEWTON_BUDGET = 60


def _check_eccentricity(value: float) -> None:
    if not 0.0 <= value < 1.0:
        raise DomainError(f"eccentricity must lie in [0, 1), got {value!r}")


class KeplerProblem(_Record):
    """A mean anomaly (radians) and an elliptic eccentricity."""

    mean_anomaly: float
    eccentricity: float

    def __post_init__(self) -> None:
        _check_finite("mean_anomaly", self.mean_anomaly)
        _check_eccentricity(self.eccentricity)


class KeplerSolution(_Record):
    """Eccentric anomaly with its residual and provenance.

    ``method`` is "newton" or "series"; ``iterations_or_order`` counts
    Newton iterations or echoes the truncation order of the series.  The
    residual is measured on the internally reduced problem (mean anomaly
    folded into [0, pi]); for newton it is at most the requested tolerance,
    for the series it is reported as-is and can be large outside the
    convergence radius.
    """

    eccentric_anomaly: float
    residual: float
    method: str
    iterations_or_order: int


def mean_anomaly(eccentric_anomaly: float, eccentricity: float) -> float:
    """Forward Kepler map E - ecc*sin(E)."""
    _check_finite("eccentric_anomaly", eccentric_anomaly)
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


def _solve_reduced(m: float, ecc: float, tol: float) -> tuple[float, float, int] | None:
    """Solve on the reduced domain m in [0, pi]; returns (E, residual, iterations).

    Newton from the starter m + ecc*sin(m), which provably lies in the
    enclosure [m, min(pi, m + ecc)].  Every candidate step is kept inside the
    current sign-change enclosure (an escaping step is replaced by the
    midpoint), so the iteration cannot wander.  Past _NEWTON_BUDGET
    iterations it returns None, and kepler_solve raises NoConvergence naming
    the caller's mean anomaly; on every tested input that happens only when
    tol lies below the rounding error of the residual itself.
    """
    if ecc == 0.0 or m == 0.0 or m == math.pi:
        return m, abs(ecc * math.sin(m)), 0
    lo, hi = m, min(math.pi, m + ecc)
    x = m + ecc * math.sin(m)
    for iteration in range(1, _NEWTON_BUDGET + 1):
        fx = x - ecc * math.sin(x) - m
        if abs(fx) <= tol:
            return x, abs(fx), iteration
        if fx < 0.0:
            lo = x
        else:
            hi = x
        candidate = x - fx / (1.0 - ecc * math.cos(x))
        x = candidate if lo < candidate < hi else 0.5 * (lo + hi)
    return None


def kepler_solve(problem: KeplerProblem, tol: float = 1e-12) -> KeplerSolution:
    """Solve M = E - ecc*sin(E) for E.

    The mean anomaly is reduced modulo 2*pi and reflected into [0, pi] before
    solving (E(-M) = -E(M)), then the reduction is undone; on the reduced
    domain the solution satisfies E in [M, M + ecc].
    """
    _check_positive("tol", tol)
    reduced, sign, base = _reduce(problem.mean_anomaly)
    solved = _solve_reduced(reduced, problem.eccentricity, tol)
    if solved is None:
        raise NoConvergence(
            f"kepler solve stalled at m={problem.mean_anomaly!r}, "
            f"eccentricity={problem.eccentricity!r}, tol={tol!r}"
        )
    root, residual, iterations = solved
    return KeplerSolution(
        eccentric_anomaly=sign * root + base,
        residual=residual,
        method="newton",
        iterations_or_order=iterations,
    )


@lru_cache(maxsize=None)
def _harmonic_terms(n: int) -> tuple[tuple[int, float], ...]:
    """Amplitudes of sin(k*M) in the order-n Lagrange term, k = n-2j > 0.

    The order-n term is (1/n!) * d^{n-1}/dM^{n-1} [sin(M)^n].  Expanding
    sin(M)^n by the complex-exponential binomial identity and differentiating
    the harmonics term-wise gives the exact rational amplitudes
    2 * C(n, j) * (-1)^j * (n-2j)^(n-1) / (2^n * n!); integer true division
    rounds each one to double once, correctly.
    """
    denominator = 2**n * math.factorial(n)
    terms = []
    for j in range((n - 1) // 2 + 1):
        k = n - 2 * j
        numerator = 2 * math.comb(n, j) * (-1) ** j * k ** (n - 1)
        terms.append((k, numerator / denominator))
    return tuple(terms)


def _partial_sums(
    problem: KeplerProblem, order: int
) -> tuple[list[float], float, float, float]:
    """Reduced partial sums E_1..E_order, with the reduction (reduced, sign, base).

    Each sin(k*M) is evaluated once and shared by every order that uses it.
    """
    _check_integer("order", order, 1)
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


def series_radius() -> float:
    """Convergence radius of the eccentricity series: max over x of x/cosh(x).

    The maximizer z solves x*tanh(x) = 1; the radius is z/cosh(z), the
    Laplace limit constant that bound_constants also reports.
    """
    z = _tanh_root()
    return z / math.cosh(z)
