"""Hypothesis strategies shared by the test modules."""

import math

from hypothesis import strategies as st


def _probability(mantissa, exponent, complement):
    """A double drawn by mantissa and exponent in (0, 1), or 1 minus it: 1.0
    for the tiniest draws, which the probability checks reject."""
    x = math.ldexp(1.0 + mantissa / 2.0**52, exponent)
    return 1.0 - x if complement else x


MANTISSAS = st.integers(0, 2**52 - 1)
PROBABILITIES = st.builds(_probability, MANTISSAS, st.integers(-1074, -1), st.booleans())
# Strictly inside (0, 1): a complement 1 - x is taken only of x >= 2**-53, so
# it is at most 1 - 2**-53, never 1.0.
OPEN_PROBABILITIES = st.one_of(
    st.builds(_probability, MANTISSAS, st.integers(-1074, -1), st.just(False)),
    st.builds(_probability, MANTISSAS, st.integers(-53, -1), st.just(True)),
)
PROBABILITY_TRIPLES = st.tuples(OPEN_PROBABILITIES, OPEN_PROBABILITIES, OPEN_PROBABILITIES)


def _count(mantissa, exponent):
    """floor((1 + mantissa/2**52) * 2**exponent): a count from 1 up to the
    largest double, drawn by mantissa and exponent."""
    return (((1 << 52) + mantissa) << exponent) >> 52


COUNTS = st.builds(_count, st.integers(0, 2**52 - 1), st.integers(0, 1023))
# A corrected table may have empty cells.
CORRECTED_COUNTS = st.just(0) | COUNTS
