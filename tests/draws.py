"""Hypothesis strategies shared by the test modules."""

import math

from hypothesis import strategies as st


def _probability(mantissa, exponent, complement):
    """A double drawn by mantissa and exponent in (0, 1), or 1 minus it: 1.0
    for the tiniest draws, which the probability checks reject."""
    x = math.ldexp(1.0 + mantissa / 2.0**52, exponent)
    return 1.0 - x if complement else x


PROBABILITIES = st.builds(
    _probability, st.integers(0, 2**52 - 1), st.integers(-1074, -1), st.booleans()
)
