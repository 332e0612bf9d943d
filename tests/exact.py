"""Exact references, as fractions.Fraction, for outputs that are rational
functions of their input doubles.

A double converts to a Fraction exactly, and ``float(Fraction)`` rounds
correctly, so each reference is the exact value the library approximates.
"""

from fractions import Fraction


def bayes_map(a, b, w):
    """(w*a/m, w*(1-a)/(1-m), m) with m = w*a + (1-w)*b, from the exact inputs.

    These are cohort_to_risk's (risk_exposed, risk_unexposed, exposure) of
    (p, q, w), and risk_to_cohort's (exposure_cases, exposure_controls,
    prevalence) of (risk_exposed, risk_unexposed, exposure).
    """
    a, b, w = Fraction(a), Fraction(b), Fraction(w)
    mix = w * a + (1 - w) * b
    return w * a / mix, w * (1 - a) / (1 - mix), mix


def within(got, exact, roundings):
    """Whether the double `got` is within `roundings` times 2**-53 of the exact
    value, relative, plus one step of 2**-1074 for the subnormal grid."""
    return abs(Fraction(got) - exact) <= exact * Fraction(roundings, 2**53) + Fraction(1, 2**1074)
