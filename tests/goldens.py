"""The argv behind each file of tests/golden/, and the CLI's leaf commands.

Each argv prints its file byte for byte, with exit 0 and nothing on stderr.
The tests and CI import this module, so both walk the same leaves.
"""

import argparse

GOLDENS = {
    "constants.json": ["constants"],
    "table.json": ["table", "--counts", "20,10,10,20"],
    # Cross products past the double range: the odds ratio, about 2.5e-397,
    # rounds to 0, and the log odds comes from the exact integer quotient.
    "table-past-range.json": [
        "table", "--counts", f"2,{10**200},{10**200},1000", "--correction",
    ],
    "verify.json": ["verify", "--samples", "1000", "--seed", "7"],
    "verify-40000.json": ["verify", "--samples", "40000", "--seed", "7"],
    # The far tail of the normal quantile, as the standard library rounds it.
    "pz.json": ["pz", "--p", "5e-324"],
    "bounds.json": ["bounds", "--p", "0.667", "--q", "0.333", "--prevalence", "0.5"],
    # Derived risks near 1: risk_unexposed, 1 - 3.0e-16, rounds to
    # 1 - 3 * 2**-53.  The effect comes from the inputs, and keeps its sign.
    "bounds-near-one.json": [
        "bounds", "--p", "0.667", "--q", "0.99999999", "--prevalence", "0.99999999",
    ],
    # A subnormal variance product whose sigma, 2.18e154, is a double: the
    # risk mode reads the variance factor scaled, as the --p/--q mode does.
    "bounds-risk-tiny-exposure.json": [
        "bounds", "--risk-exposed", "0.3", "--risk-unexposed", "0.6",
        "--exposure", "1e-308",
    ],
    # w*p = 1e-400 underflows to 0 while the mix, 1e-300, is normal: the Bayes
    # map scales both first, so risk_exposed is about 1e-100, not an error.
    "bounds-underflowed-product.json": [
        "bounds", "--p", "1e-200", "--q", "1e-300", "--prevalence", "1e-200",
    ],
    "diverge-table.txt": [
        "kepler", "diverge-table", "--m", "1.5707963", "--eps", "0.8",
        "--max-order", "3", "--format", "text",
    ],
}


def leaves(parser, words=()):
    """(command words, parser) for every leaf under `parser`, in declaration order."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from leaves(sub, (*words, name))
            return
    yield " ".join(words), parser
