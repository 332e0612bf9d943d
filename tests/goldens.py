"""The argv behind each file of tests/golden/, keyed by file name.

Each argv prints its file byte for byte, with exit 0 and nothing on stderr.
"""

GOLDENS = {
    "constants.json": ["constants"],
    "table.json": ["table", "--counts", "20,10,10,20"],
    "verify.json": ["verify", "--samples", "1000", "--seed", "7"],
    "verify-40000.json": ["verify", "--samples", "40000", "--seed", "7"],
    # The far tail of the normal quantile, as the standard library rounds it.
    "pz.json": ["pz", "--p", "5e-324"],
    "bounds.json": ["bounds", "--p", "0.667", "--q", "0.333", "--prevalence", "0.5"],
    "diverge-table.txt": [
        "kepler", "diverge-table", "--m", "1.5707963", "--eps", "0.8",
        "--max-order", "3", "--format", "text",
    ],
}
