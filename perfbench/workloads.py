"""Seeded input generation for every workload.

Pure stdlib and free of keplor imports, so the same seed gives the same
inputs whatever the code under test does.  Every stream is endless and made
of blocks with a fixed composition shuffled by the seed: the mix of
operation kinds is then the same in every run, and only the drawn values
change with the seed.  No generated input carries a workload name.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, NamedTuple

# The argument the harness replaces with the path of a table file it writes.
TABLE_FILE = "@TABLE_FILE@"

GOLDEN = {
    "constants": ["constants"],
    "table": ["table", "--counts", "20,10,10,20"],
    "verify": ["verify", "--samples", "1000", "--seed", "7"],
}

# Inputs in the declared domains that the package mishandles today; they are
# sent and checked like any in-domain request but tallied apart, because the
# benchmark's runs must not contain failing operations.
KNOWN_DEFECTS = (
    ["table", "--counts", f"{10**400},1,1,1"],
    ["bounds", "--or", "1e308"],
    ["prior", "flattest", "--or-threshold", "2", "--tail-mass", "1e-17"],
    ["pz", "--z", "10"],
)


class Request(NamedTuple):
    """One keplor command line and the outcome it must produce.

    expect is "ok", "domain" (exit 1, error envelope), "usage" (exit 2),
    "golden:<name>" or "known" (in domain, so ok is expected).
    """

    argv: tuple
    expect: str
    file_text: str = ""


def _f(x: float) -> str:
    return repr(float(x))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _counts(rng: random.Random, low: int) -> str:
    return ",".join(str(rng.randint(low, 500)) for _ in range(4))


def _regular(rng: random.Random, form: int) -> tuple[list, str]:
    """The README command form number `form` with drawn in-domain values."""
    if form == 0:
        return ["constants"], ""
    if form == 1:
        argv = ["table", "--counts", _counts(rng, 1)]
        return argv + (["--correction"] if rng.random() < 0.5 else []), ""
    if form == 2:
        # Zero cells are in the domain with --correction; a zero row is not.
        cells = _counts(rng, 0).split(",")
        while cells[0] == cells[1] == "0" or cells[2] == cells[3] == "0":
            cells = _counts(rng, 0).split(",")
        return ["table", "--file", TABLE_FILE, "--correction"], ",".join(cells) + "\n"
    if form == 3:
        return ["bounds", "--or", _f(_log_uniform(rng, 1e-3, 1e3))], ""
    if form == 4:
        p, q, w = (rng.uniform(0.01, 0.99) for _ in range(3))
        return ["bounds", "--p", _f(p), "--q", _f(q), "--prevalence", _f(w)], ""
    if form == 5:
        m, eps = rng.uniform(-10.0, 10.0), rng.uniform(0.0, 0.99)
        return ["kepler", "solve", "--m", _f(m), "--eps", _f(eps)], ""
    if form == 6:
        m, eps = rng.uniform(-10.0, 10.0), rng.uniform(0.0, 0.95)
        order = str(rng.randint(1, 64))
        return ["kepler", "series", "--m", _f(m), "--eps", _f(eps), "--order", order], ""
    if form == 7:
        m, eps = rng.uniform(0.1, 3.0), rng.uniform(0.1, 0.95)
        order = rng.choice(("40", "64"))
        return [
            "kepler", "diverge-table", "--m", _f(m), "--eps", _f(eps),
            "--max-order", order,
        ], ""
    if form == 8:
        threshold = _log_uniform(rng, 1.05, 100.0)
        tail = _log_uniform(rng, 1e-6, 0.45)
        return [
            "prior", "flattest", "--or-threshold", _f(threshold),
            "--tail-mass", _f(tail),
        ], ""
    if form == 9:
        odds, risk = _log_uniform(rng, 0.1, 100.0), rng.uniform(0.05, 0.95)
        return ["prior", "wm-pathway", "--or", _f(odds), "--risk-exposed", _f(risk)], ""
    if form == 10:
        samples, seed = rng.randint(1, 10**4), rng.randint(0, 2**31)
        return ["verify", "--samples", str(samples), "--seed", str(seed)], ""
    if rng.random() < 0.5:
        return ["pz", "--p", _f(_log_uniform(rng, 1e-6, 0.5))], ""
    return ["pz", "--z", _f(rng.uniform(-6.0, 6.0))], ""


REGULAR_FORMS = 12


def _usage_error(rng: random.Random) -> list:
    m = _f(rng.uniform(0.0, 3.0))
    return rng.choice((
        ["table", "--counts", "1,2,3"],
        ["kepler", "solve", "--m", m],
        ["--format", "xml", "constants"],
        ["bounds", "--or", "2", "--p", "0.5", "--q", "0.3"],
        ["nosuch"],
        ["verify", "--samples", "ten", "--seed", "1"],
    ))


def _domain_error(rng: random.Random) -> list:
    m = _f(rng.uniform(0.0, 3.0))
    return rng.choice((
        ["kepler", "solve", "--m", m, "--eps", _f(rng.uniform(1.0, 5.0))],
        ["table", "--counts", "0," + _counts(rng, 1).split(",", 1)[1]],
        ["bounds", "--p", _f(rng.uniform(1.0, 2.0)), "--q", "0.3"],
        ["kepler", "series", "--m", m, "--eps", "0.3", "--order", "65"],
        ["verify", "--samples", "0", "--seed", "1"],
        ["pz", "--p", "0"],
        ["prior", "flattest", "--or-threshold", "0.5", "--tail-mass", "0.025"],
        ["bounds", "--or", _f(-rng.uniform(0.1, 10.0))],
        ["kepler", "solve", "--m", "nan", "--eps", "0.3"],
    ))


def _with_format(rng: random.Random, argv: list, fmt: str) -> list:
    """Place --format at the top level or on the leaf parser, or omit json."""
    where = rng.randrange(3)
    if fmt == "json" and where == 0:
        return argv
    if where == 1:
        return ["--format", fmt] + argv
    return argv + ["--format", fmt]


def cli_requests(seed: int) -> Iterator[Request]:
    """Command lines for one-shot processes: each block holds every README
    form in both formats, the three golden command lines, three usage
    errors, three domain errors and two known-defect inputs."""
    rng = random.Random(seed)
    block_index = 0
    while True:
        block = []
        for form in range(REGULAR_FORMS):
            for fmt in ("json", "text"):
                argv, text = _regular(rng, form)
                block.append(Request(tuple(_with_format(rng, argv, fmt)), "ok", text))
        block += [Request(tuple(argv), f"golden:{name}") for name, argv in GOLDEN.items()]
        for _ in range(3):
            block.append(Request(tuple(_usage_error(rng)), "usage"))
            fmt = rng.choice(("json", "text"))
            block.append(Request(tuple(_with_format(rng, _domain_error(rng), fmt)), "domain"))
        for argv in KNOWN_DEFECTS[2 * (block_index % 2): 2 * (block_index % 2) + 2]:
            block.append(Request(tuple(argv), "known"))
        rng.shuffle(block)
        yield from block
        block_index += 1


# Table orders of the library-mix workload; every block holds one of each.
TABLE_ORDERS = (16, 32, 48, 64)
# Direct series calls per order per block, chosen so that direct calls and
# diverge-table runs take about the same time.
SERIES_PER_ORDER = 5


def _eccentricity(rng: random.Random, below_limit: bool) -> float:
    return rng.uniform(0.0, 0.66) if below_limit else rng.uniform(0.67, 0.99)


def _kepler_block(rng: random.Random) -> list:
    """("series", (m, eps, order)) and ("table", (m, eps, max_order)) ops,
    eccentricities alternating between the two sides of the Laplace limit."""
    block = []
    for order in range(1, 65):
        for i in range(SERIES_PER_ORDER):
            eps = _eccentricity(rng, i % 2 == 0)
            block.append(("series", (rng.uniform(-2 * math.pi, 2 * math.pi), eps, order)))
    for i, order in enumerate(TABLE_ORDERS):
        eps = _eccentricity(rng, i % 2 == 0)
        block.append(("table", (rng.uniform(0.0, math.pi), eps, order)))
    return block


def _risk(rng: random.Random) -> tuple:
    return tuple(rng.uniform(0.02, 0.98) for _ in range(3))


def _scalar_op(rng: random.Random, kind: str) -> tuple:
    if kind == "solve":
        return (rng.uniform(-10.0, 10.0), rng.uniform(0.0, 0.99))
    if kind == "solve_parabolic":
        return (_log_uniform(rng, 1e-12, 3.0), 1.0 - _log_uniform(rng, 1e-12, 1e-2))
    if kind in ("odds_ratio", "t_statistic", "proportions"):
        return tuple(rng.randint(1, 1000) for _ in range(4))
    if kind in ("cohort_to_risk", "min_variance_prevalence"):
        return _risk(rng)
    if kind in ("standardized_effect", "summarize_risk", "odds_and_risk_ratio"):
        return _risk(rng)
    if kind in ("max_standardized_effect", "optimal_risk"):
        return (_log_uniform(rng, 1e-6, 1e6),)
    if kind in ("bound_curve", "bound_curve_derivative"):
        return (rng.uniform(-40.0, 40.0),)
    if kind == "p_to_z":
        return (_log_uniform(rng, 1e-6, 0.5),)
    if kind == "z_to_p":
        return (rng.uniform(-6.0, 6.0),)
    if kind == "flattest_sigma":
        return (_log_uniform(rng, 1.05, 100.0),)
    if kind == "flattest_prior":
        return (
            _log_uniform(rng, 1.05, 100.0),
            _log_uniform(rng, 1e-6, 0.45),
            _log_uniform(rng, 0.5, 20.0),
        )
    if kind == "prevalence_pathway":
        return (_log_uniform(rng, 0.1, 100.0), rng.uniform(0.05, 0.95))
    if kind == "verify_small":
        return (1000, rng.randint(0, 2**31))
    raise ValueError(f"unknown scalar op kind {kind!r}")


# Operations per block; verify at 1e3 samples costs ~30 scalar calls, so one
# per block keeps it at about a third of the time.
SCALAR_BLOCK = {
    "solve": 12,
    "solve_parabolic": 12,
    "odds_ratio": 4,
    "t_statistic": 4,
    "proportions": 3,
    "cohort_to_risk": 3,
    "odds_and_risk_ratio": 3,
    "max_standardized_effect": 3,
    "optimal_risk": 3,
    "standardized_effect": 3,
    "summarize_risk": 3,
    "bound_curve": 2,
    "bound_curve_derivative": 2,
    "min_variance_prevalence": 2,
    "p_to_z": 4,
    "z_to_p": 4,
    "flattest_sigma": 4,
    "flattest_prior": 4,
    "prevalence_pathway": 4,
    "verify_small": 1,
}


# Scalar blocks per library block: a kepler block takes about as long as 72
# scalar blocks, so series calls, diverge-table runs and scalar calls take
# about the same time.
SCALAR_BLOCKS = 36
# Library blocks per verify_bound(10**7): one such call takes about as long as
# 24 library blocks, so with 72 of them it too gets about a quarter of the
# time.
BLOCKS_PER_VERIFY = 72


def library_ops(seed: int) -> Iterator[tuple]:
    """(kind, args) in-process calls across the library, in cycles that open
    with one ("verify_large", (seed_i,)) for verify_bound(10**7, seed_i) and go
    on with BLOCKS_PER_VERIFY blocks; a block is one kepler block and
    SCALAR_BLOCKS blocks of microsecond-scale calls, shuffled together."""
    rng = random.Random(seed)
    while True:
        yield ("verify_large", (rng.randint(0, 2**31),))
        for _ in range(BLOCKS_PER_VERIFY):
            block = _kepler_block(rng)
            for _ in range(SCALAR_BLOCKS):
                block += [
                    (kind, _scalar_op(rng, kind))
                    for kind, count in SCALAR_BLOCK.items()
                    for _ in range(count)
                ]
            rng.shuffle(block)
            yield from block


IN_PROCESS = {
    "library-mix": library_ops,
}
