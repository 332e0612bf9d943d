"""Maximum relative error of the closed forms over frozen grids of doubles.

Grid points are doubles drawn by mantissa and exponent, never as exp(double):
ln of such a point is not itself a double, so a form that rounds ln(or) first
shows its loss here.  The references in accuracy_grid.py are 50-digit values
rounded once to double.
"""

import json
import math
from decimal import Decimal

import pytest

import accuracy_grid as grid
from keplor.bayes_prior import flattest_prior, flattest_sigma, prevalence_pathway
from keplor.cli import run
from keplor.contingency import (
    CohortParams,
    RiskParams,
    TwoByTwoTable,
    cohort_to_risk,
    estimate_odds_ratio,
    odds_and_risk_ratio,
    risk_to_cohort,
    t_statistic,
)
from keplor.effect_bounds import (
    bound_curve,
    bound_curve_derivative,
    max_standardized_effect,
    min_variance_exposure,
    min_variance_prevalence,
    optimal_risk,
    sigma2_by_exposure,
    sigma2_by_prevalence,
    standardized_effect,
    summarize_risk,
)
from keplor.numerics import normal_cdf, normal_quantile, p_to_z, z_to_p

# One ulp of a correctly rounded result is at most 2.2e-16 relative, two ulps
# are at most 4.4e-16; 4e-16 allows two only on mantissas above 1.11.
MAX_RELATIVE_ERROR = 4e-16
# AS241 is accurate to about 1e-16 before rounding, but each branch evaluates
# two degree-7 polynomials and a quotient in double, which can cost three
# ulps.  Over 3 random doubles per binade from 2**-1074 to 1/2 and the grid's
# upper points, the worst error against unrounded 50-digit values was 7.1e-16.
QUANTILE_MAX_RELATIVE_ERROR = 8e-16
# The normal tail inherits math.erfc's own error once the rounding of
# -x/sqrt(2) is corrected; the worst over the grid was 3.2e-16, and 4.8e-16
# over 20,000 uniform x in [-37.5, 0].
NORMAL_CDF_MAX_RELATIVE_ERROR = 6e-16
# Each reciprocal term of the variance factor rounds up to five times (w*a,
# then *(1-a), each 1 - x below 1/2, and the quotient), and the sum once more.
# Over 200,000 triples drawn like the grid's the worst error was 3.9 * 2**-53.
VARIANCE_FACTOR_MAX_RELATIVE_ERROR = 5 * 2.0**-53
# 1/(1 + rr/sqrt(or)) rounds four times, and 1/(1 + t) never magnifies an
# error in t.  Over 200,000 pairs drawn like the grid's the worst error was
# 3.2 * 2**-53.
MIN_VARIANCE_EXPOSURE_MAX_RELATIVE_ERROR = 4 * 2.0**-53
# The Bayes maps print the mix m = w*a + (1-w)*b, which rounds at most three
# times (w*a, 1 - w and its product, the sum), and two shares formed from the
# inputs, w*a/(w*a + (1-w)*b) and w*(1-a)/(w*(1-a) + (1-w)*(1-b)), neither
# divided by m or 1 - m.  The exact-value properties in test_contingency.py
# hold each to its count of roundings; here both shares get the first's five.
# Over the grids' rows the worst errors were 3.96 and 1.95 * 2**-53.  A mix
# below 2**-1022 is also held to one step of 2**-1074: its products round
# onto the subnormal grid.
BAYES_MIX_MAX_RELATIVE_ERROR = 3 * 2.0**-53
BAYES_QUOTIENT_MAX_RELATIVE_ERROR = 5 * 2.0**-53
# The risks are exact doubles, so each 1 - r adds a rounding but no
# magnification: the odds ratio rounds up to five times (each 1 - r, each odds
# and their quotient), the risk ratio once, and the reference once more.
# Over 200,000 pairs drawn like the grid's the worst odds-ratio error was 0.55
# of its bound; the risk ratio was always correctly rounded.
ODDS_RATIO_MAX_RELATIVE_ERROR = 6 * 2.0**-53
RISK_RATIO_MAX_RELATIVE_ERROR = 2 * 2.0**-53
# The curve pair's far branches, |x| >= 1400, at log odds that are doubles.
FAR_TAIL = [1400.5, 2000.0, 2500.25, 2900.0, 2975.0, 2983.0]
# A result below 2**-1022 is held to one step of 2**-1074.
SUBNORMAL_STEP = 2.0**-1074


def binade_points(lowest, highest, per=1):
    """`per` doubles in each binade [2**e, 2**(e+1)) for e = lowest..highest.

    The j-th mantissa's fraction bits are frac(((e + 1075)*per + j) * 0.618...),
    truncated to the bits the binade holds, so subnormal binades get exact
    points too.
    """
    points = []
    for e in range(lowest, highest + 1):
        bits = min(52, e + 1074)
        for j in range(per):
            fraction = (((e + 1075) * per + j) * 0.6180339887498949) % 1.0
            mantissa = (1 << bits) + int(math.ldexp(fraction, bits))
            points.append(math.ldexp(mantissa, e - bits))
    return points


def within(expected, rel=MAX_RELATIVE_ERROR):
    return pytest.approx(list(expected), rel=rel, abs=0)


def within_each(expected, rels):
    """Each value to its own relative error, or below 2**-1022 to one
    subnormal step."""
    return [
        pytest.approx(e, rel=0, abs=SUBNORMAL_STEP)
        if abs(e) < 2.0**-1022
        else pytest.approx(e, rel=rel, abs=0)
        for e, rel in zip(expected, rels)
    ]


def test_ceiling_over_every_binade():
    points = binade_points(-1074, 1023)
    assert [math.frexp(x)[1] - 1 for x in points] == list(range(-1074, 1024))
    assert [max_standardized_effect(x) for x in points] == within(grid.CEILING)


def test_flattest_sigma_over_every_binade_above_one():
    points = binade_points(0, 1023)
    assert [flattest_sigma(x) for x in points] == within(grid.FLATTEST_SIGMA)


def test_optimal_risks_where_representable():
    risks = [optimal_risk(x) for x in binade_points(-108, 107)]
    exposed, unexposed = zip(*grid.OPTIMAL_RISK)
    assert [risk.risk_exposed for risk in risks] == within(exposed)
    assert [risk.risk_unexposed for risk in risks] == within(unexposed)


def test_min_variance_prevalence_on_uniform_and_log_spaced_pairs():
    got = [min_variance_prevalence(p, q) for p, q, _ in grid.PREVALENCE]
    assert got == within(expected for _, _, expected in grid.PREVALENCE)


@pytest.mark.parametrize("factor", [sigma2_by_prevalence, sigma2_by_exposure])
def test_variance_factor_at_uniform_tiny_and_near_one_probabilities(factor):
    got = [factor(w, a, b) for w, a, b, _ in grid.VARIANCE_FACTOR]
    expected = (e for _, _, _, e in grid.VARIANCE_FACTOR)
    assert got == within(expected, rel=VARIANCE_FACTOR_MAX_RELATIVE_ERROR)


def test_min_variance_exposure_on_near_and_wide_pairs():
    got = [min_variance_exposure(rr, odds) for rr, odds, _ in grid.MIN_VARIANCE_EXPOSURE]
    expected = (e for _, _, e in grid.MIN_VARIANCE_EXPOSURE)
    assert got == within(expected, rel=MIN_VARIANCE_EXPOSURE_MAX_RELATIVE_ERROR)


def test_normal_quantile_over_every_binade_below_one_half_and_next_to_one():
    points = binade_points(-1074, -2) + [1.0 - 2.0**-k for k in range(2, 54)]
    expected = within(grid.NORMAL_QUANTILE, rel=QUANTILE_MAX_RELATIVE_ERROR)
    assert [normal_quantile(p) for p in points] == expected


def test_bound_curve_over_every_binade_and_the_far_tail():
    points = binade_points(-1074, 11) + FAR_TAIL
    got = [bound_curve(x) for x in points]
    rels = [MAX_RELATIVE_ERROR] * len(points)
    assert got == within_each(grid.BOUND_CURVE, rels)
    assert [-bound_curve(-x) for x in points] == got


def test_bound_curve_derivative_to_its_condition_number():
    # 4 - x*tanh(x/4) cancels near the peak x = 4z, with condition number
    # kappa = |x*tanh(x/4)| / |4 - x*tanh(x/4)|.
    points = binade_points(-1074, 11) + FAR_TAIL
    rels = []
    for x in points:
        slope = x * math.tanh(x / 4)
        rels.append(4 * 2.0**-53 * (1 + abs(slope) / abs(4 - slope)))
    got = [bound_curve_derivative(x) for x in points]
    assert got == within_each(grid.BOUND_CURVE_DERIVATIVE, rels)
    assert [bound_curve_derivative(-x) for x in points] == got


def test_normal_cdf_and_upper_tail_of_both_signs():
    # Phi(x) rounds to 1/2 for |x| below 2**-54 and is subnormal below
    # -37.52; from 1 to 64 the points are dense, since there the tail is steep.
    magnitudes = binade_points(-64, -1) + binade_points(0, 5, 64)
    points = [x for m in magnitudes for x in (-m, m) if x >= -37.5]
    expected = within(grid.NORMAL_CDF, rel=NORMAL_CDF_MAX_RELATIVE_ERROR)
    assert [normal_cdf(x) for x in points] == expected
    assert [z_to_p(-x) for x in points] == expected


def within_or_a_step(expected, rels):
    """Each value to its relative error; below 2**-1022 also to one step of
    2**-1074, for its rounding onto the subnormal grid and the reference's."""
    return [
        pytest.approx(e, rel=0, abs=SUBNORMAL_STEP + rel * e)
        if e < 2.0**-1022
        else pytest.approx(e, rel=rel, abs=0)
        for e, rel in zip(expected, rels)
    ]


def assert_bayes_map(got, rows):
    """(w*a/m, w*(1-a)/(1-m), m) against each grid row's last three values."""
    first, second, mix = zip(*(row[3:] for row in rows))
    rels = [BAYES_QUOTIENT_MAX_RELATIVE_ERROR] * len(rows)
    assert [g[0] for g in got] == within_or_a_step(first, rels)
    assert [g[1] for g in got] == within_or_a_step(second, rels)
    mix_rels = [BAYES_MIX_MAX_RELATIVE_ERROR] * len(rows)
    assert [g[2] for g in got] == within_or_a_step(mix, mix_rels)


def test_cohort_to_risk_at_tiny_near_one_and_mixes_near_one():
    risks = [cohort_to_risk(CohortParams(p, q, w)) for p, q, w, *_ in grid.COHORT_TO_RISK]
    got = [(r.risk_exposed, r.risk_unexposed, r.exposure) for r in risks]
    assert_bayes_map(got, grid.COHORT_TO_RISK)


def test_risk_to_cohort_at_tiny_near_one_and_mixes_near_one():
    cohorts = [risk_to_cohort(RiskParams(a, b, v)) for a, b, v, *_ in grid.RISK_TO_COHORT]
    got = [(c.exposure_cases, c.exposure_controls, c.prevalence) for c in cohorts]
    assert_bayes_map(got, grid.RISK_TO_COHORT)


def standardized_effect_tolerance(log_odds):
    """Each rounding, the reference's included, is at most 2**-53 relative.

    The odds ratio rounds up to five times (each 1 - r, each odds and their
    quotient), and ln OR magnifies that by 1/|ln OR|; the log is allowed one
    ulp (2).  The variance factor's five roundings are halved by the square
    root (2.5), which rounds once, as do the quotient and the reference.  Over
    400,000 triples drawn like the grid's the worst error was 0.51 of this
    bound, and 0.46 and 0.39 in the scaled form and the logit difference.
    """
    return 2.0**-53 * (5 / abs(log_odds) + 7.5)


def test_standardized_effect_by_direct_quotient_logit_difference_and_scaled_form():
    rows = grid.STANDARDIZED_EFFECT
    got = [standardized_effect(RiskParams(a, b, v)) for a, b, v, *_ in rows]
    rels = [standardized_effect_tolerance(log_odds) for *_, log_odds, _ in rows]
    assert got == within_each([row[-1] for row in rows], rels)


def test_summary_where_a_variance_product_is_subnormal():
    # 1e-308 * 0.3 * 0.7 is subnormal, but sigma and the effect are doubles;
    # sigma, ln OR and the effect to 18-20 of 50 digits from mpmath 1.3.  Sigma
    # is allowed half the variance factor's roundings, the root's and the
    # reference's.
    risk = RiskParams(0.3, 0.6, 1e-308)
    summary = summarize_risk(risk)
    sigma_rel = VARIANCE_FACTOR_MAX_RELATIVE_ERROR / 2 + 2 * 2.0**-53
    assert summary.sigma == pytest.approx(2.1821789023599239347e154, rel=sigma_rel, abs=0)
    rel = standardized_effect_tolerance(-1.252762968495367956)
    assert summary.standardized == pytest.approx(-5.74088113096760159e-155, rel=rel, abs=0)
    assert summary.standardized == standardized_effect(risk)


# bounds --p/--q argvs, with ln OR and the standardized effect of their
# inputs, 30 of 60 digits from mpmath 1.3 (the first row from Decimal at 70
# digits): a design whose derived risks lie within 1.5e-8 of 1, a control
# exposure near 0 and one near 1.
BOUNDS_P_Q = [
    ("0.667", "0.99999999", "0.99999999",
     -17.7260331729924260504098062996, -1.77260331734313046836176877596e-7),
    ("0.5", "1e-14", "0.5",
     32.236191301916629577432571011, 2.27944294692114788801589996711e-06),
    ("0.3", "0.999999999999", "0.2",
     -28.4783410982795622601552935217, -2.54715208910137538386029151537e-05),
]


@pytest.mark.parametrize(
    "p,q,prevalence,log_odds,expected", BOUNDS_P_Q, ids=[",".join(row[:3]) for row in BOUNDS_P_Q]
)
def test_bounds_p_q_standardized_effect_from_its_own_inputs(
    capsys, p, q, prevalence, log_odds, expected
):
    # The inputs are exact doubles, as the risks of the grid's triples are.
    code = run(["bounds", "--p", p, "--q", q, "--prevalence", prevalence])
    assert code == 0
    got = json.loads(capsys.readouterr().out)["results"]["standardized_effect"]
    assert got == pytest.approx(expected, rel=standardized_effect_tolerance(log_odds), abs=0)


# bounds argvs with one result each, against 60 digits from mpmath 1.3 (50 for
# the minimizers), compared in Decimal, so the reference is not rounded to a
# double.  The tolerance counts the roundings, each at most 2**-53 relative.
SIGMA_AT_MIN = "1.70710678118655013206385384274608462721433467597026558946173e+155"
BOUNDS_RESULTS = [
    # w*p underflows to 0 while the mix is a normal double: the product, the
    # quotient and the mix's three roundings.
    ("--p 1e-200 --q 1e-300 --prevalence 1e-200", "risk_exposed",
     "9.99999999999999939141432962956761351873703293041453519423309e-101", 5),
    ("--risk-exposed 1e-200 --risk-unexposed 1e-300 --exposure 1e-200", "exposure_cases",
     "9.99999999999999939141432962956761351873703293041453519423309e-101", 5),
    # A subnormal mix, 2.209442572479012e-308: the product, the quotient and
    # 1 - w, and the two products that round to the subnormal grid, half a
    # step of 2**-1074 each.
    ("--p 1e-323 --q 9.30491114065771e-308 --prevalence 0.7625509218648123",
     "risk_exposed", "3.41036439137008016883647186784422710039583243012237928545794e-16",
     3 + 2.0**-1074 / 2.209442572479012e-308 / 2.0**-53),
    # 1/sqrt(p(1-p)) + 1/sqrt(q(1-q)): half the variance factor's five
    # roundings, and the root's; the minimizer's error moves sigma only in
    # second order.
    ("--p 1e-310 --q 2e-310", "sigma_at_min", SIGMA_AT_MIN, 3.5),
    ("--risk-exposed 1e-310 --risk-unexposed 2e-310", "sigma_at_min", SIGMA_AT_MIN, 3.5),
    # 1 - x/(1 + x), x = rr/sqrt(or) near 1e-16: the subtraction rounds by at
    # most 2**-54 below 1, and x/(1 + x)'s roundings are relative to x.
    ("--or 1e32 --rr 1.1", "min_variance_exposure",
     "0.99999999999999989000000000000000616960501541515737", 0.51),
    ("--or 1e32 --rr 0.7", "min_variance_exposure",
     "0.99999999999999993000000000000001121904887003833994", 0.51),
]


@pytest.mark.parametrize(
    "argv,key,expected,roundings", BOUNDS_RESULTS, ids=[row[0] for row in BOUNDS_RESULTS]
)
def test_bounds_results_where_a_product_underflows_or_a_mix_is_subnormal(
    capsys, argv, key, expected, roundings
):
    assert run(["bounds", *argv.split()]) == 0
    got = json.loads(capsys.readouterr().out)["results"][key]
    rel = Decimal(roundings * 2.0**-53)
    assert Decimal(got) == pytest.approx(Decimal(expected), rel=rel, abs=0)


def table_tolerances(row):
    """Relative bounds on a table's ln OR and t.

    The odds ratio is the exact quotient rounded once, as is the reference, so
    the two are equal.  Each rounding, the reference's included, is at most
    2**-53 relative, and a log is allowed one ulp.  ln OR is the log of the
    odds ratio, whose one rounding moves ln OR by up to 2**-53; or, past the
    normal range, ln q + shift * ln 2, where the rounding of q, the log of q
    and their sum with shift * _LN2_LO each move it by up to 2**-53, and the
    outer sum rounds once.  t adds the four reciprocals, each one rounded
    integer quotient, in three sums of positive terms, halved by the square
    root, which rounds once, as do the quotient and the reference.  Over
    400,000 tables drawn like the grid's, and by mantissa and exponent up to
    the largest double, the worst error was 0.33 of the ln OR bound and 0.45
    of the t bound.  A subnormal t is held to one step.
    """
    # ln OR's own error: three absolute roundings and a relative ulp.
    ln_or = 2.0**-53 * (3 / abs(row[6]) + 2)
    return ln_or + 2.0**-53, ln_or + 5 * 2.0**-53


def test_estimate_odds_ratio_inside_and_past_the_double_range():
    rows = grid.TABLE_ESTIMATES
    got = [estimate_odds_ratio(TwoByTwoTable(*row[:4]), row[4]) for row in rows]
    log_rels = [table_tolerances(row)[0] for row in rows]
    assert [g.odds_ratio for g in got] == [row[5] for row in rows]
    assert [g.log_odds for g in got] == within_each([row[6] for row in rows], log_rels)


def test_t_statistic_inside_and_past_the_double_range():
    rows = grid.TABLE_ESTIMATES
    got = [t_statistic(TwoByTwoTable(*row[:4]), row[4]) for row in rows]
    t_rels = [table_tolerances(row)[1] for row in rows]
    assert got == within_each([row[7] for row in rows], t_rels)


def test_odds_and_risk_ratio_at_tiny_near_one_and_uniform_risks():
    rows = grid.ODDS_AND_RISK_RATIO
    got = [odds_and_risk_ratio(RiskParams(a, b, 0.5)) for a, b, _, _ in rows]
    odds_ratios = within((row[2] for row in rows), rel=ODDS_RATIO_MAX_RELATIVE_ERROR)
    risk_ratios = within((row[3] for row in rows), rel=RISK_RATIO_MAX_RELATIVE_ERROR)
    assert [g.odds_ratio for g in got] == odds_ratios
    assert [g.risk_ratio for g in got] == risk_ratios


def prior_variance_tolerance(quantile, reference):
    """(ln x / sigma / q)**2: the log is allowed one ulp (2) and each quotient
    rounds once, all doubled by the square, which rounds once, as does the
    reference.  The error of `quantile`, held by its own test, is doubled
    too.  Over 50,000 triples drawn like the grid's the worst error was 0.76
    of this bound.
    """
    return 2.0**-53 * 10 + 2 * abs(quantile - reference) / reference


def test_flattest_prior_variance_at_tiny_and_near_half_tail_masses():
    rows = grid.FLATTEST_PRIOR
    quantiles = [p_to_z(m) for _, m, _, _, _ in rows]
    assert quantiles == within((row[3] for row in rows), rel=QUANTILE_MAX_RELATIVE_ERROR)
    got = [flattest_prior(x, m, s).prior_variance for x, m, s, _, _ in rows]
    rels = [prior_variance_tolerance(z, row[3]) for z, row in zip(quantiles, rows)]
    assert got == within_each([row[4] for row in rows], rels)


def pathway_tolerances(odds_ratio, risk_exposed):
    """Relative bounds on prevalence_pathway's four results, in field order.

    Each rounding, the reference's included, is at most 2**-53 relative and
    counts by how much it moves the result.  d = r + OR*(1 - r) rounds three
    times, the first two weighted by c = OR*(1 - r)/d.  The risk ratio is d,
    and the unexposed risk r/d rounds once more.  x = (d/(d + 1) + OR/(d +
    1))/sqrt(OR) moves with d by |d/(d + OR) - d/(d + 1)| and rounds five
    more times (d + 1, the two quotients, their sum, the root and the
    quotient by it); the prevalence 1/(1 + x) damps that by x/(1 + x) and
    rounds twice.  In sigma = (1 + 1/s)*(sqrt(d) + s/sqrt(d)), s = sqrt(OR),
    s/sqrt(d) is the share g = s/(d + s) of the second factor: d moves sigma
    by |1 - 2g|/2, the root of d by |1 - 2g|, s by |g - 1/(1 + s)|, 1/s by
    1/(1 + s), the quotient by g, and the two sums and the product by one
    each.  Over 200,000 pairs drawn like the grid's the worst errors were
    0.80, 0.999, 0.67 and 0.80 of these bounds; the risk ratio meets its bound
    where the result and the reference, one step apart, lie just above a
    power of two.  A subnormal unexposed risk is held to one step.
    """
    ratio = risk_exposed + odds_ratio * (1.0 - risk_exposed)
    root = math.sqrt(odds_ratio)
    ratio_error = 1 + 2 * odds_ratio * (1.0 - risk_exposed) / ratio
    weight = abs(1 / (1 + odds_ratio / ratio) - ratio / (ratio + 1))
    x = (ratio / (ratio + 1) + odds_ratio / (ratio + 1)) / root
    g, h = root / (ratio + root), 1 / (1 + root)
    rels = (
        ratio_error + 2,
        ratio_error + 1,
        (weight * ratio_error + 5) * x / (1 + x) + 3,
        abs(1 - 2 * g) * (ratio_error / 2 + 1) + abs(g - h) + h + g + 4,
    )
    return [2.0**-53 * rel for rel in rels]


def test_prevalence_pathway_at_tiny_odds_ratios_and_tiny_subnormal_and_near_one_risks():
    rows = grid.PREVALENCE_PATHWAY
    got = [prevalence_pathway(odds, risk) for odds, risk, *_ in rows]
    rels = [pathway_tolerances(odds, risk) for odds, risk, *_ in rows]
    for field in range(4):
        expected = [row[2 + field] for row in rows]
        assert [g[field] for g in got] == within_each(expected, [r[field] for r in rels])
