import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

import exact
from draws import CORRECTED_COUNTS, COUNTS, PROBABILITY_TRIPLES

from keplor.contingency import (
    CohortParams,
    EffectSummary,
    RiskParams,
    TwoByTwoTable,
    cohort_to_risk,
    estimate_odds_ratio,
    estimate_proportions,
    odds_and_risk_ratio,
    risk_to_cohort,
    t_statistic,
)
from keplor.effect_bounds import sigma2_by_prevalence
from keplor.errors import (
    DomainError,
    InconsistentParams,
    NonFinite,
    ZeroCell,
    ZeroMargin,
)

counts = st.integers(min_value=1, max_value=200)
positive_tables = st.builds(TwoByTwoTable, counts, counts, counts, counts)
probs = st.floats(0.001, 0.999)


class TestTwoByTwoTable:
    def test_margins(self):
        table = TwoByTwoTable(20, 10, 10, 20)
        assert table.cases == 30
        assert table.controls == 30
        assert table.total == 60
        assert table.cells() == (20, 10, 10, 20)

    @pytest.mark.parametrize("cells", [(0, 0, 5, 5), (5, 5, 0, 0)])
    def test_empty_row(self, cells):
        with pytest.raises(ZeroMargin):
            TwoByTwoTable(*cells)

    def test_negative_count(self):
        with pytest.raises(DomainError):
            TwoByTwoTable(-1, 2, 3, 4)

    @pytest.mark.parametrize("bad", [1.5, "2", True])
    def test_non_integer_count(self, bad):
        with pytest.raises(DomainError):
            TwoByTwoTable(bad, 2, 3, 4)

    def test_frozen(self):
        table = TwoByTwoTable(1, 1, 1, 1)
        with pytest.raises(AttributeError):
            table.n11 = 2

    def test_from_text(self):
        assert TwoByTwoTable.from_text(" 20, 10 ,10,20 ") == TwoByTwoTable(
            20, 10, 10, 20
        )

    @pytest.mark.parametrize("text", ["20,10,10", "1,2,3,4,5", "a,2,3,4", "-1,2,3,4"])
    def test_from_text_rejects(self, text):
        with pytest.raises(DomainError):
            TwoByTwoTable.from_text(text)


class TestEstimators:
    def test_proportions_examples(self):
        assert estimate_proportions(TwoByTwoTable(20, 10, 10, 20)) == (
            2.0 / 3.0,
            1.0 / 3.0,
            0.5,
            60,
        )
        assert estimate_proportions(TwoByTwoTable(1, 1, 1, 1)) == (0.5, 0.5, 0.5, 4)
        assert estimate_proportions(TwoByTwoTable(9, 1, 1, 9)) == (0.9, 0.1, 0.5, 20)

    def test_odds_ratio_examples(self):
        estimate = estimate_odds_ratio(TwoByTwoTable(20, 10, 10, 20))
        assert estimate.odds_ratio == 4.0
        assert estimate.log_odds == math.log(4.0)
        assert estimate_odds_ratio(TwoByTwoTable(5, 5, 5, 5)) == (1.0, 0.0)

    def test_zero_cell_without_correction(self):
        with pytest.raises(ZeroCell):
            estimate_odds_ratio(TwoByTwoTable(10, 0, 5, 5))
        with pytest.raises(ZeroCell):
            t_statistic(TwoByTwoTable(10, 0, 5, 5))

    @pytest.mark.parametrize("correction", [False, True])
    def test_count_past_double_range(self, correction):
        table = TwoByTwoTable(10**400, 1, 1, 1)
        with pytest.raises(NonFinite, match="double-precision range"):
            estimate_odds_ratio(table, correction)
        with pytest.raises(NonFinite, match="double-precision range"):
            t_statistic(table, correction)

    @pytest.mark.parametrize("correction", [False, True])
    def test_largest_count_that_float_holds(self, correction):
        # float() rounds counts below 2**1024 - 2**970 to the largest double,
        # and from there it overflows: the first is answered, the second not.
        # Under correction the odds ratio is (2c + 1)/3 rounded once.
        table = TwoByTwoTable(2**1024 - 2**970 - 1, 1, 1, 1)
        expected = (sys.float_info.max, 1.1984620899082105e308)[correction]
        assert estimate_odds_ratio(table, correction).odds_ratio == expected
        assert t_statistic(table, correction) > 0.0
        with pytest.raises(NonFinite, match="double-precision range"):
            estimate_odds_ratio(TwoByTwoTable(2**1024 - 2**970, 1, 1, 1), correction)

    def test_zero_cell_reported_before_huge_count(self):
        with pytest.raises(ZeroCell):
            estimate_odds_ratio(TwoByTwoTable(10**400, 0, 1, 1))

    def test_cross_product_underflow(self):
        # The quotient 2e-397 rounds to 0; the log comes from its scaled form.
        estimate = estimate_odds_ratio(TwoByTwoTable(2, 10**200, 10**200, 1000))
        assert estimate.odds_ratio == 0.0
        assert estimate.log_odds == pytest.approx(
            -913.43313473807619124572537538823441384956179085126, rel=1e-15, abs=0
        )

    @pytest.mark.parametrize(
        "counts,expected",
        [
            # 50-digit values rounded once to double.  A subnormal odds ratio
            # holds fewer than 53 bits, so its log odds comes from the exact
            # quotient q * 2**shift, q in (1/2, 2), not from the rounded odds
            # ratio.  These three keep 48 or more bits, so the log of the odds
            # ratio would round the same; the deep subnormal quotient 8.689e-320
            # of the grid row (9.95e176, 9.21e299, 6.22e195, 0) with correction,
            # in accuracy_grid.TABLE_ESTIMATES, has a direct log 1.27e8 * 2**-53 off.
            ((1, 10**154, 10**154, 1), -709.1962086421661),
            ((1, 31 * 10**152, 153 * 10**152, 1), -708.4502933960674),
            ((1, 45 * 10**152, 186 * 10**152, 1), -709.0182774336735),
        ],
    )
    def test_subnormal_odds_ratio_keeps_its_log(self, counts, expected):
        estimate = estimate_odds_ratio(TwoByTwoTable(*counts))
        assert 0.0 < estimate.odds_ratio < sys.float_info.min
        assert estimate.log_odds == expected

    @pytest.mark.parametrize("correction", [False, True])
    @pytest.mark.parametrize(
        "counts,odds_ratio,log_odds,t",
        [
            # 50-digit log odds and t statistics, for cells with and without
            # the 0.5 added (equal to 50 digits for the first and last
            # tables).  The cross products pass the double range as floats,
            # not as integers: the quotient is 1, inf, 0 and 1e20 in turn.
            ((10**200,) * 4, 1.0, (0.0, 0.0), (0.0, 0.0)),
            (
                (10**200, 1, 1, 10**200),
                math.inf,
                (
                    921.03403719761827360719658187374568304044059545151,
                    920.22310698140194484324055564281698476729661460458,
                ),
                (
                    651.26941340605873784529292219885742802960505522282,
                    796.93658779533930154905097188506750548169977957716,
                ),
            ),
            (
                (2, 10**200, 10**200, 1000),
                0.0,
                (
                    -913.43313473807619124572537538823441384956179085126,
                    -913.20949131172033044204501668234121510848161057938,
                ),
                (
                    -1290.4996724005492970077191603117866542566316713131,
                    -1442.1103737346892729598673458396800128314339269749,
                ),
            ),
            (
                (10**160, 10**150, 10**150, 10**160),
                1e20,
                (46.051701859880913680359829093687284152022029772575,) * 2,
                (3.2563470668674763358871612280333099024745522353602e76,) * 2,
            ),
        ],
    )
    def test_cross_products_past_double_range(self, counts, odds_ratio, log_odds, t, correction):
        table = TwoByTwoTable(*counts)
        estimate = estimate_odds_ratio(table, correction)
        assert estimate.odds_ratio == pytest.approx(odds_ratio, rel=1e-15, abs=0)
        assert estimate.log_odds == pytest.approx(log_odds[correction], rel=1e-15, abs=0)
        assert t_statistic(table, correction) == pytest.approx(t[correction], rel=1e-15, abs=0)

    @given(st.data(), st.booleans())
    def test_odds_ratio_is_the_exact_quotient_rounded_once(self, data, correction):
        counts = data.draw(st.tuples(*[CORRECTED_COUNTS if correction else COUNTS] * 4))
        assume(counts[0] + counts[1] and counts[2] + counts[3])
        c11, c12, c21, c22 = [2 * n + 1 if correction else n for n in counts]
        try:
            expected = float(Fraction(c11 * c22, c12 * c21))
        except OverflowError:
            expected = math.inf
        assert estimate_odds_ratio(TwoByTwoTable(*counts), correction).odds_ratio == expected

    def test_corrected_odds_ratio(self):
        estimate = estimate_odds_ratio(TwoByTwoTable(10, 0, 5, 5), correction=True)
        assert estimate.odds_ratio == pytest.approx(21.0, abs=1e-12)
        assert abs(estimate.log_odds - 3.044522437723423) < 1e-12

    @given(positive_tables)
    def test_cross_product_matches_odds_form(self, table):
        p, q, _, _ = estimate_proportions(table)
        odds_form = (p / (1.0 - p)) / (q / (1.0 - q))
        assert estimate_odds_ratio(table).odds_ratio == pytest.approx(
            odds_form, rel=1e-12, abs=0
        )

    def test_t_examples(self):
        t = t_statistic(TwoByTwoTable(20, 10, 10, 20))
        assert abs(t - 2.531015) < 1e-5
        assert abs(t - 2.531015643091923) < 1e-12
        assert t_statistic(TwoByTwoTable(5, 5, 5, 5)) == 0.0
        t_lopsided = t_statistic(TwoByTwoTable(9, 1, 1, 9))
        assert abs(t_lopsided - math.log(81.0) / math.sqrt(1 / 9 + 1 + 1 + 1 / 9)) < 1e-12
        assert abs(t_lopsided - 2.948) < 1e-3

    def test_corrected_t(self):
        t = t_statistic(TwoByTwoTable(10, 0, 5, 5), correction=True)
        expected = math.log(21.0) / math.sqrt(1 / 10.5 + 1 / 0.5 + 1 / 5.5 + 1 / 5.5)
        assert t == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "counts,plain,corrected",
        [
            # Frozen on CPython 3.11.  From 3.12 ``sum`` of floats is
            # compensated, which moves the last bit of all six tables (the
            # first without correction only), so the reciprocals must be added
            # left to right.
            ((20, 10, 10, 20), "0x1.43f852125f428p+1", "0x1.3f227c03f4637p+1"),
            ((24, 44, 48, 53), "-0x1.9251c81195a20p+0", "-0x1.8e929af30c4c7p+0"),
            ((16, 58, 52, 32), "-0x1.3a82a798d3736p+2", "-0x1.38c9e93e2fbb8p+2"),
            ((54, 1, 20, 1), "0x1.6196f674aee26p-1", "0x1.a708442c24cf3p-1"),
            ((5, 3, 28, 13), "-0x1.46b598e7ad6ddp-2", "-0x1.8e184884f8bddp-2"),
            ((32, 58, 1, 48), "0x1.95919c85632bdp+1", "0x1.af301925dcd5dp+1"),
        ],
    )
    def test_t_bits_are_the_same_on_every_python(self, counts, plain, corrected):
        table = TwoByTwoTable(*counts)
        assert t_statistic(table).hex() == plain
        assert t_statistic(table, correction=True).hex() == corrected

    @given(positive_tables)
    def test_t_dual_form(self, table):
        p, q, w, total = estimate_proportions(table)
        factored = (
            math.sqrt(total)
            * estimate_odds_ratio(table).log_odds
            / math.sqrt(sigma2_by_prevalence(w, p, q))
        )
        assert t_statistic(table) == pytest.approx(factored, rel=1e-12, abs=1e-300)


class TestParamTypes:
    @pytest.mark.parametrize("value", [0.0, 1.0, -0.2, 1.7, math.nan])
    def test_cohort_rejects_boundary(self, value):
        with pytest.raises(DomainError):
            CohortParams(value, 0.5, 0.5)
        with pytest.raises(DomainError):
            RiskParams(0.5, value, 0.5)

    def test_effect_summary_construction_invariants(self):
        with pytest.raises(DomainError):
            EffectSummary(
                odds_ratio=4.0,
                risk_ratio=2.0,
                log_odds=1.5,
                sigma=18.0,
                standardized=1.5 / 18.0,
            )
        with pytest.raises(DomainError):
            EffectSummary(
                odds_ratio=200.0,
                risk_ratio=10.0,
                log_odds=math.log(200.0),
                sigma=1.0,
                standardized=math.log(200.0),
            )
        with pytest.raises(DomainError):
            EffectSummary(
                odds_ratio=-1.0,
                risk_ratio=1.0,
                log_odds=0.0,
                sigma=1.0,
                standardized=0.0,
            )


class TestConversions:
    def test_cohort_to_risk_examples(self):
        risks = cohort_to_risk(CohortParams(2.0 / 3.0, 1.0 / 3.0, 0.5))
        assert risks.risk_exposed == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert risks.risk_unexposed == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert risks.exposure == 0.5

        independent = cohort_to_risk(CohortParams(0.3, 0.3, 0.1))
        assert independent.risk_exposed == pytest.approx(0.1, abs=1e-15)
        assert independent.risk_unexposed == pytest.approx(0.1, abs=1e-15)
        assert independent.exposure == pytest.approx(0.3, abs=1e-15)

        spread = cohort_to_risk(CohortParams(0.9, 0.1, 0.5))
        assert spread.exposure == 0.5
        assert spread.risk_exposed == pytest.approx(0.9, abs=1e-15)
        assert spread.risk_unexposed == pytest.approx(0.1, abs=1e-15)

    def test_risk_to_cohort_examples(self):
        cohort = risk_to_cohort(RiskParams(2.0 / 3.0, 1.0 / 3.0, 0.5))
        assert cohort.exposure_cases == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert cohort.exposure_controls == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert cohort.prevalence == 0.5

        independent = risk_to_cohort(RiskParams(0.1, 0.1, 0.3))
        assert independent.exposure_cases == pytest.approx(0.3, abs=1e-15)
        assert independent.exposure_controls == pytest.approx(0.3, abs=1e-15)
        assert independent.prevalence == pytest.approx(0.1, abs=1e-15)

    def test_mix_underflowing_to_zero(self):
        # Both halves of the mix round to 0.0, so the derived probability
        # would divide by zero.
        with pytest.raises(InconsistentParams, match="derived exposure 0.0"):
            cohort_to_risk(CohortParams(5e-324, 5e-324, 0.5))
        with pytest.raises(InconsistentParams, match="derived prevalence 0.0"):
            risk_to_cohort(RiskParams(5e-324, 5e-324, 0.5))

    def test_derived_risk_rounding_to_one(self):
        # risk_exposed = 1 - 2.2e-162 rounds to 1.0; the error names it as
        # derived, not as an input.
        cohort = CohortParams(0.5, 5e-324, 4.445517498970155e-162)
        with pytest.raises(InconsistentParams, match=r"^derived risk_exposed 1\.0 "):
            cohort_to_risk(cohort)

    @pytest.mark.parametrize(
        "risk,message",
        [
            # exposure_cases = 1 / (1 + 1e-100) rounds to 1.0.
            (RiskParams(1e-200, 1e-300, 0.5), "derived exposure_cases 1.0 "),
            # exposure_controls = 1/(1 + 0.3 * 2**-53/(1 - 2**-53)) rounds to 1.0.
            (RiskParams(1e-300, 0.7, 0.9999999999999999), "derived exposure_controls 1.0 "),
        ],
    )
    def test_derived_exposure_rounding_to_one(self, risk, message):
        with pytest.raises(InconsistentParams) as excinfo:
            risk_to_cohort(risk)
        assert str(excinfo.value) == message + "falls outside (0, 1)"

    # Each rounding is at most 2**-53 relative, and a product below 2**-1022
    # is also off by up to half a step of 2**-1074.  The mix's terms round once
    # (w*a) and twice (1 - w, then *b), and their positive sum once: 3.  A
    # share x*y/(x*y + u*v) whose products are off by e1 and e2 is off by
    # (1 - share)*(e1 - e2), plus the sum's rounding and the quotient's: its
    # products round 1 and 2 times in the first share (w*a; 1 - w and its
    # product), 2 and 3 in the second (1 - a and its product; 1 - w, 1 - b and
    # theirs).  The scaled products are normal wherever the share is above
    # 2**-1075.
    BAYES_MAP_ROUNDINGS = (5, 7, 3)

    @pytest.mark.parametrize(
        "bayes_map,inputs,outputs",
        [(cohort_to_risk, CohortParams, RiskParams), (risk_to_cohort, RiskParams, CohortParams)],
    )
    @given(triple=PROBABILITY_TRIPLES)
    @example(triple=(5e-324, 1e-323, 0.3))
    @example(triple=(0.4, 0.99999999999999, 0.001))
    @example(triple=(3.392012137145698e-164, 0.9999999999999999, 6.460633738966007e-16))
    @example(triple=(0.667, 0.9999999999999999, 0.9999999999999999))
    def test_bayes_map_against_exact_values(self, bayes_map, inputs, outputs, triple):
        # A refused output is the double it rounded to, 0.0 or 1.0, and must
        # be as close to its exact value as an answered one.
        names = outputs.__match_args__
        references = dict(zip(names, exact.bayes_map(*triple)))
        roundings = dict(zip(names, self.BAYES_MAP_ROUNDINGS))
        try:
            got = bayes_map(inputs(*triple)).__dict__
        except InconsistentParams as error:
            refused = re.fullmatch(r"derived (\w+) (\S+) falls outside \(0, 1\)", str(error))
            got = {refused[1]: float(refused[2])}
        for name, value in got.items():
            assert exact.within(value, references[name], roundings[name]), name

    @given(probs, probs, probs)
    @example(0.625, 0.03125, 0.9989999999999999)
    def test_round_trip(self, risk_exposed, risk_unexposed, exposure):
        # Each value x the round trip forms 1 - x of amplifies a relative
        # error by x/(1 - x), so the tolerance scales with
        # kappa = 1 + sum x/(1 - x) over the cohort's three values and the
        # input exposure.  Over 800,000 uniform and edge-weighted draws in
        # [0.001, 0.999] the worst error was 3.9 * 2**-53 * kappa.
        start = RiskParams(risk_exposed, risk_unexposed, exposure)
        cohort = risk_to_cohort(start)
        back = cohort_to_risk(cohort)
        values = (cohort.exposure_cases, cohort.exposure_controls, cohort.prevalence, exposure)
        kappa = 1.0 + sum(x / (1.0 - x) for x in values)
        rel = 8 * 2.0**-53 * kappa
        assert back.risk_exposed == pytest.approx(start.risk_exposed, rel=rel, abs=0)
        assert back.risk_unexposed == pytest.approx(start.risk_unexposed, rel=rel, abs=0)
        assert back.exposure == pytest.approx(start.exposure, rel=rel, abs=0)

    def test_ratio_examples(self):
        assert odds_and_risk_ratio(RiskParams(0.5, 0.2, 0.7)) == (4.0, 2.5)
        ratios = odds_and_risk_ratio(RiskParams(0.3, 0.3, 0.1))
        assert ratios.odds_ratio == 1.0
        assert ratios.risk_ratio == 1.0
        peak = odds_and_risk_ratio(RiskParams(0.916778, 0.083222, 0.5))
        assert abs(peak.odds_ratio - 121.354) < 1e-2
        assert abs(peak.odds_ratio - 121.35343355609976) < 1e-10
        assert abs(peak.risk_ratio - 11.016) < 1e-3
        assert abs(peak.risk_ratio - 11.016053447405733) < 1e-12

    @given(probs, probs, probs)
    def test_odds_ratio_design_invariance(self, p, q, w):
        cohort = CohortParams(p, q, w)
        from_cohort = (p / (1.0 - p)) / (q / (1.0 - q))
        from_risk = odds_and_risk_ratio(cohort_to_risk(cohort)).odds_ratio
        assert from_risk == pytest.approx(from_cohort, rel=1e-12)
