"""Each shared argument rule has one implementation and one wording.

The rules used by more than one module live in `keplor.errors`; this table
maps every public entry point that applies one to the exact exception type
and message it raises, so a copy of a rule that drifts shows up here.
"""

import json
import math
import sys

import pytest

from keplor import bayes_prior, cli, contingency, effect_bounds, errors, kepler, numerics
from keplor.contingency import CohortParams, EffectSummary, RiskParams, TwoByTwoTable
from keplor.errors import DomainError, InconsistentParams, NoConvergence
from keplor.kepler import KeplerProblem
from keplor.numerics import Bracket, RootResult, find_root

PROBLEM = KeplerProblem(1.0, 0.5)
SUMMARY = {
    "odds_ratio": 2.0,
    "risk_ratio": 1.5,
    "log_odds": math.log(2.0),
    "sigma": 4.0,
    "standardized": math.log(2.0) / 4.0,
}
# 4,301 digits: one past the interpreter's default integer-string limit.
BIG = "1" * 4301


def _summary(**change):
    return EffectSummary(**{**SUMMARY, **change})


CASES = [
    # bayes_prior
    (
        lambda: bayes_prior.PriorSpec(2.0, 0.025, 1.0, math.inf),
        DomainError,
        "prior_variance must be positive and finite, got inf",
    ),
    (
        lambda: bayes_prior.p_to_z(0.0),
        DomainError,
        "p_value must lie strictly inside (0, 1), got 0.0",
    ),
    (
        lambda: bayes_prior.p_to_z(math.nan),
        DomainError,
        "p_value must lie strictly inside (0, 1), got nan",
    ),
    (lambda: bayes_prior.z_to_p(-math.inf), DomainError, "z must be finite, got -inf"),
    (
        lambda: bayes_prior.flattest_prior(2.0, 0.025, 0.0),
        DomainError,
        "assumed_sigma must be positive and finite, got 0.0",
    ),
    (
        lambda: bayes_prior.prevalence_pathway(math.inf, 0.5),
        DomainError,
        "odds_ratio must be positive and finite, got inf",
    ),
    (
        lambda: bayes_prior.prevalence_pathway(2.0, 1.0),
        DomainError,
        "risk_exposed must lie strictly inside (0, 1), got 1.0",
    ),
    (
        lambda: bayes_prior.prevalence_pathway(1e308, 1e-300),
        InconsistentParams,
        "derived risk_unexposed 0.0 falls outside (0, 1)",
    ),
    # kepler
    (
        lambda: KeplerProblem(math.nan, 0.5),
        DomainError,
        "mean_anomaly must be finite, got nan",
    ),
    (
        lambda: kepler.mean_anomaly(math.inf, 0.5),
        DomainError,
        "eccentric_anomaly must be finite, got inf",
    ),
    (
        lambda: kepler.kepler_solve(PROBLEM, tol=0.0),
        DomainError,
        "tol must be positive and finite, got 0.0",
    ),
    (
        lambda: kepler.kepler_series(PROBLEM, 0),
        DomainError,
        "order must be a positive integer, got 0",
    ),
    (
        lambda: kepler.kepler_series(PROBLEM, 2.0),
        DomainError,
        "order must be a positive integer, got 2.0",
    ),
    (
        lambda: kepler.series_partial_sums(PROBLEM, True),
        DomainError,
        "order must be a positive integer, got True",
    ),
    # numerics
    (
        lambda: find_root(math.sin, Bracket(3.0, 4.0), tol=math.nan, fprime=math.cos),
        DomainError,
        "tol must be positive and finite, got nan",
    ),
    (
        lambda: numerics.normal_quantile(1.0),
        DomainError,
        "p must lie strictly inside (0, 1), got 1.0",
    ),
    # effect_bounds
    (
        lambda: effect_bounds.verify_bound(0, 1),
        DomainError,
        "n_samples must be a positive integer, got 0",
    ),
    (
        lambda: effect_bounds.verify_bound(10, -1),
        DomainError,
        "seed must be a non-negative integer, got -1",
    ),
    (
        lambda: effect_bounds.verify_bound(10, 1.0),
        DomainError,
        "seed must be a non-negative integer, got 1.0",
    ),
    (
        lambda: effect_bounds.max_standardized_effect(-1.0),
        DomainError,
        "odds_ratio must be positive and finite, got -1.0",
    ),
    (
        lambda: effect_bounds.min_variance_exposure(math.inf, 2.0),
        DomainError,
        "risk_ratio must be positive and finite, got inf",
    ),
    (
        lambda: effect_bounds.optimal_risk(0.0),
        DomainError,
        "odds_ratio must be positive and finite, got 0.0",
    ),
    (
        lambda: effect_bounds.sigma2_by_prevalence(1.5, 0.3, 0.2),
        DomainError,
        "prevalence must lie strictly inside (0, 1), got 1.5",
    ),
    # contingency
    (
        lambda: TwoByTwoTable(1.5, 1, 1, 1),
        DomainError,
        "n11 must be a non-negative integer, got 1.5",
    ),
    (
        lambda: TwoByTwoTable(1, -1, 1, 1),
        DomainError,
        "n12 must be a non-negative integer, got -1",
    ),
    (
        lambda: TwoByTwoTable(1, 1, True, 1),
        DomainError,
        "n21 must be a non-negative integer, got True",
    ),
    (
        lambda: TwoByTwoTable.from_text("1,2,3,x"),
        DomainError,
        "count 'x' is not an integer",
    ),
    (
        lambda: CohortParams(0.0, 0.2, 0.1),
        DomainError,
        "exposure_cases must lie strictly inside (0, 1), got 0.0",
    ),
    (
        lambda: RiskParams(0.3, 0.2, 1.0),
        DomainError,
        "exposure must lie strictly inside (0, 1), got 1.0",
    ),
    (
        lambda: contingency.cohort_to_risk(CohortParams(1e-300, 1e-10, 1e-300)),
        InconsistentParams,
        "derived risk_exposed 0.0 falls outside (0, 1)",
    ),
    (
        lambda: _summary(sigma=0.0),
        DomainError,
        "sigma must be positive and finite, got 0.0",
    ),
    (
        lambda: _summary(risk_ratio=math.nan),
        DomainError,
        "risk_ratio must be positive and finite, got nan",
    ),
    (
        lambda: _summary(standardized=0.1),
        DomainError,
        "standardized must equal log_odds/sigma by construction",
    ),
]


@pytest.mark.parametrize("call,kind,message", CASES, ids=[case[2] for case in CASES])
def test_entry_point_raises_the_one_wording(call, kind, message):
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message


STALL_MESSAGE = (
    "kepler solve stalled at m=9.745184020660258, eccentricity=0.5325636340885271, "
    "tol=5e-324"
)


@pytest.mark.parametrize(
    "command,message",
    [
        ("bounds --or 0", "odds_ratio must be positive and finite, got 0.0"),
        ("bounds --or 4 --rr 0", "risk_ratio must be positive and finite, got 0.0"),
        ("bounds --p 0 --q 0.5", "--p must lie strictly inside (0, 1), got 0.0"),
        ("bounds --p 0.5 --q nan", "--q must lie strictly inside (0, 1), got nan"),
        ("kepler solve --m 1 --eps 0.5 --tol 0", "tol must be positive and finite, got 0.0"),
        (
            "kepler diverge-table --m 1 --eps 0.5 --max-order 3 --tol -1",
            "tol must be positive and finite, got -1.0",
        ),
        (
            "prior flattest --or-threshold 2 --tail-mass 0.025 --sigma 0",
            "assumed_sigma must be positive and finite, got 0.0",
        ),
        (
            "prior flattest --or-threshold 1e300 --tail-mass 0.4 --sigma 1e-300",
            "derived prior_variance inf falls outside (0, inf)",
        ),
        (
            "prior wm-pathway --or 0 --risk-exposed 0.5",
            "odds_ratio must be positive and finite, got 0.0",
        ),
        (
            "prior wm-pathway --or 2 --risk-exposed 1",
            "risk_exposed must lie strictly inside (0, 1), got 1.0",
        ),
        ("pz --p 1.5", "p_value must lie strictly inside (0, 1), got 1.5"),
        ("verify --samples 0 --seed 1", "n_samples must be a positive integer, got 0"),
        (
            "kepler solve --m 9.745184020660258 --eps 0.5325636340885271 --tol 5e-324",
            STALL_MESSAGE,
        ),
    ],
)
def test_cli_error_envelope_carries_the_one_wording(capsys, command, message):
    code = cli.run(command.split())
    out = capsys.readouterr()
    assert (code, out.err) == (1, "")
    envelope = json.loads(out.out)
    assert (envelope["status"], envelope["results"]) == ("error", {})
    assert envelope["error_message"] == message


def test_table_file_count_is_checked_by_the_record(capsys, tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("-1,2,3,4\n")
    assert cli.run(["table", "--file", str(path)]) == 1
    message = json.loads(capsys.readouterr().out)["error_message"]
    assert message == "n11 must be a non-negative integer, got -1"


@pytest.mark.parametrize(
    "name",
    [
        "_check_probability", "_check_derived", "_check_positive", "_check_finite",
        "_check_integer", "_split_counts", "_parse_count",
    ],
)
def test_each_shared_rule_is_defined_once(name):
    shared = getattr(errors, name)
    for module in (numerics, contingency, effect_bounds, kepler, bayes_prior, cli):
        assert getattr(module, name, shared) is shared, module.__name__


class TestUnreachedBranches:
    def test_find_root_returns_a_zero_upper_endpoint(self):
        result = find_root(lambda x: x - 2.0, Bracket(1.0, 2.0), fprime=lambda x: 1.0)
        assert result == RootResult(2.0, 0.0, 0)

    def test_find_root_stops_on_the_bracket_width(self):
        # A jump never brings |f| under tol; with a zero slope every step
        # bisects, so 20 halvings bring the width of [0, 1] below 1e-6.
        def step(x):
            return -1.0 if x < 1.0 / 3.0 else 1.0

        result = find_root(step, Bracket(0.0, 1.0), tol=1e-6, fprime=lambda x: 0.0)
        assert result == RootResult(0.33333301544189453, 1.0, 20)


class TestStalledKeplerSolve:
    def test_library_error_names_the_callers_mean_anomaly(self):
        problem = KeplerProblem(9.745184020660258, 0.5325636340885271)
        with pytest.raises(NoConvergence) as info:
            kepler.kepler_solve(problem, tol=5e-324)
        assert str(info.value) == STALL_MESSAGE


class TestCountsPastTheDigitLimit:
    def test_cli_counts_is_a_usage_error_naming_the_digit_count(self, capsys):
        assert cli.run(["table", "--counts", f"{BIG},1,1,1"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.endswith(
            "error: argument --counts: a count of 4,301 digits exceeds the "
            "double-precision range\n"
        )
        assert BIG not in out.err

    def test_table_file_is_a_domain_error_naming_the_digit_count(self, capsys, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text(f"1,1,{BIG},1\n")
        assert cli.run(["table", "--file", str(path)]) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error_message"] == (
            "a count of 4,301 digits exceeds the double-precision range"
        )

    def test_from_text_raises_domain_error(self):
        with pytest.raises(DomainError) as info:
            TwoByTwoTable.from_text(f"{BIG},1,1,1")
        assert type(info.value) is DomainError
        assert str(info.value) == "a count of 4,301 digits exceeds the double-precision range"

    @pytest.mark.parametrize("source", ["counts", "file"])
    def test_4300_digits_keep_the_estimator_envelope(self, capsys, tmp_path, source):
        counts = f"{'1' * 4300},1,1,1"
        path = tmp_path / "table.txt"
        path.write_text(counts + "\n")
        argv = ["--counts", counts] if source == "counts" else ["--file", str(path)]
        assert cli.run(["table", *argv]) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error_message"] == "a count exceeds the double-precision range"

    def test_leading_zeros_do_not_count_towards_the_value(self):
        table = TwoByTwoTable.from_text(f"{'0' * 4301}7,1,-{'0' * 4301},1")
        assert table.cells() == (7, 1, 0, 1)

    def test_a_non_integer_past_the_limit_is_still_named_as_such(self):
        with pytest.raises(DomainError, match="is not an integer"):
            TwoByTwoTable.from_text(f"{BIG}x,1,1,1")

    def test_without_a_digit_limit_the_count_is_read(self):
        # Interpreters before 3.10.7 have no limit, so int() reads the count.
        previous = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
        set_limit(0)
        try:
            assert TwoByTwoTable.from_text(f"{BIG},1,1,1").n11 == int(BIG)
        finally:
            set_limit(previous)
