"""Every validated record shares one frozen contract.

The reprs are frozen from the dataclass implementation the records replaced,
so the text users see in logs and tracebacks stays the same.
"""

import pytest

from keplor import (
    BoundConstants,
    Bracket,
    CohortParams,
    EffectSummary,
    KeplerProblem,
    KeplerSolution,
    PriorSpec,
    RiskParams,
    RootResult,
    TwoByTwoTable,
    VerificationReport,
)
from keplor.errors import _Record

RISK = RiskParams(0.3, 0.2, 0.5)

RECORDS = [
    (
        TwoByTwoTable,
        {"n11": 10, "n12": 20, "n21": 30, "n22": 40},
        "TwoByTwoTable(n11=10, n12=20, n21=30, n22=40)",
    ),
    (
        CohortParams,
        {"exposure_cases": 0.3, "exposure_controls": 0.2, "prevalence": 0.1},
        "CohortParams(exposure_cases=0.3, exposure_controls=0.2, prevalence=0.1)",
    ),
    (
        RiskParams,
        {"risk_exposed": 0.3, "risk_unexposed": 0.2, "exposure": 0.5},
        "RiskParams(risk_exposed=0.3, risk_unexposed=0.2, exposure=0.5)",
    ),
    (
        EffectSummary,
        {
            "odds_ratio": 1.7142857142857144,
            "risk_ratio": 1.4999999999999998,
            "log_odds": 0.5389965007326871,
            "sigma": 4.692953177244529,
            "standardized": 0.11485230735865966,
        },
        "EffectSummary(odds_ratio=1.7142857142857144, risk_ratio=1.4999999999999998, "
        "log_odds=0.5389965007326871, sigma=4.692953177244529, "
        "standardized=0.11485230735865966)",
    ),
    (Bracket, {"lo": 1.0, "hi": 1.5}, "Bracket(lo=1.0, hi=1.5)"),
    (
        RootResult,
        {"root": 1.1996786402577337, "residual": 2.220446049250313e-16, "iterations": 5},
        "RootResult(root=1.1996786402577337, residual=2.220446049250313e-16, "
        "iterations=5)",
    ),
    (
        KeplerProblem,
        {"mean_anomaly": 1.0, "eccentricity": 0.3},
        "KeplerProblem(mean_anomaly=1.0, eccentricity=0.3)",
    ),
    (
        KeplerSolution,
        {
            "eccentric_anomaly": 1.3,
            "residual": 1e-13,
            "method": "newton",
            "iterations_or_order": 4,
        },
        "KeplerSolution(eccentric_anomaly=1.3, residual=1e-13, method='newton', "
        "iterations_or_order=4)",
    ),
    (
        BoundConstants,
        {
            "tanh_root": 1.1996786402577369,
            "peak_log_or": 4.798714561030947,
            "peak_or": 121.3543236389819,
            "laplace_limit": 0.6627434193491816,
            "peak_risk": 0.9167782798004813,
        },
        "BoundConstants(tanh_root=1.1996786402577369, peak_log_or=4.798714561030947, "
        "peak_or=121.3543236389819, laplace_limit=0.6627434193491816, "
        "peak_risk=0.9167782798004813)",
    ),
    (
        VerificationReport,
        {
            "samples": 10,
            "max_gamma_observed": 0.5,
            "arg_max": RISK,
            "violations": 0,
            "bound": 0.6627434193491816,
        },
        "VerificationReport(samples=10, max_gamma_observed=0.5, "
        "arg_max=RiskParams(risk_exposed=0.3, risk_unexposed=0.2, exposure=0.5), "
        "violations=0, bound=0.6627434193491816)",
    ),
    (
        PriorSpec,
        {"or_threshold": 2.0, "tail_mass": 0.025, "assumed_sigma": 1.0, "prior_variance": 0.25},
        "PriorSpec(or_threshold=2.0, tail_mass=0.025, assumed_sigma=1.0, "
        "prior_variance=0.25)",
    ),
]


@pytest.mark.parametrize(
    "cls,fields,expected_repr", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS]
)
def test_record_contract(cls, fields, expected_repr):
    values = tuple(fields.values())
    by_keyword = cls(**fields)
    by_position = cls(*values)
    for record in (by_keyword, by_position):
        assert list(vars(record)) == list(fields)
        for name, value in fields.items():
            assert vars(record)[name] is value
            assert getattr(record, name) is value
    assert cls.__match_args__ == tuple(fields)

    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(by_keyword, name, values[0])
    with pytest.raises(AttributeError):
        delattr(by_keyword, name)
    with pytest.raises(AttributeError):
        by_keyword.extra = 1
    assert getattr(by_keyword, name) == values[0]

    assert by_keyword == by_position
    assert not by_keyword != by_position
    assert hash(by_keyword) == hash(by_position) == hash(values)
    assert by_keyword != values
    assert values != by_keyword

    assert repr(by_keyword) == expected_repr


def test_equality_needs_the_same_class():
    class Interval(_Record):
        lo: float
        hi: float

    # Same field names and values, another class.
    assert Interval(1.0, 1.5) != Bracket(1.0, 1.5)
    assert Bracket(1.0, 1.5) != Interval(1.0, 1.5)
    assert RiskParams(0.3, 0.2, 0.5) != RiskParams(0.3, 0.2, 0.25)
    assert len({RiskParams(0.3, 0.2, 0.5), RISK}) == 1


def test_a_field_may_share_the_name_of_the_generated_local():
    # The generated __init__ holds the instance dict in a local named "_d",
    # or with more underscores where a field takes that name.
    class Shadowed(_Record):
        _d: int
        _d_: int
        rest: int

    record = Shadowed(1, 2, rest=3)
    assert vars(record) == {"_d": 1, "_d_": 2, "rest": 3}
    assert repr(record).endswith(".Shadowed(_d=1, _d_=2, rest=3)")
