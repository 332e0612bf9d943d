"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints the measured quantities it judged so a failing run
shows the full picture without re-running anything by hand.
"""

import json
import math
import pathlib
import time

import numpy as np
import pytest

from goldens import GOLDENS
from keplor.bayes_prior import flattest_prior
from keplor.cli import run
from keplor.contingency import TwoByTwoTable, t_statistic
from keplor.effect_bounds import (
    bound_constants,
    bound_curve,
    max_standardized_effect,
    min_variance_exposure,
    min_variance_prevalence,
    optimal_risk,
    sigma2_by_exposure,
    sigma2_by_prevalence,
    standardized_effect,
    verify_bound,
)
from keplor.kepler import KeplerProblem, kepler_series, kepler_solve, mean_anomaly, series_radius
from keplor.numerics import normal_quantile

GOLDEN = pathlib.Path(__file__).parent / "golden"

# Exact partial sums of the Kepler series at M=pi/2, eps=0.6, keyed by order:
# 60-digit evaluations rounded once to double.
SERIES_QUARTER_TURN_06 = {30: 2.091449821373805, 64: 2.0913276387951236}


def test_criterion_01_reference_constants():
    constants = bound_constants()
    checks = [
        ("tanh_root", constants.tanh_root, 1.19967864, 1e-8),
        ("peak_log_or", constants.peak_log_or, 4.7987, 1e-4),
        ("peak_or", constants.peak_or, 121.354, 1e-3),
        ("laplace_limit", constants.laplace_limit, 0.6627, 1e-4),
        ("peak_risk", constants.peak_risk, 0.9167782798, 1e-9),
    ]
    for name, got, want, tol in checks:
        print(f"{name}: computed={got!r} reference={want} |diff|={abs(got - want):.3e} tol={tol}")
        assert abs(got - want) <= tol, name


def test_criterion_02_series_radius_equals_bound_peak():
    radius = series_radius()
    peak = bound_constants().laplace_limit
    print(f"series_radius={radius!r} bound_peak={peak!r} |diff|={abs(radius - peak):.3e}")
    assert abs(radius - peak) < 1e-14


def test_criterion_03_randomized_bound_verification():
    start = time.perf_counter()
    report = verify_bound(10**6, 42)
    elapsed = time.perf_counter() - start
    gap = report.bound - report.max_gamma_observed
    print(
        f"samples={report.samples} violations={report.violations} "
        f"max_gamma={report.max_gamma_observed!r} gap_to_bound={gap:.3e} "
        f"elapsed={elapsed:.2f}s"
    )
    assert report.violations == 0
    assert gap < 1e-3
    assert elapsed < 60.0


def test_criterion_04_consistency_triangle():
    rng = np.random.default_rng(2024)
    log_ors = rng.uniform(-10.0, 10.0, size=10**4)
    worst_curve = 0.0
    worst_attain = 0.0
    for log_or in log_ors:
        odds_ratio = math.exp(float(log_or))
        ceiling = max_standardized_effect(odds_ratio)
        worst_curve = max(worst_curve, abs(ceiling - bound_curve(float(log_or))))
        attained = standardized_effect(optimal_risk(odds_ratio))
        worst_attain = max(worst_attain, abs(ceiling - attained))
    print(f"n=10^4 worst|ceiling-curve|={worst_curve:.3e} worst|ceiling-attained|={worst_attain:.3e}")
    assert worst_curve < 1e-13
    assert worst_attain < 1e-12


def test_criterion_05_minimizer_certificates():
    rng = np.random.default_rng(77)
    h = 1e-6
    grid = np.linspace(0.01, 0.99, 99)
    worst_slope_w = 0.0
    worst_slope_v = 0.0
    for _ in range(10**3):
        p, q = rng.uniform(0.001, 0.999, size=2)
        p, q = float(p), float(q)

        w_best = min_variance_prevalence(p, q)
        sigma_w = lambda w: math.sqrt(sigma2_by_prevalence(w, p, q))
        slope = (sigma_w(w_best + h) - sigma_w(w_best - h)) / (2.0 * h)
        worst_slope_w = max(worst_slope_w, abs(slope))
        best = sigma2_by_prevalence(w_best, p, q)
        assert all(best <= sigma2_by_prevalence(float(w), p, q) * (1 + 1e-12) for w in grid)

        odds_ratio = (p / (1.0 - p)) / (q / (1.0 - q))
        v_best = min_variance_exposure(p / q, odds_ratio)
        sigma_v = lambda v: math.sqrt(sigma2_by_exposure(v, p, q))
        slope = (sigma_v(v_best + h) - sigma_v(v_best - h)) / (2.0 * h)
        worst_slope_v = max(worst_slope_v, abs(slope))
        best = sigma2_by_exposure(v_best, p, q)
        assert all(best <= sigma2_by_exposure(float(v), p, q) * (1 + 1e-12) for v in grid)
    print(f"n=10^3 worst|dsigma/dw|={worst_slope_w:.3e} worst|dsigma/dv|={worst_slope_v:.3e}")
    assert worst_slope_w < 1e-6
    assert worst_slope_v < 1e-6


def test_criterion_06_solver_grid():
    worst_residual = 0.0
    worst_roundtrip = 0.0
    non_newton = 0
    eccentricities = [round(0.05 * k, 2) for k in range(20)] + [0.99]
    anomalies = list(np.linspace(0.0, math.pi, 64))
    for ecc in eccentricities:
        for m in anomalies:
            solution = kepler_solve(KeplerProblem(float(m), ecc))
            worst_residual = max(worst_residual, solution.residual)
            recovered = mean_anomaly(solution.eccentric_anomaly, ecc)
            worst_roundtrip = max(worst_roundtrip, abs(recovered - float(m)))
            if solution.method != "newton":
                non_newton += 1
    print(
        f"grid={len(eccentricities)}x{len(anomalies)} worst_residual={worst_residual:.3e} "
        f"worst_roundtrip={worst_roundtrip:.3e} non_newton={non_newton}"
    )
    assert worst_residual < 1e-12
    assert worst_roundtrip < 1e-11
    assert non_newton == 0


def test_criterion_07_series_convergence_boundary():
    m = math.pi / 2.0

    def series_error(ecc, order):
        truth = kepler_solve(KeplerProblem(m, ecc)).eccentric_anomaly
        approx = kepler_series(KeplerProblem(m, ecc), order).eccentric_anomaly
        return abs(approx - truth)

    low_error = series_error(0.3, 30)
    print(f"eps=0.3 order=30 |series-newton|={low_error:.3e} (tol 1e-8)")
    assert low_error < 1e-8

    divergent_errors = [series_error(0.8, order) for order in range(1, 41)]
    best = min(divergent_errors)
    non_monotone = any(a < b for a, b in zip(divergent_errors, divergent_errors[1:]))
    print(
        f"eps=0.8 orders 1..40: min_error={best:.3e} at order "
        f"{divergent_errors.index(best) + 1}, final_error={divergent_errors[-1]:.3e}, "
        f"non_monotone={non_monotone}"
    )
    assert non_monotone
    assert divergent_errors[-1] > 10.0 * best

    # Just inside the Laplace limit the series converges, but slowly: the
    # exact truncation is still ~1.2e-4 off the root at order 30 and ~1.3e-6
    # at the order-64 cap.  So this leg pins the partial sums themselves and
    # checks that the error only ever shrinks.
    mid_problem = KeplerProblem(m, 0.6)
    partial_gaps = {
        order: abs(kepler_series(mid_problem, order).eccentric_anomaly - exact)
        for order, exact in SERIES_QUARTER_TURN_06.items()
    }
    mid_errors = [series_error(0.6, order) for order in range(1, 65)]
    monotone = all(b <= a for a, b in zip(mid_errors, mid_errors[1:]))
    print(
        "eps=0.6 "
        + ", ".join(
            f"order={order} |series-exact_partial_sum|={gap:.3e} (tol 1e-14)"
            for order, gap in partial_gaps.items()
        )
        + f"; |series-newton| order=30 {mid_errors[29]:.3e}, order=64 "
        f"{mid_errors[63]:.3e}, non_increasing over 1..64={monotone}"
    )
    for gap in partial_gaps.values():
        assert gap < 1e-14
    assert monotone


def test_criterion_08_t_statistic_dual_forms():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10**4):
        n11, n12, n21, n22 = (int(v) for v in rng.integers(1, 500, size=4))
        table = TwoByTwoTable(n11, n12, n21, n22)
        direct = t_statistic(table)

        cases = n11 + n12
        controls = n21 + n22
        total = cases + controls
        p_hat = n11 / cases
        q_hat = n21 / controls
        w_hat = cases / total
        mu_hat = math.log((p_hat / (1 - p_hat)) / (q_hat / (1 - q_hat)))
        sigma_hat = math.sqrt(sigma2_by_prevalence(w_hat, p_hat, q_hat))
        dual = math.sqrt(total) * mu_hat / sigma_hat

        if direct != 0.0:
            worst = max(worst, abs(direct - dual) / abs(direct))
    print(f"n=10^4 worst relative gap between forms={worst:.3e}")
    assert worst < 1e-12

    hand = t_statistic(TwoByTwoTable(20, 10, 10, 20))
    by_hand = math.log((20 * 20) / (10 * 10)) / math.sqrt(1 / 20 + 1 / 10 + 1 / 10 + 1 / 20)
    print(f"hand case (20,10,10,20): t={hand!r} independent={by_hand!r}")
    assert abs(hand - 2.531015) < 1e-5
    assert abs(hand - by_hand) < 1e-12


def test_criterion_09_prior_arithmetic():
    llc = bound_constants().laplace_limit
    spec = flattest_prior(2.0, 0.025, math.log(2.0) / llc)
    oracle = (llc / normal_quantile(0.975)) ** 2
    print(
        f"prior_variance={spec.prior_variance!r} oracle={oracle!r} "
        f"|diff to 0.114339|={abs(spec.prior_variance - 0.114339):.3e}"
    )
    assert abs(spec.prior_variance - 0.114339) < 1e-5
    assert spec.prior_variance == pytest.approx(oracle, rel=1e-12, abs=0)

    quartered = 0
    for scale in [0.1, 0.5, 1.0, 2.0, 7.25, 100.0]:
        base = flattest_prior(2.0, 0.025, scale).prior_variance
        doubled = flattest_prior(2.0, 0.025, 2.0 * scale).prior_variance
        if doubled == base / 4.0:
            quartered += 1
    print(f"doubling assumed sigma quartered the variance exactly in {quartered}/6 cases")
    assert quartered == 6


def test_criterion_10_cli_contract(capsys):
    for name, argv in GOLDENS.items():
        code = run(argv)
        out = capsys.readouterr().out
        expected = (GOLDEN / name).read_text()
        assert code == 0, name
        assert out == expected, name
        if name.endswith(".json"):
            assert json.loads(out)["status"] == "ok"
        else:
            assert out.splitlines()[1] == "status=ok"

    malformed = run(["table", "--counts", "1,2,3"])
    capsys.readouterr()
    assert malformed == 2
    print("golden outputs byte-identical; malformed input exited 2")
