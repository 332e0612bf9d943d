"""In-process workload worker: one client calling keplor in a closed loop.

The job (workload, seed, seconds, trace, setup_only) arrives as one JSON
line on stdin, so neither argv nor the environment of the process that runs
keplor names a workload.  The worker imports keplor, fills the lazy caches,
prints "ready" (the harness times set-up up to that line), runs the timed
loop and prints one JSON summary line.  Keplor functions are looked up as
module attributes at call time, so a traced phase sees the wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time

import keplor
from keplor import bayes_prior, cli, contingency, effect_bounds, kepler

import tracing
import workloads
from checks import LAPLACE_LIMIT, close, upper_tail

# The traced phase stops early past this many spans, to bound its memory.
SPAN_CAP = 400_000


def _risk(re_, ru, v):
    return contingency.RiskParams(re_, ru, v)


def _table(*counts):
    return contingency.TwoByTwoTable(*counts)


def _solve(m, eps):
    return kepler.kepler_solve(kepler.KeplerProblem(m, eps))


def _diverge_table(m, eps, order):
    argv = ["kepler", "diverge-table", "--m", repr(m), "--eps", repr(eps),
            "--max-order", str(order)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


RUN = {
    "verify_large": lambda seed: effect_bounds.verify_bound(10**7, seed),
    "series": lambda m, eps, order: kepler.kepler_series(kepler.KeplerProblem(m, eps), order),
    "table": _diverge_table,
    "solve": _solve,
    "solve_parabolic": _solve,
    "odds_ratio": lambda *c: contingency.estimate_odds_ratio(_table(*c)),
    "t_statistic": lambda *c: contingency.t_statistic(_table(*c)),
    "proportions": lambda *c: contingency.estimate_proportions(_table(*c)),
    "cohort_to_risk": lambda p, q, w: contingency.cohort_to_risk(
        contingency.CohortParams(p, q, w)
    ),
    "odds_and_risk_ratio": lambda *r: contingency.odds_and_risk_ratio(_risk(*r)),
    "max_standardized_effect": lambda o: effect_bounds.max_standardized_effect(o),
    "optimal_risk": lambda o: effect_bounds.optimal_risk(o),
    "standardized_effect": lambda *r: effect_bounds.standardized_effect(_risk(*r)),
    "summarize_risk": lambda *r: effect_bounds.summarize_risk(_risk(*r)),
    "bound_curve": lambda x: effect_bounds.bound_curve(x),
    "bound_curve_derivative": lambda x: effect_bounds.bound_curve_derivative(x),
    "min_variance_prevalence": lambda p, q, _: effect_bounds.min_variance_prevalence(p, q),
    "p_to_z": lambda p: bayes_prior.p_to_z(p),
    "z_to_p": lambda z: bayes_prior.z_to_p(z),
    "flattest_sigma": lambda t: bayes_prior.flattest_sigma(t),
    "flattest_prior": lambda t, a, s: bayes_prior.flattest_prior(t, a, s),
    "prevalence_pathway": lambda o, r: bayes_prior.prevalence_pathway(o, r),
    "verify_small": lambda n, seed: effect_bounds.verify_bound(n, seed),
}


def _check_verify(args, r, n):
    if r.violations != 0 or r.samples != n or r.bound != LAPLACE_LIMIT:
        return "verify reported violations or wrong samples/bound"
    if not 0.6 < r.max_gamma_observed <= r.bound:
        return "verify maximum outside (0.6, Laplace limit]"
    return None


def _check_solve(args, r):
    m, eps = args
    if r.residual > 1e-12 or r.method not in ("newton", "bisection"):
        return "solver residual above tol or unknown method"
    e = r.eccentric_anomaly
    if abs(e - eps * math.sin(e) - m) > 1e-11 * max(1.0, abs(m)):
        return "eccentric anomaly does not solve Kepler's equation"
    return None


def _check_series(args, r):
    if r.method != "series" or r.iterations_or_order != args[2]:
        return "series method or order not echoed"
    if not (math.isfinite(r.eccentric_anomaly) and r.residual >= 0.0):
        return "series estimate not finite"
    return None


def _float_cells(counts):
    return [float(c) for c in counts]


def _check_odds(args, r):
    c11, c12, c21, c22 = _float_cells(args)
    ok = close(r.odds_ratio, (c11 * c22) / (c12 * c21), 1e-13)
    return None if ok and r.log_odds == math.log(r.odds_ratio) else "odds ratio differs"


def _check_t(args, r):
    c = _float_cells(args)
    t = math.log((c[0] * c[3]) / (c[1] * c[2])) / math.sqrt(sum(1.0 / x for x in c))
    return None if close(r, t, 1e-13) else "t statistic differs from the counts"


def _check_proportions(args, r):
    n11, n12, n21, n22 = args
    expected = (n11 / (n11 + n12), n21 / (n21 + n22), (n11 + n12) / sum(args))
    ok = all(close(a, b, 1e-15) for a, b in zip(r[:3], expected))
    return None if ok and r.total == sum(args) else "proportions differ"


def _check_cohort(args, r):
    back = contingency.risk_to_cohort(r)
    got = (back.exposure_cases, back.exposure_controls, back.prevalence)
    return None if all(close(a, b, 1e-12) for a, b in zip(got, args)) else "Bayes map does not round-trip"


def _odds(re_, ru):
    return (re_ / (1.0 - re_)) / (ru / (1.0 - ru))


def _check_ratios(args, r):
    ok = close(r.odds_ratio, _odds(*args[:2]), 1e-13) and close(r.risk_ratio, args[0] / args[1], 1e-15)
    return None if ok else "odds or risk ratio differs"


def _check_ceiling(args, r):
    (o,) = args
    attained = effect_bounds.standardized_effect(effect_bounds.optimal_risk(o))
    if abs(r) > LAPLACE_LIMIT + 1e-12 or not close(attained, r, 1e-9, 1e-13):
        return "standardized_effect(optimal_risk(or)) != max_standardized_effect(or)"
    return None


def _check_optimal(args, r):
    if r.exposure != 0.5:
        return "optimal exposure is not 1/2"
    return _check_ceiling(args, effect_bounds.max_standardized_effect(args[0]))


def _check_effect(args, r):
    ceiling = effect_bounds.max_standardized_effect(_odds(*args[:2]))
    return None if abs(r) <= abs(ceiling) + 1e-12 else "effect exceeds its ceiling"


def _check_summary(args, r):
    effect = effect_bounds.standardized_effect(_risk(*args))
    return None if close(r.standardized, effect, 1e-13) else "summary differs from standardized_effect"


def _check_curve(args, r):
    (x,) = args
    ok = abs(r) <= LAPLACE_LIMIT + 1e-12 and close(
        r, effect_bounds.max_standardized_effect(math.exp(x)), 1e-9, 1e-13
    )
    return None if ok else "bound_curve(x) != max_standardized_effect(e^x)"


def _check_slope(args, r):
    peak = 4.798714561030947
    if abs(abs(args[0]) - peak) > 1e-6 and (r > 0.0) != (abs(args[0]) < peak):
        return "bound curve slope has the wrong sign"
    return None


def _check_min_prevalence(args, r):
    p, q, _ = args
    at = effect_bounds.sigma2_by_prevalence(r, p, q)
    nearby = [w for w in (r - 1e-3, r + 1e-3) if 0.0 < w < 1.0]
    if any(effect_bounds.sigma2_by_prevalence(w, p, q) < at for w in nearby):
        return "prevalence is not the variance minimizer"
    return None


def _check_p_to_z(args, r):
    return None if close(upper_tail(r), args[0], 1e-6) else "z does not carry the p-value"


def _check_z_to_p(args, r):
    (z,) = args
    if not close(r, upper_tail(z), 1e-6):
        return "p-value inaccurate for a representable tail"
    if abs(bayes_prior.p_to_z(r) - z) > 1e-6:
        return "p_to_z(z_to_p(z)) does not round-trip"
    return None


def _check_flattest_sigma(args, r):
    (t,) = args
    ok = close(r, math.log(t) / effect_bounds.max_standardized_effect(t), 1e-13)
    return None if ok and r >= math.log(t) / LAPLACE_LIMIT * (1 - 1e-12) else "flattest sigma wrong"


def _check_flattest_prior(args, r):
    t, a, s = args
    expected = (math.log(t) / s / bayes_prior.p_to_z(a)) ** 2
    return None if close(r.prior_variance, expected, 1e-9) else "prior variance wrong"


def _check_pathway(args, r):
    o, re_ = args
    ok = 0.0 < r.prevalence < 1.0 and r.sigma > 0.0 and close(r.risk_ratio, re_ / r.risk_unexposed, 1e-15)
    return None if ok else "pathway result out of range"


def _check_table(args, result):
    """Rows must equal kepler_series at each order, bit for bit."""
    m, eps, order = args
    code, out = result
    if code != 0:
        return f"diverge-table exit code {code}"
    envelope = json.loads(out)
    rows = envelope["results"]["rows"]
    problem = kepler.KeplerProblem(m, eps)
    expected = [kepler.kepler_series(problem, n).eccentric_anomaly for n in range(1, order + 1)]
    if [row["eccentric_anomaly"] for row in rows] != expected:
        return "diverge-table rows differ from kepler_series"
    e = envelope["results"]["newton_eccentric_anomaly"]
    if abs(e - eps * math.sin(e) - m) > 1e-11 * max(1.0, abs(m)):
        return "diverge-table newton anomaly does not solve Kepler's equation"
    return None


CHECK = {
    "table": _check_table,
    "verify_large": lambda a, r: _check_verify(a, r, 10**7),
    "verify_small": lambda a, r: _check_verify(a, r, a[0]),
    "series": _check_series,
    "solve": _check_solve,
    "solve_parabolic": _check_solve,
    "odds_ratio": _check_odds,
    "t_statistic": _check_t,
    "proportions": _check_proportions,
    "cohort_to_risk": _check_cohort,
    "odds_and_risk_ratio": _check_ratios,
    "max_standardized_effect": _check_ceiling,
    "optimal_risk": _check_optimal,
    "standardized_effect": _check_effect,
    "summarize_risk": _check_summary,
    "bound_curve": _check_curve,
    "bound_curve_derivative": _check_slope,
    "min_variance_prevalence": _check_min_prevalence,
    "p_to_z": _check_p_to_z,
    "z_to_p": _check_z_to_p,
    "flattest_sigma": _check_flattest_sigma,
    "flattest_prior": _check_flattest_prior,
    "prevalence_pathway": _check_pathway,
}


def run_phase(ops, seconds: float, tracer=None, op_base: int = 0) -> tuple[dict, dict]:
    """Closed loop for `seconds`; only the keplor call is inside the timer.

    Returns the summary and, when traced, op id -> (kind, max order)."""
    latencies, failures, meta = tracing.Samples(), set(), {}
    failed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        if tracer is not None and len(tracer.spans) > SPAN_CAP:
            break
        kind, args = next(ops)
        if tracer is not None:
            tracer.op = op_base + latencies.n
            tracer.active = True
            meta[tracer.op] = (kind, args[2] if kind == "table" else 0)
        fn = RUN[kind]
        start = time.perf_counter_ns()
        result = fn(*args)
        latencies.add(time.perf_counter_ns() - start)
        if tracer is not None:
            tracer.active = False
        reason = CHECK[kind](args, result)
        if reason is not None:
            failed += 1
            failures.add(reason)
    return {**latencies.summary(failed), "failures": sorted(failures)[:5]}, meta


def main() -> None:
    job = json.loads(sys.stdin.readline())
    # Fill the lazy caches: the bound and series constants and the harmonic
    # coefficients up to the order cap.
    effect_bounds.bound_constants()
    kepler.series_radius()
    kepler.kepler_series(kepler.KeplerProblem(1.0, 0.5), kepler.SERIES_ORDER_CAP)
    ops = workloads.IN_PROCESS[job["workload"]](job["seed"])
    print("ready", flush=True)
    if job["setup_only"]:
        return
    seconds = job["seconds"]
    if not job["trace"]:
        print(json.dumps(run_phase(ops, seconds)[0]))
        return
    # Untraced reference for a third of the run, then the traced phase on a
    # fresh stream, so that it opens with the cycle's large verify.
    reference, _ = run_phase(ops, seconds / 3)
    ops = workloads.IN_PROCESS[job["workload"]](job["seed"])
    tracer = tracing.Tracer()
    tracer.install(keplor)
    traced, meta = run_phase(ops, seconds * 2 / 3, tracer, op_base=reference["attempted"])
    tracer.uninstall()
    values, samples = tracing.layer_metrics(tracer.spans, meta)
    self_ns = tracing.self_times(tracer.spans)
    print(json.dumps({
        "reference": reference,
        "traced": traced,
        "layers": values,
        "layer_samples": samples,
        "self_ms": {name: ns * 1e-6 for name, ns in sorted(self_ns.items())},
        "spans": len(tracer.spans),
    }))


if __name__ == "__main__":
    main()
