"""The benchmark's design record: workloads, metrics and what each should move.

BENCHMARK.json at the repository root carries the names, units, bounds and
one-line reasons its fixed format has room for; this module holds the same
names plus the mapping that format has no field for: which layer each
workload stresses, and for every per-layer metric, which end-to-end metric
it should move and on which workload.  `test_perfbench.py` checks that the
two agree, so later changes can cite these names.

Layers are the package's modules, measured from outside: process start and
imports (`proc`, `import`), `cli`, `effect_bounds`, `kepler`, `contingency`,
`bayes_prior` and `numerics`.
"""

from __future__ import annotations

# name -> (layers stressed, why).  Every workload is a closed loop driven by
# one client from a single process.
WORKLOADS = {
    "cli-oneshot": (
        ("proc", "import", "cli"),
        "one fresh process per request over every README command, both formats "
        "and domain edges, as users run keplor; stresses process start, import "
        "and cli",
    ),
    "library-mix": (
        ("effect_bounds", "kepler", "cli", "contingency", "bayes_prior", "numerics"),
        "in-process, a quarter of the time each: verify_bound(10**7) (~1 GB vs a 300 MiB "
        "L3), kepler_series 1-64, diverge-table via cli.run, and microsecond calls; "
        "stresses the library",
    ),
}

# Seconds one run measures.  Longer runs average out more of the drift in
# host speed; 48 runs of this length over two workloads, with their set-up,
# still finish within 57 minutes.
RUN_SECONDS = 50

# name -> (unit, better, bound).  A bound is the share of the parent's median
# by which the metric may worsen before a change is rejected.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# name -> (unit, better, end-to-end metrics it should move, workloads).
PER_LAYER = {
    "proc.python_start_ms": ("ms", "lower", (), ("cli-oneshot",)),
    "import.keplor_ms": (
        "ms", "lower", ("latency_p50_ms", "peak_rss_mb", "setup_s"),
        ("cli-oneshot", "library-mix"),
    ),
    "import.numpy_ms": (
        "ms", "lower", ("latency_p50_ms", "peak_rss_mb", "setup_s"),
        ("cli-oneshot", "library-mix"),
    ),
    "import.numpy_loaded": (
        "count", "lower", ("latency_p50_ms", "peak_rss_mb", "setup_s"),
        ("cli-oneshot", "library-mix"),
    ),
    "cli.build_parser_ms": (
        "ms", "lower", ("latency_p50_ms", "ops_per_s"),
        ("cli-oneshot", "library-mix"),
    ),
    "cli.run_self_ms": (
        "ms", "lower", ("latency_p50_ms", "ops_per_s"),
        ("cli-oneshot", "library-mix"),
    ),
    "cli.compute_ms": (
        "ms", "lower", ("latency_p50_ms", "ops_per_s"),
        ("cli-oneshot", "library-mix"),
    ),
    "effect_bounds.verify_s_p50": (
        "s", "lower", ("ops_per_s", "peak_rss_mb"), ("library-mix",),
    ),
    "effect_bounds.verify_ns_per_sample": (
        "ns", "lower", ("ops_per_s", "peak_rss_mb"), ("library-mix",),
    ),
    "effect_bounds.verify_small_us_p50": (
        "us", "lower", ("ops_per_s",), ("library-mix",),
    ),
    "effect_bounds.scalar_us_p50": ("us", "lower", ("ops_per_s",), ("library-mix",)),
    "kepler.series_o64_us_p50": (
        "us", "lower", ("ops_per_s", "latency_p50_ms"), ("library-mix",),
    ),
    "kepler.diverge_table_ms_p50": (
        "ms", "lower", ("ops_per_s", "latency_p50_ms"), ("library-mix",),
    ),
    "kepler.series_calls_per_table": (
        "count", "lower", ("ops_per_s", "latency_p50_ms"), ("library-mix",),
    ),
    "kepler.solve_us_p50": ("us", "lower", ("ops_per_s",), ("library-mix",)),
    "kepler.solve_iterations_mean": ("count", "lower", ("ops_per_s",), ("library-mix",)),
    "kepler.solve_iterations_max": ("count", "lower", ("ops_per_s",), ("library-mix",)),
    "kepler.bisection_fallbacks": ("count", "lower", ("ops_per_s",), ("library-mix",)),
    "numerics.find_root_calls_per_op": (
        "count", "lower", ("ops_per_s",), ("library-mix",),
    ),
    "contingency.us_p50": ("us", "lower", ("ops_per_s",), ("library-mix",)),
    "bayes_prior.us_p50": ("us", "lower", ("ops_per_s",), ("library-mix",)),
    "trace.overhead_frac": (
        "fraction", "lower", (), tuple(WORKLOADS),
    ),
}


def benchmark_json() -> dict:
    """The BENCHMARK.json document this design implies."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, (_, why) in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": spec[0], "better": spec[1]}
            for name, spec in PER_LAYER.items()
        ],
    }
