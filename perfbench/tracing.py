"""Spans around calls into keplor's layers, recorded from outside the package.

`Tracer.install` replaces every public function attribute of the keplor
modules, names imported from a sibling module included (for example
`keplor.kepler.find_root` or `keplor.cli.build_parser`), with a wrapper
that records a span: name, start, end, parent span, operation id and an
optional tag taken from the arguments or the result.  Nothing under `src/`
is edited.  Spans stay in memory; `layer_metrics` turns them into the
per-layer metrics when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from array import array
from typing import Callable, Optional

MODULES = ("numerics", "contingency", "effect_bounds", "kepler", "bayes_prior", "cli")
LIBRARY = frozenset(MODULES) - {"cli"}


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


# Latency histogram: values below 2**BITS ns are kept exactly, larger ones
# with BITS significant bits (relative resolution 2**-(BITS-1)), up to
# 2**MAX_BITS ns (about 4.9 hours).
BITS, MAX_BITS = 12, 44
HALF = 1 << (BITS - 1)


class Samples:
    """Nanosecond latencies in a fixed-size histogram.

    Memory does not grow with the run, so the harness adds the same RSS to
    every run.  `median` and `p90` follow `statistics.median` and
    `statistics.quantiles(n=10)[8]`; they are exact below 2**BITS ns and
    within 2**-BITS relative error above.
    """

    def __init__(self) -> None:
        self.counts = array("q", bytes(8 * ((1 << BITS) + (MAX_BITS - BITS) * HALF)))
        self.n = 0
        self.total = 0

    def add(self, value: int) -> None:
        shift = value.bit_length() - BITS
        if shift <= 0:
            self.counts[value] += 1
        else:
            self.counts[(1 << BITS) + (shift - 1) * HALF + (value >> shift) - HALF] += 1
        self.n += 1
        self.total += value

    @staticmethod
    def _value(index: int) -> float:
        """The value a histogram index stands for: the middle of its bucket."""
        if index < 1 << BITS:
            return index
        shift, mantissa = divmod(index - (1 << BITS), HALF)
        shift += 1
        return ((mantissa + HALF) << shift) + (1 << shift) / 2 - 0.5

    def _order(self, *ranks: int) -> list:
        """Values at the given 0-based ranks of the sorted samples."""
        found, seen, wanted = {}, 0, sorted(set(ranks))
        for index, count in enumerate(self.counts):
            seen += count
            while wanted and wanted[0] < seen:
                found[wanted.pop(0)] = self._value(index)
            if not wanted:
                break
        return [found[rank] for rank in ranks]

    def median(self) -> float:
        if not self.n:
            return 0.0
        lo, hi = self._order((self.n - 1) // 2, self.n // 2)
        return (lo + hi) / 2

    def p90(self) -> Optional[float]:
        """None below 100 samples, so that at least ten lie beyond it."""
        if self.n < 100:
            return None
        j, delta = divmod(9 * (self.n + 1), 10)
        below, above = self._order(j - 1, j)
        return (below * (10 - delta) + above * delta) / 10

    def summary(self, failed: int) -> dict:
        """Operation counts and rates of nanosecond latencies."""
        p90 = self.p90()
        return {
            "attempted": self.n,
            "failed": failed,
            "ops_per_s": self.n / (self.total * 1e-9) if self.total else 0.0,
            "latency_p50_ms": self.median() * 1e-6,
            "latency_p90_ms": None if p90 is None else p90 * 1e-6,
        }


def _tag_series(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs.get("order")


def _tag_verify(args, kwargs, result):
    return args[0] if args else kwargs.get("n_samples")


def _tag_solve(args, kwargs, result):
    # Iterations, negated when the bisection phase produced the root.
    if result is None:
        return None
    n = result.iterations_or_order
    return -n if result.method == "bisection" else n


TAGS: dict = {
    "kepler.kepler_series": _tag_series,
    "effect_bounds.verify_bound": _tag_verify,
    "kepler.kepler_solve": _tag_solve,
}


class Tracer:
    """Collects spans as tuples (name, start_ns, end_ns, parent, op, tag)."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op = 0
        self.active = True
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tag_fn = TAGS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tag = tag_fn(args, kwargs, result) if tag_fn else None
                spans[index] = (name, start, end, parent, self.op, tag)

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every keplor module."""
        for module_name in MODULES:
            module = getattr(package, module_name)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or inspect.isclass(value) or not callable(value):
                    continue
                home = getattr(value, "__module__", "") or ""
                if not home.startswith(package.__name__ + "."):
                    continue
                name = f"{home.rsplit('.', 1)[1]}.{attr}"
                self._restore.append((module, attr, value))
                setattr(module, attr, self._wrap(name, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()


def self_times(spans: list) -> dict:
    """Total self time per span name in ns: duration minus child spans."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: dict = {}
    for i, (name, start, end, _, _, _) in enumerate(spans):
        totals[name] = totals.get(name, 0) + (end - start - child_ns[i])
    return totals


def layer_metrics(spans: list, ops: dict) -> tuple[dict, dict]:
    """Per-layer metrics from spans, plus the sample count behind each.

    `ops` maps an operation id to (kind, size), where size is the max order
    of a diverge-table run.  A layer the workload never enters reports 0
    with 0 samples.
    """
    module = [s[0].split(".", 1)[0] for s in spans]
    # A span enters its layer when its parent lies in another layer.
    entry = [p < 0 or module[p] != m for (_, _, _, p, _, _), m in zip(spans, module)]

    def durations(pred):
        return [s[2] - s[1] for i, s in enumerate(spans) if pred(i, s)]

    def entries(layer, exclude=()):
        return durations(
            lambda i, s: entry[i] and module[i] == layer and s[0] not in exclude
        )

    verify = "effect_bounds.verify_bound"
    large = durations(lambda i, s: s[0] == verify and (s[5] or 0) >= 10**6)
    small = durations(lambda i, s: s[0] == verify and (s[5] or 0) < 10**6)
    large_samples = [s[5] for s in spans if s[0] == verify and (s[5] or 0) >= 10**6]
    series64 = durations(lambda i, s: s[0] == "kepler.kepler_series" and s[5] == 64)
    solve_tags = [s[5] for s in spans if s[0] == "kepler.kepler_solve" and s[5] is not None]

    runs = [i for i, s in enumerate(spans) if s[0] == "cli.run"]
    build, compute = {}, {}
    for i, s in enumerate(spans):
        p = s[3]
        if p >= 0 and spans[p][0] == "cli.run":
            if s[0] == "cli.build_parser":
                build[p] = build.get(p, 0) + s[2] - s[1]
            elif module[i] in LIBRARY:
                compute[p] = compute.get(p, 0) + s[2] - s[1]
    run_self = [
        spans[i][2] - spans[i][1] - build.get(i, 0) - compute.get(i, 0) for i in runs
    ]
    table_ops = {op for op, (kind, _) in ops.items() if kind == "table"}
    table_runs = [spans[i][2] - spans[i][1] for i in runs if spans[i][4] in table_ops]
    calls64 = {op: 0 for op, (kind, size) in ops.items() if kind == "table" and size == 64}
    for s in spans:
        if s[0] == "kepler.kepler_series" and s[4] in calls64:
            calls64[s[4]] += 1
    find_root = sum(1 for s in spans if s[0] == "numerics.find_root")
    solve_us = durations(lambda i, s: entry[i] and s[0] == "kepler.kepler_solve")

    def p50(values, scale):
        return median(values) * scale, len(values)

    metrics = {
        "cli.build_parser_ms": p50(list(build.values()), 1e-6),
        "cli.run_self_ms": p50(run_self, 1e-6),
        "cli.compute_ms": p50(list(compute.values()), 1e-6),
        "effect_bounds.verify_s_p50": p50(large, 1e-9),
        "effect_bounds.verify_ns_per_sample": (
            sum(large) / sum(large_samples) if large else 0.0, len(large),
        ),
        "effect_bounds.verify_small_us_p50": p50(small, 1e-3),
        "effect_bounds.scalar_us_p50": p50(entries("effect_bounds", exclude=(verify,)), 1e-3),
        "kepler.series_o64_us_p50": p50(series64, 1e-3),
        "kepler.diverge_table_ms_p50": p50(table_runs, 1e-6),
        "kepler.series_calls_per_table": (median(calls64.values()), len(calls64)),
        "kepler.solve_us_p50": p50(solve_us, 1e-3),
        "kepler.solve_iterations_mean": (
            statistics.fmean(abs(t) for t in solve_tags) if solve_tags else 0.0,
            len(solve_tags),
        ),
        "kepler.solve_iterations_max": (max((abs(t) for t in solve_tags), default=0), len(solve_tags)),
        "kepler.bisection_fallbacks": (sum(1 for t in solve_tags if t < 0), len(solve_tags)),
        "numerics.find_root_calls_per_op": (find_root / max(1, len(ops)), len(ops)),
        "contingency.us_p50": p50(entries("contingency"), 1e-3),
        "bayes_prior.us_p50": p50(entries("bayes_prior"), 1e-3),
    }
    values = {name: value for name, (value, _) in metrics.items()}
    samples = {name: count for name, (_, count) in metrics.items()}
    return values, samples
