"""Tests of the benchmark itself: `python3 -m pytest perfbench` from the root."""

from __future__ import annotations

import itertools
import json
import random
import re
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import design  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import check_request  # noqa: E402
from workloads import Request  # noqa: E402

GOLDENS = {name: (ROOT / "tests" / "golden" / f"{name}.json").read_text() for name in workloads.GOLDEN}
STREAMS = {
    "cli-oneshot": workloads.cli_requests,
    **workloads.IN_PROCESS,
}


def _take(workload: str, seed: int, n: int = 600) -> list:
    return list(itertools.islice(STREAMS[workload](seed), n))


def test_generation_is_deterministic_per_seed():
    for workload in STREAMS:
        assert _take(workload, 11) == _take(workload, 11), workload
        assert _take(workload, 11) != _take(workload, 12), workload


def test_block_composition_does_not_depend_on_the_seed():
    def kinds(items):
        return sorted(item.expect if isinstance(item, Request) else item[0] for item in items)

    block = (64 * workloads.SERIES_PER_ORDER + len(workloads.TABLE_ORDERS)
             + workloads.SCALAR_BLOCKS * sum(workloads.SCALAR_BLOCK.values()))
    cycle = 1 + workloads.BLOCKS_PER_VERIFY * block
    assert kinds(_take("library-mix", 1, cycle)) == kinds(_take("library-mix", 2, cycle))
    assert _take("library-mix", 3, cycle + 1)[cycle][0] == "verify_large"


def test_no_workload_name_reaches_keplor():
    names = list(design.WORKLOADS)
    for workload in STREAMS:
        text = json.dumps(_take(workload, 5))
        assert not any(name in text for name in names), workload
    commands = [run.worker_command(), run.cli_command(["constants"]),
                run.cli_command(["constants"], "spans.json")]
    exposed = json.dumps(commands) + json.dumps(run.child_env())
    assert not any(name in exposed for name in names)


def _table_request(counts="20,10,10,20"):
    return Request(("table", "--counts", counts), "ok")


def test_checker_accepts_golden_outputs():
    for name, argv in workloads.GOLDEN.items():
        request = Request(tuple(argv), f"golden:{name}")
        assert check_request(request, 0, GOLDENS[name], "", GOLDENS) is None
        assert check_request(_table_request(), 0, GOLDENS["table"], "", GOLDENS) is None


def test_checker_flags_one_mutated_float():
    mutated = GOLDENS["table"].replace("2.531015643091923", "2.531015643091823")
    assert mutated != GOLDENS["table"]
    assert check_request(_table_request(), 0, mutated, "", GOLDENS) is not None
    request = Request(("constants",), "golden:constants")
    mutated = GOLDENS["constants"].replace("121.3543236389819", "121.3543236389818")
    assert check_request(request, 0, mutated, "", GOLDENS) is not None
    # Outside the golden set the invariants catch it: laplace_limit != series_radius.
    request = Request(("constants",), "ok")
    mutated = GOLDENS["constants"].replace('"series_radius": 0.6627434193491816',
                                           '"series_radius": 0.6627434193491817')
    assert check_request(request, 0, mutated, "", GOLDENS) is not None


def test_checker_flags_a_traceback():
    stderr = 'Traceback (most recent call last):\n  File "x", line 1\nOverflowError\n'
    for code in (0, 1, 2):
        assert check_request(_table_request(), code, GOLDENS["table"], stderr, GOLDENS)


def test_checker_flags_two_concatenated_json_objects():
    doubled = GOLDENS["table"] + GOLDENS["table"]
    assert "more than one JSON value" in check_request(_table_request(), 0, doubled, "", GOLDENS)


def test_checker_reads_text_envelopes_and_error_contracts():
    text = (
        "command=pz\nstatus=ok\ninput.p=0.025\nresult.z=1.959963984540054\n"
    )
    request = Request(("pz", "--p", "0.025", "--format", "text"), "ok")
    assert check_request(request, 0, text, "", GOLDENS) is None
    domain = Request(("pz", "--p", "0"), "domain")
    error = json.dumps({"command": "pz", "inputs": {"p": 0.0}, "results": {},
                        "status": "error", "error_message": "p_value must lie in (0, 1)"})
    assert check_request(domain, 1, error, "", GOLDENS) is None
    assert check_request(domain, 0, error, "", GOLDENS) is not None
    usage = Request(("table", "--counts", "1,2,3"), "usage")
    assert check_request(usage, 2, "", "usage: keplor ...", GOLDENS) is None
    assert check_request(_table_request(), 2, "", "usage: keplor ...", GOLDENS) is not None
    assert check_request(_table_request(), 3, GOLDENS["table"], "", GOLDENS) is not None


def test_tracer_records_nested_spans_and_self_time():
    import keplor
    from keplor import cli, kepler

    tracer = tracing.Tracer()
    tracer.install(keplor)
    try:
        assert kepler.find_root.__wrapped__ is keplor.numerics.find_root.__wrapped__
        kepler.kepler_solve(kepler.KeplerProblem(1.0, 0.5))
        tracer.op = 1
        kepler.kepler_series(kepler.KeplerProblem(1.0, 0.5), 64)
    finally:
        tracer.uninstall()
    assert not hasattr(cli.build_parser, "__wrapped__")
    names = [span[0] for span in tracer.spans]
    assert names == ["kepler.kepler_solve", "kepler.kepler_series"]
    assert tracer.spans[0][5] > 0 and tracer.spans[1][5] == 64
    totals = tracing.self_times(tracer.spans)
    assert totals["kepler.kepler_series"] == tracer.spans[1][2] - tracer.spans[1][1]


def test_layer_metrics_subtract_child_spans():
    spans = [
        ("cli.run", 0, 10_000_000, -1, 0, None),
        ("cli.build_parser", 100, 3_000_100, 0, 0, None),
        ("kepler.kepler_solve", 4_000_000, 5_000_000, 0, 0, 3),
        ("kepler.kepler_series", 5_000_000, 6_000_000, 0, 0, 64),
    ]
    values, samples = tracing.layer_metrics(spans, {0: ("table", 64)})
    assert values["cli.build_parser_ms"] == 3.0
    assert values["cli.compute_ms"] == 2.0
    assert values["cli.run_self_ms"] == 5.0
    assert values["kepler.series_calls_per_table"] == 1
    assert values["kepler.solve_iterations_max"] == 3
    assert values["effect_bounds.verify_s_p50"] == 0.0 and samples["effect_bounds.verify_s_p50"] == 0
    assert tracing.self_times(spans)["cli.run"] == 5_000_000


def test_samples_match_the_statistics_module():
    rng = random.Random(3)
    for n in (1, 2, 99, 100, 101, 1000):
        for high, rel in ((4095, 0.0), (10**10, 2.0**-tracing.BITS)):
            values = [rng.randint(1, high) for _ in range(n)]
            samples = tracing.Samples()
            for value in values:
                samples.add(value)
            assert samples.median() == pytest.approx(statistics.median(values), rel=rel)
            if n >= 100:
                expected = statistics.quantiles(values, n=10)[8]
                assert samples.p90() == pytest.approx(expected, rel=rel)
            else:
                assert samples.p90() is None


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_matches_the_design_and_its_format():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench == design.benchmark_json()
    assert 2 <= len(bench["workloads"]) <= 8 and 1 <= bench["run_seconds"] <= 60
    names = [item["name"] for key in ("workloads", "end_to_end", "per_layer") for item in bench[key]]
    assert len(names) == len(set(names)) and all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    for workload, (layers, _) in design.WORKLOADS.items():
        assert set(layers) <= {"proc", "import", "cli", *tracing.MODULES}, workload
    for name, (_, _, moves, on) in design.PER_LAYER.items():
        assert set(moves) <= set(design.END_TO_END) and set(on) <= set(design.WORKLOADS), name
