"""Layered benchmark for keplor.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  keplor runs from `src/` with
`PYTHONPATH=src`; one-shot requests run
`python -c "from keplor.cli import main; main()" <argv>`, which is what the
`keplor` entry point does.  Each workload is a closed loop driven by one
client; inputs come from `workloads.py` and depend only on the seed.

With `--trace 0` the last line of stdout is
`{"correct", "attempted", "failed", "metrics"}` holding every end-to-end
metric of `design.END_TO_END`; with `--trace 1` it holds every per-layer
metric of `design.PER_LAYER`, from a traced phase of two thirds of the run
that follows an untraced reference phase of one third.  The line before it
is a JSON object of details: provenance, the p90 latency with its sample
count where a run has at least 100 operations, `fail_frac` and the
known-defect tally.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import design
import tracing
from checks import check_request
from workloads import GOLDEN, TABLE_FILE, cli_requests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ENTRY = "from keplor.cli import main; main()"
# Set-up is measured this many times per run, half before and half after the
# timed loop so that the samples span the run; the median is reported.
SETUP_REPEATS = 7
PROCESS_TIMEOUT_S = 150


def child_env() -> dict:
    """Environment of every keplor process: the caller's, with src/ on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def worker_command() -> list:
    return [sys.executable, str(HERE / "worker.py")]


def cli_command(argv: list, span_file: str = "") -> list:
    if span_file:
        return [sys.executable, str(HERE / "cli_child.py"), span_file, *argv]
    return [sys.executable, "-c", ENTRY, *argv]


def _run(cmd: list) -> subprocess.CompletedProcess:
    return subprocess.run(
        cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
        timeout=PROCESS_TIMEOUT_S,
    )


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def machine() -> dict:
    mem = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/meminfo").splitlines()
         if line.startswith("MemTotal:")),
        "unknown",
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "l3": _read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "mem_total": mem,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class BenchError(RuntimeError):
    """The program under test could not be run; no result is printed."""


# ---------------------------------------------------------------- one-shot


def _op_meta(argv: list) -> tuple:
    if "diverge-table" in argv:
        return ("table", int(argv[argv.index("--max-order") + 1]))
    return ("cli", 0)


def _requests_phase(stream, seconds, tmp: Path, goldens: dict, traced: bool, op_base=0):
    table_file, span_file = tmp / "table.txt", tmp / "spans.json"
    phase = {"lat": tracing.Samples(), "failures": [], "known": [0, 0], "known_reasons": set(),
             "spans": [], "meta": {}, "import_ns": []}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        request = next(stream)
        argv = [str(table_file) if a == TABLE_FILE else a for a in request.argv]
        if request.file_text:
            table_file.write_text(request.file_text)
        if traced:
            span_file.unlink(missing_ok=True)
        cmd = cli_command(argv, str(span_file) if traced else "")
        start = time.perf_counter_ns()
        proc = _run(cmd)
        phase["lat"].add(time.perf_counter_ns() - start)
        reason = check_request(request, proc.returncode, proc.stdout, proc.stderr, goldens)
        if request.expect == "known":
            phase["known"][0] += 1
            if reason is not None:
                phase["known"][1] += 1
                phase["known_reasons"].add(f"{' '.join(argv)[:60]}: {reason}")
        elif reason is not None:
            phase["failures"].append(f"{' '.join(argv)[:60]}: {reason}")
        if traced and span_file.is_file():
            op = op_base + phase["lat"].n - 1
            record = json.loads(span_file.read_text())
            offset = len(phase["spans"])
            for name, t0, t1, parent, _, tag in record["spans"]:
                parent = parent + offset if parent >= 0 else -1
                phase["spans"].append((name, t0, t1, parent, op, tag))
            phase["meta"][op] = _op_meta(argv)
            phase["import_ns"].append(record["import_ns"])
    return phase


def run_cli_oneshot(seed: int, seconds: float, trace: bool) -> dict:
    goldens = {name: (ROOT / "tests" / "golden" / f"{name}.json").read_text() for name in GOLDEN}
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    def warm_up(times: int) -> list:
        """Set-up of a one-shot run: one warm-up request, timed."""
        setup = []
        for _ in range(times):
            start = time.perf_counter()
            warm = _run(cli_command(["constants"]))
            setup.append(time.perf_counter() - start)
            if warm.returncode != 0 or warm.stdout != goldens["constants"]:
                raise BenchError(f"warm-up request failed: {warm.stderr.strip()[-300:]}")
        return setup

    try:
        stream = cli_requests(seed)
        setup = warm_up(1 if trace else (SETUP_REPEATS + 1) // 2)
        if not trace:
            phase = _requests_phase(stream, seconds, tmp, goldens, traced=False)
            setup += warm_up(SETUP_REPEATS // 2)
            result = phase["lat"].summary(len(phase["failures"]))
            return {**result, "setup": setup, "failures": sorted(set(phase["failures"]))[:5],
                    "known": phase["known"], "known_reasons": sorted(phase["known_reasons"])}
        ref = _requests_phase(stream, seconds / 3, tmp, goldens, traced=False)
        phase = _requests_phase(stream, seconds * 2 / 3, tmp, goldens, traced=True,
                                op_base=ref["lat"].n)
        layers, samples = tracing.layer_metrics(phase["spans"], phase["meta"])
        reference = ref["lat"].summary(len(ref["failures"]))
        traced = phase["lat"].summary(len(phase["failures"]))
        return {
            "reference": reference, "traced": traced, "layers": layers,
            "layer_samples": samples,
            "self_ms": {k: v * 1e-6 for k, v in sorted(tracing.self_times(phase["spans"]).items())},
            "child_import_ms_p50": tracing.median(phase["import_ns"]) * 1e-6,
            "failures": sorted(set(ref["failures"] + phase["failures"]))[:5],
            "known": [ref["known"][0] + phase["known"][0], ref["known"][1] + phase["known"][1]],
            "known_reasons": sorted(ref["known_reasons"] | phase["known_reasons"]),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if tmp.parent.is_dir() and not any(tmp.parent.iterdir()):
            tmp.parent.rmdir()


# -------------------------------------------------------------- in-process


def _start_worker(job: dict):
    start = time.perf_counter()
    proc = subprocess.Popen(
        worker_command(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
    )
    proc.stdin.write(json.dumps(job) + "\n")
    proc.stdin.close()
    proc.stdin = None  # communicate() would flush the closed pipe
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    if line.strip() != "ready":
        _, err = proc.communicate(timeout=PROCESS_TIMEOUT_S)
        raise BenchError(f"worker did not start: {err.strip()[-500:]}")
    return proc, setup_s


def run_in_process(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    job = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
           "setup_only": True}

    def setup_only(times: int) -> list:
        setup = []
        for _ in range(times):
            proc, setup_s = _start_worker(job)
            proc.communicate(timeout=PROCESS_TIMEOUT_S)
            setup.append(setup_s)
        return setup

    setup = setup_only(0 if trace else SETUP_REPEATS // 2)
    proc, setup_s = _start_worker({**job, "setup_only": False})
    setup.append(setup_s)
    try:
        out, err = proc.communicate(timeout=seconds * 2 + PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-500:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup"] = setup + setup_only(0 if trace else SETUP_REPEATS // 2)
    return result


# ------------------------------------------------------------------ probes


def process_probes() -> dict:
    """Interpreter start, the `-X importtime` breakdown and numpy's presence."""
    start = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        _run([sys.executable, "-c", "pass"])
        start.append(time.perf_counter_ns() - t0)
    keplor_us, numpy_us = [], []
    for _ in range(3):
        err = _run([sys.executable, "-X", "importtime", "-c", "import keplor"]).stderr
        found = {}
        for line in err.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                found.setdefault(parts[2].strip(), int(parts[1]))
        if "keplor" not in found:
            raise BenchError(f"import keplor failed: {err.strip()[-300:]}")
        keplor_us.append(found["keplor"])
        numpy_us.append(found.get("numpy", 0))
    loaded = _run([sys.executable, "-c",
                   "import sys, keplor; print(int('numpy' in sys.modules))"]).stdout
    return {
        "proc.python_start_ms": tracing.median(start) * 1e-6,
        "import.keplor_ms": tracing.median(keplor_us) * 1e-3,
        "import.numpy_ms": tracing.median(numpy_us) * 1e-3,
        "import.numpy_loaded": int(loaded.strip()),
    }


# ------------------------------------------------------------------ report


def _metric(name: str, value, table: dict) -> dict:
    return {"value": value, "unit": table[name][0]}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, details)."""
    if workload == "cli-oneshot":
        raw = run_cli_oneshot(seed, seconds, trace)
    else:
        raw = run_in_process(workload, seed, seconds, trace)
    details = {
        "workload": workload, "seed": seed, "traced": trace, "seconds": seconds,
        "commit": _commit(), "machine": machine(),
        "client": "closed loop, 1 client",
        "percentiles": "p50 as statistics.median, p90 as statistics.quantiles(n=10), "
                       "over a latency histogram with 12 significant bits; "
                       "p90 only with >= 100 samples",
        "failures": raw.get("failures", []),
    }
    if "known" in raw:
        details["known_defects"] = {
            "attempted": raw["known"][0], "failed": raw["known"][1],
            "reasons": raw["known_reasons"],
        }
    if not trace:
        metrics = {
            "setup_s": _metric("setup_s", tracing.median(raw["setup"]), design.END_TO_END),
            "ops_per_s": _metric("ops_per_s", raw["ops_per_s"], design.END_TO_END),
            "latency_p50_ms": _metric("latency_p50_ms", raw["latency_p50_ms"], design.END_TO_END),
            "peak_rss_mb": _metric("peak_rss_mb", peak_rss_mb(), design.END_TO_END),
        }
        counted = raw
        details.update(
            setup_samples_s=raw["setup"], ops=raw["attempted"],
            latency_p90_ms=raw["latency_p90_ms"], latency_samples=raw["attempted"],
        )
    else:
        values = {**raw["layers"], **process_probes()}
        ref_rate, traced_rate = raw["reference"]["ops_per_s"], raw["traced"]["ops_per_s"]
        values["trace.overhead_frac"] = 1.0 - traced_rate / ref_rate if ref_rate else 0.0
        metrics = {name: _metric(name, values[name], design.PER_LAYER) for name in design.PER_LAYER}
        counted = {
            "attempted": raw["reference"]["attempted"] + raw["traced"]["attempted"],
            "failed": raw["reference"]["failed"] + raw["traced"]["failed"],
        }
        details.update(
            reference=raw["reference"], traced_phase=raw["traced"],
            layer_samples=raw["layer_samples"], self_ms=raw["self_ms"],
        )
        if "child_import_ms_p50" in raw:
            details["child_import_ms_p50"] = raw["child_import_ms_p50"]
    attempted, failed = counted["attempted"], counted["failed"]
    details.update(attempted=attempted, failed=failed, fail_frac=failed / max(1, attempted))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, details


def _print_table(workload: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{workload:14s} {name:38s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{workload:14s} {'fail_frac':38s} {result['failed']}/{result['attempted']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*design.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "keplor" / "__init__.py").is_file() or not (
        ROOT / "tests" / "golden"
    ).is_dir():
        print(f"perfbench: no keplor sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.workload == "all":
        # One process per workload, so that each reports its own peak RSS.
        for workload in design.WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            _print_table(workload, json.loads(proc.stdout.strip().splitlines()[-1]))
        return 0
    try:
        result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    _print_table(args.workload, result)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
