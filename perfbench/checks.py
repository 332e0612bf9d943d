"""Output checks for one-shot keplor processes.

`check_request` returns None when a process honoured its contract and the
command's invariants, else a one-line reason.  Pure stdlib: the checks
recompute what they can from the inputs and never call keplor.
"""

from __future__ import annotations

import json
import math
from typing import Optional

from workloads import Request

# The Laplace limit constant, frozen in tests/golden/constants.json.
LAPLACE_LIMIT = 0.6627434193491816
TRACEBACK = "Traceback (most recent call last)"


def close(a: float, b: float, rel: float, absolute: float = 0.0) -> bool:
    return abs(a - b) <= max(absolute, rel * max(abs(a), abs(b)))


def upper_tail(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _scalar(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_text(stdout: str) -> dict:
    """Rebuild the envelope from `--format text` key=value lines."""
    envelope: dict = {"inputs": {}, "results": {}}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"line without '=': {line!r}")
        if key in ("command", "status", "error_message"):
            envelope[key] = value
        elif key.startswith("input."):
            envelope["inputs"][key[6:]] = _scalar(value)
        elif key.startswith("result.") and "[" in key:
            name, _, rest = key[7:].partition("[")
            index, _, field = rest.partition("].")
            rows = envelope["results"].setdefault(name, [])
            while len(rows) <= int(index):
                rows.append({})
            rows[int(index)][field] = _scalar(value)
        elif key.startswith("result."):
            envelope["results"][key[7:]] = _scalar(value)
        else:
            raise ValueError(f"unknown key {key!r}")
    if "command" not in envelope or "status" not in envelope:
        raise ValueError("text envelope lacks command or status")
    return envelope


def parse_json(stdout: str) -> dict:
    """Exactly one JSON object, nothing but whitespace around it."""
    decoder = json.JSONDecoder()
    text = stdout.lstrip()
    envelope, end = decoder.raw_decode(text)
    if text[end:].strip():
        raise ValueError("stdout holds more than one JSON value")
    if not isinstance(envelope, dict):
        raise ValueError("stdout is not a JSON object")
    return envelope


def _is_text(argv) -> bool:
    return any(a == "--format" and b == "text" for a, b in zip(argv, argv[1:]))


def _table_cells(request: Request, inputs: dict) -> list:
    text = request.file_text if "file" in inputs else str(inputs["counts"])
    cells = [int(piece) for piece in text.strip().split(",")]
    if inputs["correction"]:
        return [c + 0.5 for c in cells]
    return [float(c) for c in cells]


def _invariants(request: Request, envelope: dict) -> Optional[str]:
    """Per-command checks of an ok envelope."""
    command, inputs, r = envelope["command"], envelope["inputs"], envelope["results"]
    f = {k: v for k, v in r.items() if not isinstance(v, (list, str))}
    if command == "constants":
        if f["laplace_limit"] != f["series_radius"]:
            return "laplace_limit != series_radius"
        if f["laplace_limit"] != LAPLACE_LIMIT or f["peak_log_or"] != 4.0 * f["tanh_root"]:
            return "constants differ from the frozen values"
    elif command == "table":
        c11, c12, c21, c22 = _table_cells(request, inputs)
        odds = (c11 * c22) / (c12 * c21)
        t = math.log(odds) / math.sqrt(sum(1.0 / c for c in (c11, c12, c21, c22)))
        # Same arithmetic as the package, so equal to the last bit.
        if f["odds_ratio"] != odds or f["t_statistic"] != t:
            return "odds ratio or t statistic differs from the counts"
        if f["log_odds"] != math.log(f["odds_ratio"]):
            return "log_odds != log(odds_ratio)"
    elif command == "bounds":
        if abs(f["max_standardized_effect"]) > LAPLACE_LIMIT + 1e-12:
            return "ceiling exceeds the Laplace limit"
        if "or" in inputs:
            if not close(f["bound_curve"], f["max_standardized_effect"], 1e-12, 1e-300):
                return "bound_curve(ln or) != max_standardized_effect(or)"
            if f["optimal_exposure"] != 0.5:
                return "optimal exposure is not 1/2"
        elif abs(f["standardized_effect"]) > abs(f["max_standardized_effect"]) + 1e-12:
            return "standardized effect exceeds its ceiling"
    elif command in ("kepler solve", "kepler diverge-table"):
        m, eps = inputs["m"], inputs["eps"]
        e = f["eccentric_anomaly" if command == "kepler solve" else "newton_eccentric_anomaly"]
        if abs(e - eps * math.sin(e) - m) > 1e-11 * max(1.0, abs(m)):
            return "eccentric anomaly does not solve Kepler's equation"
        if command == "kepler solve":
            if f["residual"] > inputs["tol"] or r["method"] not in ("newton", "bisection"):
                return "solver residual above tol or unknown method"
        else:
            rows = r["rows"]
            if [row["order"] for row in rows] != list(range(1, inputs["max_order"] + 1)):
                return "diverge-table rows do not cover orders 1..max_order"
            if any(row["abs_error"] != abs(row["eccentric_anomaly"] - e) for row in rows):
                return "diverge-table abs_error is not |series - newton|"
    elif command == "kepler series":
        if r["method"] != "series" or f["order"] != inputs["order"]:
            return "series method or order not echoed"
        if not (math.isfinite(f["eccentric_anomaly"]) and f["residual"] >= 0.0):
            return "series estimate not finite"
    elif command == "prior flattest":
        threshold, tail = inputs["or_threshold"], inputs["tail_mass"]
        if not close(upper_tail(f["tail_quantile"]), tail, 1e-6):
            return "tail_quantile does not carry the tail mass"
        expected = (math.log(threshold) / f["assumed_sigma"] / f["tail_quantile"]) ** 2
        if not close(f["prior_variance"], expected, 1e-6):
            return "prior variance inconsistent with its inputs"
        if f["flattest_sigma"] < math.log(threshold) / LAPLACE_LIMIT * (1 - 1e-12):
            return "flattest sigma below the attainable minimum"
    elif command == "prior wm-pathway":
        if not (0.0 < f["prevalence"] < 1.0 and f["sigma"] > 0.0):
            return "pathway prevalence or sigma out of range"
        if not close(f["risk_ratio"], inputs["risk_exposed"] / f["risk_unexposed"], 1e-12):
            return "risk ratio inconsistent"
    elif command == "verify":
        if f["violations"] != 0 or f["max_gamma_observed"] > f["bound"]:
            return "verify reported violations or a maximum above the bound"
        if f["bound"] != LAPLACE_LIMIT or f["samples"] != inputs["samples"]:
            return "verify bound or sample count wrong"
    elif command == "pz":
        if "p" in inputs:
            if not close(upper_tail(f["z"]), inputs["p"], 1e-6):
                return "z does not carry the p-value"
        elif not close(f["p"], upper_tail(inputs["z"]), 1e-6):
            return "p-value inaccurate for a representable tail"
    else:
        return f"unknown command {command!r}"
    return None


def check_request(
    request: Request, code: int, stdout: str, stderr: str, goldens: dict
) -> Optional[str]:
    """None when the process met its contract and invariants, else why not."""
    if code not in (0, 1, 2):
        return f"exit code {code}"
    if TRACEBACK in stderr:
        return "traceback on stderr"
    if code == 2:
        return None if request.expect == "usage" else "usage error on a valid command line"
    if request.expect == "usage":
        return f"exit code {code} for a usage error"
    try:
        envelope = parse_text(stdout) if _is_text(request.argv) else parse_json(stdout)
    except (ValueError, KeyError, IndexError) as exc:
        return f"malformed envelope: {exc}"
    if request.expect.startswith("golden:"):
        if stdout != goldens[request.expect[7:]]:
            return "output differs from the golden file"
    if request.expect == "domain":
        if code != 1 or envelope["status"] != "error" or envelope["results"]:
            return "domain error not reported as an error envelope with exit 1"
        return None if envelope.get("error_message") else "error envelope without a message"
    if code != 0 or envelope["status"] != "ok":
        return f"in-domain command failed: {envelope.get('error_message', code)}"
    try:
        return _invariants(request, envelope)
    except (KeyError, TypeError, ValueError, IndexError, ArithmeticError) as exc:
        return f"envelope lacks a field or a usable value: {exc!r}"
