"""Command-line frontend: every library computation behind one subcommand.

Output is a deterministic envelope: a single JSON object (sorted keys, floats
in shortest round-trip form, a NaN or infinity as the string "NaN", "Infinity"
or "-Infinity") or line-delimited key=value text with ``--format text``.
Exit codes: 0 ok, 1 domain/validation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache
from typing import Any, Optional

# The library modules are imported inside each command that calls them, so a
# one-shot process loads only what its subcommand uses.
from .errors import DomainError, KeplorError, _check_probability
from .errors import _parse_count, _split_counts

__all__ = ["build_parser", "run", "main"]


def _counts_argument(text: str) -> str:
    counts = []
    for piece in _split_counts(text, argparse.ArgumentTypeError):
        value = _parse_count(piece, argparse.ArgumentTypeError)
        if value < 0:
            raise argparse.ArgumentTypeError(f"count {piece!r} is negative")
        counts.append(str(value))
    return ",".join(counts)


def _add_format(parser: argparse.ArgumentParser, top_level: bool = False) -> None:
    parser.add_argument(
        "--format",
        choices=("json", "text"),
        default="json" if top_level else argparse.SUPPRESS,
        help="output rendering (default json)",
    )


# Namespace attributes that route a command rather than carry its inputs.
_ROUTING = frozenset({"format", "command", "handler"})


def _inputs(args: argparse.Namespace) -> dict:
    """Echo each non-routing dest that has a value, defaults such as tol included."""
    return {
        dest: value
        for dest, value in vars(args).items()
        if dest not in _ROUTING and value is not None
    }


def _renamed(record: Any, **names: str) -> dict:
    """The fields of `record`, each under its CLI name: `names` maps a field to one."""
    return {names.get(key, key): value for key, value in vars(record).items()}


def _table_results(args: argparse.Namespace) -> dict:
    from . import contingency

    text = args.counts
    if text is None:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read().strip()
        except (OSError, UnicodeDecodeError) as exc:
            raise DomainError(f"cannot read table file {args.file!r}: {exc}") from exc
    table = contingency.TwoByTwoTable.from_text(text)
    return {
        **contingency.estimate_proportions(table)._asdict(),
        **contingency.estimate_odds_ratio(table, args.correction)._asdict(),
        "t_statistic": contingency.t_statistic(table, args.correction),
    }


def _bounds_results(args: argparse.Namespace) -> dict:
    # The input mode is checked first, so a usage error loads no library module.
    error = args.handler[2]  # the leaf parser's: prints usage and message, exits 2
    odds_ratio = getattr(args, "or")  # a keyword, so not args.or
    or_mode = odds_ratio is not None
    pq_mode = args.p is not None or args.q is not None
    risk_mode = args.risk_exposed is not None or args.risk_unexposed is not None
    if int(or_mode) + int(pq_mode) + int(risk_mode) != 1:
        error(
            "choose exactly one input mode: --or, --p/--q, or "
            "--risk-exposed/--risk-unexposed"
        )
    if pq_mode and (args.p is None or args.q is None):
        error("--p and --q must be given together")
    if risk_mode and (args.risk_exposed is None or args.risk_unexposed is None):
        error("--risk-exposed and --risk-unexposed must be given together")
    if args.rr is not None and not or_mode:
        error("--rr applies only with --or")
    if args.prevalence is not None and not pq_mode:
        error("--prevalence applies only with --p/--q")
    if args.exposure is not None and not risk_mode:
        error("--exposure applies only with --risk-exposed/--risk-unexposed")
    from . import contingency, effect_bounds

    if or_mode:
        ceiling = effect_bounds.max_standardized_effect(odds_ratio)
        log_odds = math.log(odds_ratio)
        optimum = effect_bounds.optimal_risk(odds_ratio)
        results = {
            "log_odds": log_odds,
            "max_standardized_effect": ceiling,
            "bound_curve": effect_bounds.bound_curve(log_odds),
            "bound_curve_derivative": effect_bounds.bound_curve_derivative(log_odds),
            **{f"optimal_{name}": value for name, value in vars(optimum).items()},
        }
        if args.rr is not None:
            results["min_variance_exposure"] = effect_bounds.min_variance_exposure(
                args.rr, odds_ratio
            )
        return results
    if pq_mode:
        p, q = args.p, args.q
        _check_probability("--p", p)
        _check_probability("--q", q)
        w_min = effect_bounds.min_variance_prevalence(p, q)
        prevalence = args.prevalence if args.prevalence is not None else w_min
        risks = contingency.cohort_to_risk(
            contingency.CohortParams(p, q, prevalence)
        )
        # The transposed table's risk triple: its cells, so its odds ratio and
        # variance factor, are this design's, with no derived risk in between.
        summary = effect_bounds.summarize_risk(contingency.RiskParams(p, q, prevalence))
        return {
            "odds_ratio": summary.odds_ratio,
            "max_standardized_effect": effect_bounds.max_standardized_effect(
                summary.odds_ratio
            ),
            "min_variance_prevalence": w_min,
            "sigma_at_min": math.sqrt(
                effect_bounds.sigma2_by_prevalence(w_min, p, q)
            ),
            "prevalence_used": prevalence,
            **vars(risks),
            "standardized_effect": summary.standardized,
        }
    exposure = args.exposure if args.exposure is not None else 0.5
    risks = contingency.RiskParams(args.risk_exposed, args.risk_unexposed, exposure)
    summary = effect_bounds.summarize_risk(risks)
    cohort = contingency.risk_to_cohort(risks)
    # sigma2_by_exposure is sigma2_by_prevalence of the same triple, so the
    # two share a minimizer, taken from the risks with no ratio in between.
    v_min = effect_bounds._variance_minimizer(
        args.risk_exposed, args.risk_unexposed, "exposure"
    )
    return {
        **_renamed(summary, standardized="standardized_effect"),
        **vars(cohort),
        "min_variance_exposure": v_min,
        "sigma_at_min": math.sqrt(
            effect_bounds.sigma2_by_exposure(
                v_min, args.risk_exposed, args.risk_unexposed
            )
        ),
    }


def _constants_results(args: argparse.Namespace) -> dict:
    from . import effect_bounds, kepler

    constants = effect_bounds.bound_constants()
    return {**vars(constants), "series_radius": kepler.series_radius()}


def _kepler_solve_results(args: argparse.Namespace) -> dict:
    from . import kepler

    solution = kepler.kepler_solve(
        kepler.KeplerProblem(args.m, args.eps), tol=args.tol
    )
    return {
        **_renamed(solution, iterations_or_order="iterations"),
        "mean_anomaly_check": kepler.mean_anomaly(
            solution.eccentric_anomaly, args.eps
        ),
    }


def _kepler_series_results(args: argparse.Namespace) -> dict:
    from . import kepler

    solution = kepler.kepler_series(kepler.KeplerProblem(args.m, args.eps), args.order)
    return _renamed(solution, iterations_or_order="order")


def _kepler_diverge_results(args: argparse.Namespace) -> dict:
    from . import kepler

    problem = kepler.KeplerProblem(args.m, args.eps)
    newton = kepler.kepler_solve(problem, tol=args.tol).eccentric_anomaly
    sums = kepler.series_partial_sums(problem, args.max_order)
    rows = [
        {
            "order": order,
            "eccentric_anomaly": estimate,
            "abs_error": abs(estimate - newton),
        }
        for order, estimate in enumerate(sums, start=1)
    ]
    return {"newton_eccentric_anomaly": newton, "rows": rows}


def _prior_flattest_results(args: argparse.Namespace) -> dict:
    from . import bayes_prior, numerics

    smallest = bayes_prior.flattest_sigma(args.or_threshold)
    assumed = args.sigma if args.sigma is not None else smallest
    spec = bayes_prior.flattest_prior(args.or_threshold, args.tail_mass, assumed)
    return {
        "assumed_sigma": spec.assumed_sigma,
        "flattest_sigma": smallest,
        "tail_quantile": numerics.p_to_z(args.tail_mass),
        "prior_variance": spec.prior_variance,
    }


def _prior_pathway_results(args: argparse.Namespace) -> dict:
    from . import bayes_prior

    odds_ratio = getattr(args, "or")  # a keyword, so not args.or
    return bayes_prior.prevalence_pathway(odds_ratio, args.risk_exposed)._asdict()


def _verify_results(args: argparse.Namespace) -> dict:
    from . import effect_bounds

    report = effect_bounds.verify_bound(args.samples, args.seed)
    return {
        **{name: value for name, value in vars(report).items() if name != "arg_max"},
        **{f"argmax_{name}": value for name, value in vars(report.arg_max).items()},
    }


def _pz_results(args: argparse.Namespace) -> dict:
    from . import numerics

    if args.p is not None:
        return {"z": numerics.p_to_z(args.p)}
    return {"p": numerics.z_to_p(args.z)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="keplor",
        description=(
            "Effect-size bounds for 2x2 tables, the Laplace limit constant, "
            "and Kepler solvers."
        ),
    )
    _add_format(parser, top_level=True)
    subparsers = parser.add_subparsers(dest="command", required=True)
    leaves = []

    def leaf(group, command: str, results, help: str) -> argparse.ArgumentParser:
        """Add the leaf parser of `command`; route it to `results` and its error()."""
        sub = group.add_parser(command.split()[-1], help=help)
        sub.set_defaults(handler=(command, results, sub.error))
        leaves.append(sub)
        return sub

    table = leaf(subparsers, "table", _table_results, "2x2 table estimators")
    source = table.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--counts",
        type=_counts_argument,
        help="four comma-separated counts n11,n12,n21,n22",
    )
    source.add_argument("--file", help="path to a file holding one counts line")
    table.add_argument(
        "--correction",
        action="store_true",
        help="add 0.5 to every cell before estimating",
    )

    bounds = leaf(
        subparsers,
        "bounds",
        _bounds_results,
        "standardized-effect ceiling and variance minimizers",
    )
    bounds.add_argument("--or", type=float, help="odds ratio")
    bounds.add_argument(
        "--rr", type=float, help="risk ratio (with --or: variance-minimizing exposure)"
    )
    bounds.add_argument("--p", type=float, help="exposure probability among cases")
    bounds.add_argument("--q", type=float, help="exposure probability among controls")
    bounds.add_argument(
        "--prevalence", type=float, help="case prevalence (with --p/--q)"
    )
    bounds.add_argument("--risk-exposed", type=float, help="risk among the exposed")
    bounds.add_argument(
        "--risk-unexposed", type=float, help="risk among the unexposed"
    )
    bounds.add_argument(
        "--exposure", type=float, help="pooled exposure (with the risk pair)"
    )

    leaf(
        subparsers,
        "constants",
        _constants_results,
        "attainment constants and the series radius",
    )

    kepler_parser = subparsers.add_parser("kepler", help="Kepler-equation tools")
    kepler_sub = kepler_parser.add_subparsers(dest="command", required=True)
    solve = leaf(
        kepler_sub,
        "kepler solve",
        _kepler_solve_results,
        "Newton solve of M = E - eps*sin(E)",
    )
    series = leaf(
        kepler_sub, "kepler series", _kepler_series_results, "eccentricity power series"
    )
    diverge = leaf(
        kepler_sub,
        "kepler diverge-table",
        _kepler_diverge_results,
        "series error against Newton, order by order",
    )
    for sub in (solve, series, diverge):
        sub.add_argument(
            "--m", type=float, required=True, help="mean anomaly (radians)"
        )
        sub.add_argument("--eps", type=float, required=True, help="eccentricity")
    solve.add_argument("--tol", type=float, default=1e-12, help="residual tolerance")
    series.add_argument("--order", type=int, required=True, help="truncation order")
    diverge.add_argument(
        "--max-order", type=int, required=True, help="largest order to tabulate"
    )
    diverge.add_argument("--tol", type=float, default=1e-12, help="Newton tolerance")

    prior = subparsers.add_parser("prior", help="prior-specification helpers")
    prior_sub = prior.add_subparsers(dest="command", required=True)

    flattest = leaf(
        prior_sub,
        "prior flattest",
        _prior_flattest_results,
        "flattest prior variance from a tail statement",
    )
    flattest.add_argument(
        "--or-threshold", type=float, required=True, help="odds-ratio threshold (> 1)"
    )
    flattest.add_argument(
        "--tail-mass",
        type=float,
        required=True,
        help="probability that the odds ratio exceeds the threshold",
    )
    flattest.add_argument(
        "--sigma",
        type=float,
        help="assumed sigma (default: the smallest attainable one)",
    )

    pathway = leaf(
        prior_sub,
        "prior wm-pathway",
        _prior_pathway_results,
        "sigma at the variance-minimizing prevalence",
    )
    pathway.add_argument("--or", type=float, required=True, help="odds ratio")
    pathway.add_argument(
        "--risk-exposed", type=float, required=True, help="assumed risk among exposed"
    )

    verify = leaf(
        subparsers,
        "verify",
        _verify_results,
        "brute-force check of the standardized-effect ceiling",
    )
    verify.add_argument("--samples", type=int, required=True, help="number of samples")
    verify.add_argument("--seed", type=int, required=True, help="random seed")

    pz = leaf(subparsers, "pz", _pz_results, "p-value / normal statistic conversion")
    direction = pz.add_mutually_exclusive_group(required=True)
    direction.add_argument("--p", type=float, help="upper-tail p-value")
    direction.add_argument("--z", type=float, help="normal test statistic")

    # Last, so that --format closes every leaf's usage and help.
    for sub in leaves:
        _add_format(sub)
    return parser


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    text = str(value)
    # A line break inside a value would end its key=value line early.
    if text.splitlines() != [text]:
        return text.encode("unicode_escape").decode("ascii")
    return text


def _render_text(envelope: dict) -> str:
    lines = [f"command={envelope['command']}", f"status={envelope['status']}"]
    if "error_message" in envelope:
        lines.append(f"error_message={_format_value(envelope['error_message'])}")
    for key in sorted(envelope["inputs"]):
        lines.append(f"input.{key}={_format_value(envelope['inputs'][key])}")
    results = envelope["results"]
    for key in sorted(results):
        value = results[key]
        if isinstance(value, list):
            for index, row in enumerate(value):
                for field in sorted(row):
                    lines.append(
                        f"result.{key}[{index}].{field}={_format_value(row[field])}"
                    )
        else:
            lines.append(f"result.{key}={_format_value(value)}")
    return "\n".join(lines) + "\n"


def _strict(value: Any) -> Any:
    """`value` with each non-finite float as the string JSON would name it."""
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_strict(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return json.dumps(value)  # "NaN", "Infinity" or "-Infinity"
    return value


def _render_json(envelope: dict) -> str:
    """Strict JSON (RFC 8259): each NaN or infinity is written as a quoted name."""
    try:
        return json.dumps(envelope, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        return json.dumps(_strict(envelope), sort_keys=True, indent=2, allow_nan=False)


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The one parser `run` uses in a process; parsing never mutates it."""
    return build_parser()


def run(argv: Optional[list[str]] = None) -> int:
    """Parse argv, execute, print the envelope; returns the exit code."""
    try:
        args = _parser().parse_args(argv)
        command, results, _ = args.handler
        envelope: dict[str, Any] = {"command": command, "inputs": _inputs(args)}
        envelope["results"] = results(args)
        envelope["status"] = "ok"
        code = 0
    except SystemExit as exc:  # a usage error, from parsing or from bounds' modes
        return exc.code
    except KeplorError as exc:
        envelope["results"] = {}
        envelope["status"] = "error"
        envelope["error_message"] = str(exc)
        code = 1
    if args.format == "text":
        sys.stdout.write(_render_text(envelope))
    else:
        sys.stdout.write(_render_json(envelope) + "\n")
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
