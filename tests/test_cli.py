import contextlib
import io
import json
import math
import pathlib
import shlex
import subprocess
import sys

import pytest
from hypothesis import example, given, strategies as st

from draws import PROBABILITIES
from goldens import GOLDENS, leaves
from keplor import cli
from keplor.cli import build_parser, main, run
from keplor.contingency import CohortParams, RiskParams, cohort_to_risk, risk_to_cohort
from keplor.effect_bounds import max_standardized_effect, min_variance_prevalence
from keplor.effect_bounds import summarize_risk
from keplor.kepler import KeplerProblem, kepler_series, kepler_solve, mean_anomaly

GOLDEN = pathlib.Path(__file__).parent / "golden"
README = pathlib.Path(__file__).parent.parent / "README.md"


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGoldenOutputs:
    def test_one_argv_per_golden_file(self):
        assert sorted(GOLDENS) == sorted(path.name for path in GOLDEN.iterdir())

    @pytest.mark.parametrize("name", GOLDENS)
    def test_byte_identical(self, capsys, name):
        code, out, err = capture(capsys, GOLDENS[name])
        assert code == 0
        assert err == ""
        assert out == (GOLDEN / name).read_text()

    def test_repeat_runs_identical(self, capsys):
        first = capture(capsys, ["verify", "--samples", "500", "--seed", "3"])
        second = capture(capsys, ["verify", "--samples", "500", "--seed", "3"])
        assert first == second


def _readme_commands():
    """The argv of each `keplor ...` line in the README's sh blocks."""
    blocks = README.read_text(encoding="utf-8").split("```")[1::2]
    lines = [
        line for block in blocks if block.startswith("sh\n") for line in block.splitlines()
    ]
    return [shlex.split(line)[1:] for line in lines if line.startswith("keplor ")]


class TestReadmeCommands:
    def test_every_readme_command_answers(self, capsys, monkeypatch, tmp_path):
        # The README's examples run as written, table.txt included.
        (tmp_path / "table.txt").write_text("20,10,10,20\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        commands = _readme_commands()
        assert ["bounds", "--p", "0.667", "--q", "0.333", "--prevalence", "0.5"] in commands
        for argv in commands:
            code, out, err = capture(capsys, argv)
            assert (code, err) == (0, ""), argv
            if "--format" in argv and argv[argv.index("--format") + 1] == "text":
                assert out.splitlines()[1] == "status=ok", argv
            else:
                assert json.loads(out)["status"] == "ok", argv


class TestFormats:
    def test_flag_position_agnostic(self, capsys):
        before = capture(capsys, ["--format", "text", "constants"])
        after = capture(capsys, ["constants", "--format", "text"])
        assert before == after
        assert before[0] == 0

    def test_text_rendering(self, capsys):
        code, out, err = capture(capsys, ["kepler", "solve", "--m", "1", "--eps", "0.5", "--format", "text"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "command=kepler solve"
        assert lines[1] == "status=ok"
        input_lines = [line for line in lines if line.startswith("input.")]
        result_lines = [line for line in lines if line.startswith("result.")]
        assert input_lines == sorted(input_lines)
        assert result_lines == sorted(result_lines)
        assert "input.m=1.0" in lines
        assert any(line.startswith("result.eccentric_anomaly=1.498701") for line in lines)

    def test_json_parses_and_sorted(self, capsys):
        code, out, _ = capture(
            capsys,
            ["prior", "flattest", "--or-threshold", "2", "--tail-mass", "0.025",
             "--sigma", "1.0458756138848129"],
        )
        assert code == 0
        envelope = json.loads(out)
        assert list(envelope) == sorted(envelope)
        assert envelope["status"] == "ok"
        assert math.sqrt(envelope["results"]["prior_variance"]) == pytest.approx(
            0.338141, abs=1e-6
        )

    @pytest.mark.parametrize(
        "argv,key,name",
        [
            (["pz", "--z", "nan"], "input.z", "NaN"),
            (["bounds", "--or", "inf"], "input.or", "Infinity"),
            (["kepler", "solve", "--m=-inf", "--eps", "0.5"], "input.m", "-Infinity"),
            (["table", "--counts", f"{10**200},1,1,{10**200}"], "result.odds_ratio", "Infinity"),
        ],
    )
    def test_non_finite_floats_are_quoted_names(self, capsys, argv, key, name):
        # JSON (RFC 8259) has no NaN or Infinity token; text keeps repr's name.
        code, out, err = capture(capsys, argv)
        assert err == ""
        section, field = key.split(".")
        assert json.loads(out, parse_constant=_no_constant)[f"{section}s"][field] == name
        text_code, text_out, _ = capture(capsys, argv + ["--format", "text"])
        assert text_code == code
        assert f"{key}={_TEXT_NAMES[name]}" in text_out.splitlines()

    def test_non_finite_floats_in_a_list_are_quoted_names(self):
        # No command prints a non-finite value inside a list, so only a
        # direct call reaches this branch of the renderer.
        envelope = {"results": {"rows": [{"x": math.nan}, {"x": -math.inf}, 1.5]}}
        rows = json.loads(cli._render_json(envelope), parse_constant=_no_constant)
        assert rows["results"]["rows"] == [{"x": "NaN"}, {"x": "-Infinity"}, 1.5]

    def test_default_sigma_is_flattest(self, capsys):
        code, out, _ = capture(
            capsys, ["prior", "flattest", "--or-threshold", "2", "--tail-mass", "0.025"]
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["assumed_sigma"] == results["flattest_sigma"]
        assert results["assumed_sigma"] == pytest.approx(4.060207060512871, rel=1e-12, abs=0)


class TestTableFileMode:
    def test_matches_counts_mode(self, capsys, tmp_path):
        counts_run = capture(capsys, ["table", "--counts", "12,3,4,9"])
        table_file = tmp_path / "table.txt"
        table_file.write_text("12,3,4,9\n")
        file_run = capture(capsys, ["table", "--file", str(table_file)])
        assert file_run[0] == 0
        counts_json = json.loads(counts_run[1])
        file_json = json.loads(file_run[1])
        assert counts_json["results"] == file_json["results"]

    def test_missing_file(self, capsys, tmp_path):
        code, out, _ = capture(capsys, ["table", "--file", str(tmp_path / "gone.txt")])
        assert code == 1
        assert json.loads(out)["status"] == "error"

    def test_garbage_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 three 4")
        code, out, _ = capture(capsys, ["table", "--file", str(bad)])
        assert code == 1

    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\x0b", "\x1c", "\x85", "\u2028", "\u2029"])
    def test_line_break_in_path_keeps_one_pair_per_line(self, capsys, tmp_path, brk):
        path = str(tmp_path / f"no{brk}such")
        code, out, err = capture(capsys, ["table", "--file", path, "--format", "text"])
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert all("=" in line for line in lines)
        escaped = path.encode("unicode_escape").decode("ascii")
        assert f"input.file={escaped}" in lines

    def test_non_utf8_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe1,2,3,4")
        code, out, err = capture(capsys, ["table", "--file", str(bad)])
        assert (code, err) == (1, "")
        envelope = json.loads(out)
        assert envelope["status"] == "error"
        assert envelope["error_message"].startswith(f"cannot read table file {str(bad)!r}: ")
        assert "can't decode byte 0xff" in envelope["error_message"]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["table"],
            ["table", "--counts", "1,2,3"],
            ["table", "--counts", "a,b,c,d"],
            ["table", "--counts", "1,2,3,4", "--file", "x"],
            ["bounds"],
            ["bounds", "--or", "4", "--p", "0.5", "--q", "0.2"],
            ["bounds", "--p", "0.5"],
            ["bounds", "--or", "4", "--rr", "2", "--prevalence", "0.3"],
            ["bounds", "--risk-exposed", "0.5", "--exposure", "0.3"],
            ["kepler", "solve", "--m", "1"],
            ["pz"],
            ["pz", "--p", "0.1", "--z", "1.0"],
            ["prior", "flattest"],
            ["nonsense"],
            # A leading "-1" would be read as an option; "-1" after "1," is a count.
            ["table", "--counts", "1,-1,1,1"],
        ],
    )
    def test_exit_two(self, capsys, argv):
        code, out, err = capture(capsys, argv)
        assert code == 2
        assert out == ""
        assert err != ""

    @pytest.mark.parametrize(
        "argv,prog", [([], "keplor"), (["kepler"], "keplor kepler"), (["prior"], "keplor prior")]
    )
    def test_missing_subcommand_is_named_command(self, capsys, argv, prog):
        code, out, err = capture(capsys, argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            f"{prog}: error: the following arguments are required: command"
        )

    @pytest.mark.parametrize(
        "argv,prog",
        [(["bogus"], "keplor"), (["kepler", "bogus"], "keplor kepler"), (["prior", "bogus"], "keplor prior")],
    )
    def test_unknown_subcommand_is_named_command(self, capsys, argv, prog):
        # The list of choices that follows is quoted differently across versions.
        code, out, err = capture(capsys, argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].startswith(
            f"{prog}: error: argument command: invalid choice: 'bogus'"
        )

    @pytest.mark.parametrize(
        "options,message",
        [
            (
                [],
                "choose exactly one input mode: --or, --p/--q, or "
                "--risk-exposed/--risk-unexposed",
            ),
            (["--q", "0.2"], "--p and --q must be given together"),
            (
                ["--risk-unexposed", "0.2"],
                "--risk-exposed and --risk-unexposed must be given together",
            ),
            (["--p", "0.5", "--q", "0.2", "--rr", "2"], "--rr applies only with --or"),
            (["--or", "4", "--prevalence", "0.3"], "--prevalence applies only with --p/--q"),
            (
                ["--or", "4", "--exposure", "0.3", "--format", "text"],
                "--exposure applies only with --risk-exposed/--risk-unexposed",
            ),
        ],
    )
    def test_bounds_mode_errors(self, capsys, monkeypatch, options, message):
        # The leaf parser reports them as argparse reports any usage error:
        # its usage line, wrapped to COLUMNS, then the message.
        monkeypatch.setenv("COLUMNS", "80")
        usage = dict(leaves(build_parser()))["bounds"].format_usage()
        assert capture(capsys, ["bounds", *options]) == (
            2,
            "",
            f"{usage}keplor bounds: error: {message}\n",
        )


class TestCommandDeclarations:
    def test_leaf_options_in_declaration_order(self):
        # The order fixes the help and usage text; --format closes every leaf.
        options = {
            command: [flag for action in leaf._actions for flag in action.option_strings]
            for command, leaf in leaves(build_parser())
        }
        expected = {
            "table": ["-h", "--help", "--counts", "--file", "--correction", "--format"],
            "bounds": [
                "-h", "--help", "--or", "--rr", "--p", "--q", "--prevalence",
                "--risk-exposed", "--risk-unexposed", "--exposure", "--format",
            ],
            "constants": ["-h", "--help", "--format"],
            "kepler solve": ["-h", "--help", "--m", "--eps", "--tol", "--format"],
            "kepler series": ["-h", "--help", "--m", "--eps", "--order", "--format"],
            "kepler diverge-table": [
                "-h", "--help", "--m", "--eps", "--max-order", "--tol", "--format",
            ],
            "prior flattest": [
                "-h", "--help", "--or-threshold", "--tail-mass", "--sigma", "--format",
            ],
            "prior wm-pathway": ["-h", "--help", "--or", "--risk-exposed", "--format"],
            "verify": ["-h", "--help", "--samples", "--seed", "--format"],
            "pz": ["-h", "--help", "--p", "--z", "--format"],
        }
        assert list(options.items()) == list(expected.items())

    def test_help_shows_no_internal_dest(self):
        # Each input has one name, the option's own, and each routing level
        # is "command": argparse prints no second name in help or usage.
        for command, leaf in leaves(build_parser()):
            text = leaf.format_help()
            for name in ("or_value", "OR_VALUE", "kepler_command", "prior_command"):
                assert name not in text, (command, name)

    @pytest.mark.parametrize(
        "argv,inputs,results",
        [
            (
                "table --counts 1,2,3,4",
                "correction counts",
                "case_fraction exposure_cases exposure_controls log_odds odds_ratio "
                "t_statistic total",
            ),
            (
                "bounds --or 4",
                "or",
                "bound_curve bound_curve_derivative log_odds max_standardized_effect "
                "optimal_exposure optimal_risk_exposed optimal_risk_unexposed",
            ),
            (
                "bounds --or 4 --rr 1.5",
                "or rr",
                "bound_curve bound_curve_derivative log_odds max_standardized_effect "
                "min_variance_exposure optimal_exposure optimal_risk_exposed "
                "optimal_risk_unexposed",
            ),
            (
                "bounds --p 0.3 --q 0.2",
                "p q",
                "exposure log_odds max_standardized_effect min_variance_prevalence "
                "odds_ratio prevalence_used risk_exposed risk_unexposed sigma "
                "sigma_at_min standardized_effect",
            ),
            (
                "bounds --p 0.3 --q 0.2 --prevalence 0.1",
                "p prevalence q",
                "exposure log_odds max_standardized_effect min_variance_prevalence "
                "odds_ratio prevalence_used risk_exposed risk_unexposed sigma "
                "sigma_at_min standardized_effect",
            ),
            (
                "bounds --risk-exposed 0.3 --risk-unexposed 0.2 --exposure 0.4",
                "exposure risk_exposed risk_unexposed",
                "exposure_cases exposure_controls exposure_used log_odds "
                "max_standardized_effect min_variance_exposure odds_ratio prevalence "
                "risk_ratio sigma sigma_at_min standardized_effect",
            ),
            (
                "constants",
                "",
                "laplace_limit peak_log_or peak_or peak_risk series_radius tanh_root",
            ),
            (
                "kepler solve --m 1 --eps 0.5",
                "eps m tol",
                "eccentric_anomaly iterations mean_anomaly_check method residual",
            ),
            (
                "kepler series --m 1 --eps 0.5 --order 3",
                "eps m order",
                "eccentric_anomaly method order residual",
            ),
            (
                "kepler diverge-table --m 1 --eps 0.5 --max-order 2",
                "eps m max_order tol",
                "newton_eccentric_anomaly rows",
            ),
            (
                "prior flattest --or-threshold 2 --tail-mass 0.05",
                "or_threshold tail_mass",
                "assumed_sigma flattest_sigma prior_variance tail_quantile",
            ),
            (
                "prior wm-pathway --or 2 --risk-exposed 0.1",
                "or risk_exposed",
                "prevalence risk_ratio risk_unexposed sigma",
            ),
            (
                "verify --samples 10 --seed 1",
                "samples seed",
                "argmax_exposure argmax_risk_exposed argmax_risk_unexposed bound "
                "max_gamma_observed samples violations",
            ),
            ("pz --p 0.05", "p", "z"),
            ("pz --z 1", "z", "p"),
        ],
    )
    def test_frozen_keys(self, capsys, argv, inputs, results):
        # Renaming a library field must not silently change the CLI schema.
        code, out, _ = capture(capsys, argv.split())
        assert code == 0
        envelope = json.loads(out)
        assert list(envelope) == ["command", "inputs", "results", "status"]
        assert list(envelope["inputs"]) == inputs.split()
        assert list(envelope["results"]) == results.split()
        for row in envelope["results"].get("rows", []):
            assert list(row) == ["abs_error", "eccentric_anomaly", "order"]

    @pytest.mark.parametrize(
        "counts,echo",
        [
            (" 20, 10 ,10,20 ", "20,10,10,20"),
            ("+5,0_1,007,1", "5,1,7,1"),
        ],
    )
    def test_counts_echo_is_canonical(self, capsys, counts, echo):
        # Each count is echoed as the integer it was read as, in both formats.
        code, out, _ = capture(capsys, ["table", "--counts", counts])
        assert code == 0
        assert json.loads(out)["inputs"]["counts"] == echo
        code, out, _ = capture(capsys, ["table", "--counts", counts, "--format", "text"])
        assert code == 0
        assert f"input.counts={echo}" in out.splitlines()


class TestDomainErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--counts", "0,10,0,20"],
            ["bounds", "--or", "-1"],
            ["kepler", "solve", "--m", "1", "--eps", "1.0"],
            ["kepler", "series", "--m", "1", "--eps", "0.3", "--order", "65"],
            ["pz", "--p", "1.5"],
            ["prior", "flattest", "--or-threshold", "0.5", "--tail-mass", "0.025"],
            ["verify", "--samples", "0", "--seed", "1"],
            ["kepler", "diverge-table", "--m", "1", "--eps", "0.3", "--max-order", "0"],
            # Past the double range: a count, a variance denominator, a
            # pooled exposure and an odds ratio.
            ["table", "--counts", f"{10**400},1,1,1"],
            ["table", "--counts", f"{10**400},1,1,1", "--correction"],
            ["bounds", "--risk-exposed", "0.9999999999999999", "--risk-unexposed", "5e-324"],
            ["bounds", "--p", "5e-324", "--q", "5e-324"],
            [
                "bounds",
                "--risk-exposed",
                "5e-324",
                "--risk-unexposed",
                "0.9037397020443425",
                "--exposure",
                "1e-17",
            ],
        ],
    )
    def test_exit_one_with_error_envelope(self, capsys, argv):
        code, out, err = capture(capsys, argv)
        assert code == 1
        assert err == ""
        envelope = json.loads(out)
        assert envelope["status"] == "error"
        assert envelope["results"] == {}
        assert envelope["error_message"]

    @pytest.mark.parametrize(
        "argv,message",
        [
            # The variance-minimizing prevalence is 4.4e-162, but the risk
            # among the exposed it implies, 1 - 2.2e-162, rounds to 1.0.
            (["bounds", "--p", "0.5", "--q", "5e-324"], "derived risk_exposed 1.0 falls outside (0, 1)"),
            # Here the minimizer itself, 1 - 4.4e-162, rounds to 1.0.
            (["bounds", "--p", "5e-324", "--q", "0.5"], "derived prevalence 1.0 falls outside (0, 1)"),
            # risk_unexposed is 1 - 3.7e-32 for these input doubles, which
            # rounds to 1.0.
            (
                [
                    "bounds", "--p", "0.667", "--q", "0.9999999999999999",
                    "--prevalence", "0.9999999999999999",
                ],
                "derived risk_unexposed 1.0 falls outside (0, 1)",
            ),
            # The optimal risks 1 - 1e-20 round to 1.0, on either side.
            (["bounds", "--or", "1e40"], "derived risk_exposed 1.0 falls outside (0, 1)"),
            (["bounds", "--or", "1e-40"], "derived risk_unexposed 1.0 falls outside (0, 1)"),
            # The cohort parameters of a risk pair: 1 / (1 + 1e-100) rounds to 1.0.
            (
                ["bounds", "--risk-exposed", "1e-200", "--risk-unexposed", "1e-300"],
                "derived exposure_cases 1.0 falls outside (0, 1)",
            ),
            (
                [
                    "bounds", "--risk-exposed", "1e-300", "--risk-unexposed", "0.7",
                    "--exposure", "0.9999999999999999",
                ],
                "derived exposure_controls 1.0 falls outside (0, 1)",
            ),
            # The variance-minimizing prevalence, 1 - 3e-150, rounds to 1.0.
            (
                ["prior", "wm-pathway", "--or", "1e300", "--risk-exposed", "0.5"],
                "derived prevalence 1.0 falls outside (0, 1)",
            ),
            # min_variance_exposure is 1 / (1 + 1e-50) here, with no --exposure
            # given, and 1 / (1 + 5e-21) with --rr.
            (
                ["bounds", "--risk-exposed", "1e-300", "--risk-unexposed", "1e-200"],
                "derived exposure 1.0 falls outside (0, 1)",
            ),
            (["bounds", "--or", "4", "--rr", "1e-20"], "derived exposure 1.0 falls outside (0, 1)"),
            # Risks of 5e-324 have sigma 9.0e161, but their mix, the prevalence,
            # underflows to 0.  With exposure 5e-324 too, sigma is about
            # 2**1074, past the largest double; so is the odds ratio 0.3/0.7
            # over 5e-324.
            (
                ["bounds", "--risk-exposed", "5e-324", "--risk-unexposed", "5e-324"],
                "derived prevalence 0.0 falls outside (0, 1)",
            ),
            (
                [
                    "bounds", "--risk-exposed", "5e-324", "--risk-unexposed", "0.5",
                    "--exposure", "5e-324",
                ],
                "derived sigma inf falls outside (0, inf)",
            ),
            (
                ["bounds", "--risk-exposed", "0.3", "--risk-unexposed", "5e-324"],
                "derived odds_ratio inf falls outside (0, inf)",
            ),
            # The odds ratio of a --p/--q pair, 1e10 over 1e-300, overflows.
            (
                ["bounds", "--p", "0.9999999999", "--q", "1e-300", "--prevalence", "1e-290"],
                "derived odds_ratio inf falls outside (0, inf)",
            ),
            # The prior variance (ln 2 / 1e-300 / 1.96)^2 overflows, and
            # (ln(1 + 2^-52) / 1e300 / 1.96)^2 underflows.
            (
                [
                    "prior", "flattest", "--or-threshold", "2", "--tail-mass", "0.025",
                    "--sigma", "1e-300",
                ],
                "derived prior_variance inf falls outside (0, inf)",
            ),
            (
                [
                    "prior", "flattest", "--or-threshold", "1.0000000000000002",
                    "--tail-mass", "0.025", "--sigma", "1e300",
                ],
                "derived prior_variance 0.0 falls outside (0, inf)",
            ),
            # The odds ratio 5e-324 / 9.38 of this risk pair underflows to 0.
            (
                [
                    "bounds", "--risk-exposed", "5e-324", "--risk-unexposed",
                    "0.9037397020443425", "--exposure", "1e-17",
                ],
                "derived odds_ratio 0.0 falls outside (0, inf)",
            ),
        ],
    )
    def test_unrepresentable_derived_values_are_named_as_derived(self, capsys, argv, message):
        code, out, err = capture(capsys, argv)
        assert (code, err) == (1, "")
        assert json.loads(out)["error_message"] == message

    def test_infinite_odds_ratio_names_finiteness(self, capsys):
        # The odds ratio of this risk pair overflows to inf: the message must
        # name the condition that failed, not positivity alone.
        argv = ["bounds", "--risk-exposed", "0.9999999999999999", "--risk-unexposed", "1e-300"]
        code, out, err = capture(capsys, argv)
        assert (code, err) == (1, "")
        envelope = json.loads(out)
        assert envelope["error_message"] == "derived odds_ratio inf falls outside (0, inf)"


class TestSpotValues:
    def test_bounds_or_mode(self, capsys):
        code, out, _ = capture(capsys, ["bounds", "--or", "4"])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["max_standardized_effect"] == pytest.approx(
            math.log(4.0) / math.sqrt(18.0), rel=1e-12, abs=0
        )

    def test_kepler_series_spot(self, capsys):
        code, out, _ = capture(
            capsys, ["kepler", "series", "--m", "1", "--eps", "0.1", "--order", "10"]
        )
        assert code == 0
        results = json.loads(out)["results"]
        truth = json.loads(
            capture(capsys, ["kepler", "solve", "--m", "1", "--eps", "0.1"])[1]
        )["results"]["eccentric_anomaly"]
        assert results["eccentric_anomaly"] == pytest.approx(truth, abs=1e-9)

    def test_diverge_table_rows(self, capsys):
        code, out, _ = capture(
            capsys,
            ["kepler", "diverge-table", "--m", "1.5707963267948966", "--eps", "0.8", "--max-order", "12"],
        )
        assert code == 0
        results = json.loads(out)["results"]
        rows = results["rows"]
        assert [row["order"] for row in rows] == list(range(1, 13))
        assert all(row["abs_error"] >= 0.0 for row in rows)
        # At the order cap, each row is the order-n series bit for bit.
        for m in (math.pi / 2, -20.5, 1e6):
            for eps in (0.3, 0.8):
                argv = ["kepler", "diverge-table", "--m", repr(m), "--eps", repr(eps)]
                code, out, _ = capture(capsys, argv + ["--max-order", "64"])
                assert code == 0
                results = json.loads(out)["results"]
                newton = results["newton_eccentric_anomaly"]
                problem = KeplerProblem(m, eps)
                assert [row["order"] for row in results["rows"]] == list(range(1, 65))
                for row in results["rows"]:
                    series = kepler_series(problem, row["order"]).eccentric_anomaly
                    assert row["eccentric_anomaly"] == series
                    assert row["abs_error"] == abs(series - newton)

    def test_pz_directions(self, capsys):
        code, out, _ = capture(capsys, ["pz", "--p", "0.025"])
        assert code == 0
        assert json.loads(out)["results"]["z"] == pytest.approx(1.959964, abs=1e-6)
        code, out, _ = capture(capsys, ["pz", "--z", "1.959964"])
        assert code == 0
        assert json.loads(out)["results"]["p"] == pytest.approx(0.025, abs=1e-6)

    def test_far_tail_inputs(self, capsys):
        # Far upper tails, where going through 1 - x rounds to 0 or 1.
        code, out, _ = capture(capsys, ["pz", "--z", "10"])
        assert code == 0
        # The bound of normal_cdf in test_accuracy.py.
        assert json.loads(out)["results"]["p"] == pytest.approx(
            7.619853024160525e-24, rel=6e-16, abs=0
        )
        argv = ["prior", "flattest", "--or-threshold", "2", "--tail-mass", "1e-17"]
        code, out, _ = capture(capsys, argv)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["tail_quantile"] == pytest.approx(8.493793224109599, rel=1e-14, abs=0)

    def test_overflowing_odds_ratio_stays_ok(self, capsys):
        # n11*n22 overflows: the odds ratio is inf, and its log and t come
        # from the cells (50-digit values rounded once to double).
        code, out, _ = capture(capsys, ["table", "--counts", f"{10**200},1,1,{10**200}"])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["odds_ratio"] == "Infinity"
        assert results["log_odds"] == pytest.approx(
            921.03403719761827360719658187374568304044059545151, rel=1e-15, abs=0
        )
        assert results["t_statistic"] == pytest.approx(
            651.26941340605873784529292219885742802960505522282, rel=1e-15, abs=0
        )

    def test_underflowing_odds_ratio_stays_ok(self, capsys):
        # n12*n21 overflows: the odds ratio rounds to 0, and its log and t
        # come from the cells (50-digit values rounded once to double).
        code, out, _ = capture(capsys, ["table", "--counts", f"2,{10**200},{10**200},1000"])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["odds_ratio"] == 0.0
        assert results["log_odds"] == pytest.approx(
            -913.43313473807619124572537538823441384956179085126, rel=1e-15, abs=0
        )
        assert results["t_statistic"] == pytest.approx(
            -1290.4996724005492970077191603117866542566316713131, rel=1e-15, abs=0
        )

    def test_wm_pathway(self, capsys):
        code, out, _ = capture(capsys, ["prior", "wm-pathway", "--or", "4", "--risk-exposed", "0.5"])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["risk_unexposed"] == 0.2
        assert results["sigma"] == pytest.approx(4.2690748412273125, rel=1e-12, abs=0)


def _assert_fields(results, record, **names):
    """`results` holds each field of `record`, under `names`' CLI name for it;
    a field that `names` maps to None is not printed."""
    for field, value in vars(record).items():
        name = names.get(field, field)
        if name is None:
            assert field not in results, field
        else:
            assert results[name] == value, field


class TestRecordResults:
    """A result key that is a library field holds that field of the record."""

    @pytest.mark.parametrize("m,eps,tol", [(1.0, 0.5, 1e-12), (-20.5, 0.9, 1e-15), (1e6, 0.0, 1e-3)])
    def test_kepler_solve(self, capsys, m, eps, tol):
        argv = ["kepler", "solve", "--m", repr(m), "--eps", repr(eps), "--tol", repr(tol)]
        code, out, _ = capture(capsys, argv)
        assert code == 0
        results = json.loads(out)["results"]
        solution = kepler_solve(KeplerProblem(m, eps), tol=tol)
        _assert_fields(results, solution, iterations_or_order="iterations")
        assert results["mean_anomaly_check"] == mean_anomaly(solution.eccentric_anomaly, eps)

    @pytest.mark.parametrize("m,eps,order", [(1.0, 0.5, 3), (2.5, 0.8, 64), (-7.0, 0.3, 1)])
    def test_kepler_series(self, capsys, m, eps, order):
        argv = ["kepler", "series", "--m", repr(m), "--eps", repr(eps), "--order", str(order)]
        code, out, _ = capture(capsys, argv)
        assert code == 0
        solution = kepler_series(KeplerProblem(m, eps), order)
        _assert_fields(json.loads(out)["results"], solution, iterations_or_order="order")

    @pytest.mark.parametrize(
        "exposed,unexposed,exposure",
        [(0.3, 0.2, None), (0.3, 0.2, 0.4), (1e-12, 0.999, 0.3), (0.999999, 1e-9, None)],
    )
    def test_bounds_risk_mode(self, capsys, exposed, unexposed, exposure):
        argv = ["bounds", "--risk-exposed", repr(exposed), "--risk-unexposed", repr(unexposed)]
        if exposure is not None:
            argv += ["--exposure", repr(exposure)]
        code, out, _ = capture(capsys, argv)
        assert code == 0
        results = json.loads(out)["results"]
        risks = RiskParams(exposed, unexposed, 0.5 if exposure is None else exposure)
        summary = summarize_risk(risks)
        _assert_fields(results, summary, standardized="standardized_effect")
        _assert_fields(results, risk_to_cohort(risks))
        assert results["exposure_used"] == risks.exposure
        assert results["max_standardized_effect"] == max_standardized_effect(
            summary.odds_ratio
        )

    @pytest.mark.parametrize(
        "p,q,prevalence",
        [(0.3, 0.2, None), (0.667, 0.333, 0.5), (1e-12, 0.999, 0.3), (0.999999, 1e-9, None)],
    )
    def test_bounds_cohort_mode(self, capsys, p, q, prevalence):
        argv = ["bounds", "--p", repr(p), "--q", repr(q)]
        if prevalence is not None:
            argv += ["--prevalence", repr(prevalence)]
        code, out, _ = capture(capsys, argv)
        assert code == 0
        results = json.loads(out)["results"]
        w_min = min_variance_prevalence(p, q)
        w = w_min if prevalence is None else prevalence
        summary = summarize_risk(RiskParams(p, q, w))
        # The transposed triple's risk_ratio is p/q, a ratio of exposure
        # probabilities, so it is not printed.
        _assert_fields(
            results, summary, standardized="standardized_effect", risk_ratio=None
        )
        _assert_fields(results, cohort_to_risk(CohortParams(p, q, w)))
        assert results["prevalence_used"] == w
        assert results["min_variance_prevalence"] == w_min
        assert results["max_standardized_effect"] == max_standardized_effect(
            summary.odds_ratio
        )


def _quiet_results(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, json.loads(out.getvalue())["results"]


def _both_modes(p, q, w):
    """The exit codes and results of bounds --p/--q and of its transpose."""
    cohort = _quiet_results(["bounds", f"--p={p!r}", f"--q={q!r}", f"--prevalence={w!r}"])
    risk = _quiet_results(
        ["bounds", f"--risk-exposed={p!r}", f"--risk-unexposed={q!r}", f"--exposure={w!r}"]
    )
    return cohort, risk


# Each --p/--q result key under its risk-mode name, where the two differ.
_TRANSPOSED = {
    "risk_exposed": "exposure_cases",
    "risk_unexposed": "exposure_controls",
    "exposure": "prevalence",
    "min_variance_prevalence": "min_variance_exposure",
    "prevalence_used": "exposure_used",
}


class TestTransposition:
    @given(p=PROBABILITIES, q=PROBABILITIES, w=PROBABILITIES)
    @example(p=0.667, q=0.9999999999999999, w=0.9999999999999999)
    @example(p=0.5, q=1e-14, w=0.5)
    @example(p=0.3, q=0.6, w=1e-308)
    @example(p=3.4616494723716854e-157, q=4.798226947564728e-125, w=1.599317181028437e-122)
    def test_cohort_and_risk_modes_read_one_table(self, p, q, w):
        # The cohort triple (p, q, w) is the risk triple of the transposed
        # table, whose cells are the design's: one summary, one Bayes map,
        # one minimizer and its sigma, so every key agrees bit for bit.
        (cohort_code, cohort), (risk_code, risk) = _both_modes(p, q, w)
        assert cohort_code == risk_code
        if cohort_code != 0:
            return
        # Only risk mode prints risk_ratio: the transposed triple's is p/q.
        renamed = [_TRANSPOSED.get(key, key) for key in cohort]
        assert sorted(risk) == sorted([*renamed, "risk_ratio"])
        for key, value in cohort.items():
            assert repr(value) == repr(risk[_TRANSPOSED.get(key, key)]), key

    def test_risk_mode_answers_a_minimizer_one_step_below_one(self):
        # rr/sqrt(or) = 8.5e-17 here, so 1/(1 + rr/sqrt(or)) rounds to 1.0;
        # the minimizer taken from the risks is 1 - 2**-53, as in --p/--q mode.
        risk = _quiet_results(
            [
                "bounds", "--risk-exposed", "3.4616494723716854e-157",
                "--risk-unexposed", "4.798226947564728e-125",
                "--exposure", "1.599317181028437e-122",
            ]
        )
        assert risk[0] == 0
        assert risk[1]["min_variance_exposure"] == 0.9999999999999999
        assert risk[1]["sigma_at_min"] == 1.6996459177669439e78

    def test_a_subnormal_variance_product_is_answered_in_both_modes(self):
        # 1e-308 * 0.3 * 0.7 is subnormal, but sigma, 2.18e154, is a double.
        cohort, risk = _both_modes(0.3, 0.6, 1e-308)
        assert (cohort[0], risk[0]) == (0, 0)
        for key in ("odds_ratio", "standardized_effect"):
            assert repr(cohort[1][key]) == repr(risk[1][key]), key


class TestEntryPoints:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()

    def test_parser_builds(self):
        parser = build_parser()
        assert parser.prog == "keplor"

    def test_main_exits_with_run_code(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["keplor", "constants"])
        with pytest.raises(SystemExit) as excinfo:
            main()
        assert excinfo.value.code == 0
        capsys.readouterr()

    def test_module_entry_point_prints_the_envelope(self, subprocess_env):
        done = subprocess.run(
            [sys.executable, "-m", "keplor.cli", "constants"],
            capture_output=True,
            env=subprocess_env,
            check=True,
        )
        assert done.stdout == (GOLDEN / "constants.json").read_bytes()
        assert done.stderr == b""


class TestParserReuse:
    def test_one_parser_serves_every_run(self, capsys):
        # A usage error, the top-level and the leaf-level --format, then the
        # goldens: nothing a parse sets may leak into the next run.
        cli._parser.cache_clear()
        code, out, err = capture(capsys, ["--format", "bogus", "constants"])
        assert (code, out) == (2, "") and "invalid choice: 'bogus'" in err
        code, top_text, _ = capture(capsys, ["--format", "text", "constants"])
        assert code == 0 and top_text.startswith("command=constants\n")
        code, leaf_text, _ = capture(
            capsys, ["kepler", "solve", "--m", "1", "--eps", "0.5", "--format", "text"]
        )
        assert code == 0 and leaf_text.startswith("command=kepler solve\n")
        for name, argv in (
            ("constants", ["constants"]),
            ("table", ["table", "--counts", "20,10,10,20"]),
            ("verify", ["verify", "--samples", "1000", "--seed", "7"]),
        ):
            assert capture(capsys, argv) == (0, (GOLDEN / f"{name}.json").read_text(), "")
        info = cli._parser.cache_info()
        assert (info.misses, info.hits) == (1, 5)


# The library modules each subcommand loads, besides keplor and keplor.cli.
_BOUNDS_MODULES = ["contingency", "effect_bounds", "errors"]
_CONSTANTS_MODULES = [*_BOUNDS_MODULES, "kepler", "numerics"]
_KEPLER_MODULES = ["errors", "kepler", "numerics"]
_PRIOR_MODULES = ["bayes_prior", *_BOUNDS_MODULES, "numerics"]


class TestLazyNumpy:
    @pytest.mark.parametrize(
        "command,code,loaded",
        [
            ("table --counts 1,2,3,4", 0, ["contingency", "errors"]),
            ("kepler solve --m 1 --eps 0.5", 0, _KEPLER_MODULES),
            ("kepler series --m 1 --eps 0.5 --order 3", 0, _KEPLER_MODULES),
            ("kepler diverge-table --m 1 --eps 0.5 --max-order 3", 0, _KEPLER_MODULES),
            ("constants", 0, _CONSTANTS_MODULES),
            ("bounds --or 4", 0, _BOUNDS_MODULES),
            ("prior flattest --or-threshold 2 --tail-mass 0.05", 0, [*_PRIOR_MODULES, "statistics"]),
            ("prior wm-pathway --or 2 --risk-exposed 0.1", 0, _PRIOR_MODULES),
            ("pz --p 0.05", 0, ["errors", "numerics", "statistics"]),
            ("verify --samples 10 --seed 1", 0, [*_CONSTANTS_MODULES, "numpy"]),
            ("bogus", 2, ["errors"]),
            ("kepler", 2, ["errors"]),
            ("bounds --p 0.5", 2, ["errors"]),
            ("pz --z 2", 0, ["errors", "numerics"]),
        ],
    )
    def test_each_command_loads_only_what_it_uses(self, subprocess_env, command, code, loaded):
        # The entry point as installed, in a fresh process: the package
        # namespace is lazy and each command imports its own modules.  Only a
        # normal quantile imports statistics, with fractions and decimal.
        probe = (
            "import contextlib, io, sys\n"
            "from keplor.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            "        main()\n"
            "    except SystemExit as exit:\n"
            "        code = exit.code\n"
            "names = [m for m in sys.modules if m in ('numpy', 'statistics') or m.startswith('keplor.')]\n"
            "print(code, *sorted(name.removeprefix('keplor.') for name in names))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe, *command.split()],
            capture_output=True,
            text=True,
            env=subprocess_env,
            check=True,
        )
        assert done.stdout.split() == [str(code), *sorted(["cli", *loaded])]

    def test_numpy_loaded_only_by_verify(self, subprocess_env):
        # Only verify needs numpy; importing the package or running another
        # subcommand must not pay for loading it, nor for the record and
        # rational-number machinery the package no longer uses.
        probe = (
            "import sys, io, contextlib\n"
            "import keplor\n"
            "from keplor import cli\n"
            "heavy = ('numpy', 'dataclasses', 'fractions', 'decimal', 'inspect')\n"
            "after_import = [m for m in heavy if m in sys.modules]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.run(['constants'])\n"
            "print(after_import, code, [m for m in heavy if m in sys.modules])\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=subprocess_env,
            check=True,
        )
        assert done.stdout.split() == ["[]", "0", "[]"]


# Every argv gets one envelope: numbers from the float extremes and counts
# past the double range, for every subcommand.
_EDGE_FLOATS = [
    math.nan,
    math.inf,
    -math.inf,
    0.0,
    -0.0,
    5e-324,
    1e-300,
    1e300,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    1e-17,
    0.9999999999999999,
    1.0,
]
_FLOATS = st.sampled_from(_EDGE_FLOATS) | st.floats(0.0, 1.0) | st.floats(-10.0, 10.0)
_COUNTS = st.sampled_from([0, 1, 2, 1000, 10**200, 10**400]) | st.integers(0, 50)
_COUNT_LISTS = st.lists(_COUNTS, min_size=4, max_size=4).map(
    lambda counts: ",".join(map(str, counts))
)
_FLAG = st.just(True)


def _command(words, required=(), optional=()):
    """argv strategy: the words, each required option, each optional one or not."""
    flags = [flag for flag, _ in required] + [flag for flag, _ in optional]
    values = [strategy for _, strategy in required]
    values += [st.none() | strategy for _, strategy in optional]

    def build(drawn):
        argv = list(words)
        for flag, value in zip(flags, drawn):
            if value is True:
                argv.append(flag)
            elif value is not None:
                argv.append(f"{flag}={value}")
        return argv

    return st.tuples(*values).map(build)


_ARGVS = st.one_of(
    _command(["table"], [("--counts", _COUNT_LISTS)], [("--correction", _FLAG)]),
    _command(
        ["bounds"],
        optional=[
            (flag, _FLOATS)
            for flag in (
                "--or",
                "--rr",
                "--p",
                "--q",
                "--prevalence",
                "--risk-exposed",
                "--risk-unexposed",
                "--exposure",
            )
        ],
    ),
    _command(["constants"]),
    _command(
        ["kepler", "solve"], [("--m", _FLOATS), ("--eps", _FLOATS)], [("--tol", _FLOATS)]
    ),
    _command(
        ["kepler", "series"],
        [("--m", _FLOATS), ("--eps", _FLOATS), ("--order", st.integers(-1, 66))],
    ),
    _command(
        ["kepler", "diverge-table"],
        [("--m", _FLOATS), ("--eps", _FLOATS), ("--max-order", st.integers(-1, 66))],
        [("--tol", _FLOATS)],
    ),
    _command(
        ["prior", "flattest"],
        [("--or-threshold", _FLOATS), ("--tail-mass", _FLOATS)],
        [("--sigma", _FLOATS)],
    ),
    _command(["prior", "wm-pathway"], [("--or", _FLOATS), ("--risk-exposed", _FLOATS)]),
    _command(
        ["verify"], [("--samples", st.integers(-1, 4)), ("--seed", st.integers(-1, 3))]
    ),
    _command(["pz"], optional=[("--p", _FLOATS), ("--z", _FLOATS)]),
)


def _no_constant(name):
    raise AssertionError(f"bare {name} in a JSON envelope")


# A non-finite float as JSON names it, in quotes, and as text names it.
_TEXT_NAMES = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf"}


def _envelope_pairs(out, text):
    """The envelope as the key=value pairs of the text format.

    Values are strings in text and JSON values otherwise, with each
    non-finite float named as text names it.  A bare NaN or Infinity token,
    which is not JSON, fails the parse.
    """
    if text:
        lines = out.splitlines()
        assert all("=" in line for line in lines)
        return dict(line.split("=", 1) for line in lines)
    envelope = json.loads(out, parse_constant=_no_constant)
    assert isinstance(envelope, dict)
    pairs = {f"input.{key}": value for key, value in envelope["inputs"].items()}
    for key, value in envelope["results"].items():
        if isinstance(value, list):
            for index, row in enumerate(value):
                for field, item in row.items():
                    pairs[f"result.{key}[{index}].{field}"] = item
        else:
            pairs[f"result.{key}"] = value
    return {
        key: _TEXT_NAMES.get(value, value) if isinstance(value, str) else value
        for key, value in pairs.items()
    }


class TestEnvelopeContract:
    @given(argv=_ARGVS, text=st.booleans())
    @example(argv=["table", f"--counts={10**200},{10**200},{10**200},{10**200}"], text=False)
    @example(argv=["table", f"--counts={10**200},{10**200},{10**200},{10**200}"], text=True)
    @example(argv=["table", f"--counts={10**400},1,1,1"], text=False)
    @example(argv=["table", f"--counts={10**400},1,1,1", "--correction"], text=False)
    @example(argv=["table", f"--counts=2,{10**200},{10**200},1000"], text=False)
    @example(
        argv=["bounds", "--risk-exposed=0.9999999999999999", "--risk-unexposed=5e-324"],
        text=False,
    )
    @example(argv=["bounds", "--p=5e-324", "--q=5e-324"], text=False)
    @example(argv=["bounds", "--p=1e-310", "--q=2e-310"], text=False)
    @example(argv=["bounds", "--risk-exposed=1e-310", "--risk-unexposed=2e-310"], text=False)
    @example(argv=["prior", "wm-pathway", "--or=1e-15", "--risk-exposed=0.5"], text=False)
    @example(argv=["prior", "wm-pathway", "--or=4", "--risk-exposed=1e-310"], text=False)
    @example(argv=["pz", "--z=nan"], text=False)
    @example(argv=["bounds", "--or=inf"], text=False)
    @example(argv=["kepler", "solve", "--m=-inf", "--eps=0.5"], text=False)
    @example(
        argv=[
            "bounds",
            "--risk-exposed=5e-324",
            "--risk-unexposed=0.9037397020443425",
            "--exposure=1e-17",
        ],
        text=False,
    )
    def test_one_envelope_for_any_argv(self, argv, text):
        if text:
            argv = argv + ["--format=text"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (0, 1, 2)
        if code == 2:
            return
        if text:
            assert out.getvalue().count("\nstatus=") == 1
        # The JSON parse has already rejected any bare NaN or Infinity, inputs
        # and results alike.  No result is nan, and only a table's odds ratio
        # may be inf.
        non_finite = {
            key: value
            for key, value in _envelope_pairs(out.getvalue(), text).items()
            if key.startswith("result.") and value in ("nan", "inf", "-inf")
        }
        assert non_finite in ({}, {"result.odds_ratio": "inf"})
        assert not non_finite or argv[0] == "table"
