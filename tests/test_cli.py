import json
import math
import pathlib

import pytest

from keplor.cli import build_parser, main, run
from keplor.kepler import KeplerProblem, kepler_series

GOLDEN = pathlib.Path(__file__).parent / "golden"


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGoldenOutputs:
    @pytest.mark.parametrize(
        "name,argv",
        [
            ("constants", ["constants"]),
            ("table", ["table", "--counts", "20,10,10,20"]),
            ("verify", ["verify", "--samples", "1000", "--seed", "7"]),
        ],
    )
    def test_byte_identical(self, capsys, name, argv):
        code, out, err = capture(capsys, argv)
        assert code == 0
        assert err == ""
        assert out == (GOLDEN / f"{name}.json").read_text()

    def test_repeat_runs_identical(self, capsys):
        first = capture(capsys, ["verify", "--samples", "500", "--seed", "3"])
        second = capture(capsys, ["verify", "--samples", "500", "--seed", "3"])
        assert first == second


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

    def test_default_sigma_is_flattest(self, capsys):
        code, out, _ = capture(
            capsys, ["prior", "flattest", "--or-threshold", "2", "--tail-mass", "0.025"]
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["assumed_sigma"] == results["flattest_sigma"]
        assert results["assumed_sigma"] == pytest.approx(4.060207060512871, rel=1e-12)


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
        ],
    )
    def test_exit_two(self, capsys, argv):
        code, out, err = capture(capsys, argv)
        assert code == 2
        assert out == ""
        assert err != ""


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


class TestSpotValues:
    def test_bounds_or_mode(self, capsys):
        code, out, _ = capture(capsys, ["bounds", "--or", "4"])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["max_standardized_effect"] == pytest.approx(
            math.log(4.0) / math.sqrt(18.0), rel=1e-12
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

    def test_wm_pathway(self, capsys):
        code, out, _ = capture(capsys, ["prior", "wm-pathway", "--or", "4", "--risk-exposed", "0.5"])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["risk_unexposed"] == 0.2
        assert results["sigma"] == pytest.approx(4.2690748412273125, rel=1e-12)


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
