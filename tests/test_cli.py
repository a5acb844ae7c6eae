"""End-to-end command-line tests through main(argv)."""

import csv
import math

import numpy as np
import pytest
import yaml

from erstoll import cli
from erstoll.cli import main
from erstoll.equilibrium import ConvergenceError
from erstoll.harness import ConfigError, save_scenario
from erstoll.model import FreeToll

from conftest import base_scenario


class TestSolve:
    def test_default_scenario_summary(self, capsys):
        assert main(["solve"]) == 0
        out = capsys.readouterr().out
        assert "pattern          B_i_c" in out
        assert "s_thres          0.5000" in out
        assert "x1               500.0000" in out
        assert "ttt              11500.0000" in out

    def test_output_csv(self, capsys, tmp_path):
        path = tmp_path / "row.csv"
        assert main(["solve", "--output", str(path)]) == 0
        assert f"wrote {path}" in capsys.readouterr().out
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("s_thres,")
        assert lines[1].startswith("0.5000,")

    def test_output_structured_text(self, tmp_path):
        path = tmp_path / "row.txt"
        args = ["solve", "--output", str(path), "--format", "structured-text"]
        assert main(args) == 0
        docs = yaml.safe_load(path.read_text())
        assert docs[0]["pattern"] == "B_i_c"
        assert docs[0]["tcv"] == "575.0000"

    def test_set_override(self, capsys):
        assert main(["solve", "--set", "toll.price=150"]) == 0
        assert "s_thres          0.4000" in capsys.readouterr().out

    def test_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "free.cfg"
        save_scenario(base_scenario(toll=FreeToll()), path)
        assert main(["solve", "--scenario", str(path)]) == 0
        out = capsys.readouterr().out
        assert "pattern          A_i" in out
        assert "x1_d             200.0000" in out

    def test_missing_scenario(self, capsys):
        assert main(["solve", "--scenario", "nope.cfg"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_override(self, capsys):
        assert main(["solve", "--set", "toll.cost=5"]) == 1
        assert "unknown override" in capsys.readouterr().err

    def test_unwritable_output(self, capsys, tmp_path):
        path = tmp_path / "missing_dir" / "row.csv"
        assert main(["solve", "--output", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override", ["prefs.vot=nan", "prefs.voe=inf", "toll.price=nan", "toll.price=inf"]
    )
    def test_non_finite_override_is_bad_input(self, capsys, override):
        assert main(["solve", "--set", override]) == 1
        assert "must be finite" in capsys.readouterr().err

    def test_non_finite_scenario_file_is_bad_input(self, capsys, tmp_path):
        path = tmp_path / "nan.cfg"
        save_scenario(base_scenario(), path)
        config = yaml.safe_load(path.read_text())
        config["network"]["link2"]["bpr_beta"] = float("nan")
        path.write_text(yaml.safe_dump(config))
        assert main(["solve", "--scenario", str(path)]) == 1
        assert "must be finite" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, capsys, monkeypatch):
        def boom(scenario):
            raise ConvergenceError("no bracket")

        monkeypatch.setattr("erstoll.cli.solve", boom)
        assert main(["solve"]) == 2
        assert "numerical failure" in capsys.readouterr().err


class TestSweep:
    def test_requires_axis(self, capsys):
        assert main(["sweep"]) == 1
        assert "--axis" in capsys.readouterr().err

    def test_bogus_axis_path(self, capsys):
        assert main(["sweep", "--axis", "prefs.vol=1,2"]) == 1
        assert "unknown sweep axis" in capsys.readouterr().err

    def test_bad_range(self, capsys):
        assert main(["sweep", "--axis", "toll.price=0:100"]) == 1
        assert "start:stop:count" in capsys.readouterr().err

    def test_axis_without_values(self, capsys):
        assert main(["sweep", "--axis", "toll.price"]) == 1
        assert "'toll.price' is not of the form PATH=VALUES" in capsys.readouterr().err

    def test_repeated_axis_rejected(self, capsys):
        args = ["sweep", "--axis", "toll.price=50,150", "--axis", "toll.price=100"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert "'toll.price' is given twice" in captured.err
        assert captured.out == ""

    def test_grid_to_stdout(self, capsys):
        args = ["sweep", "--axis", "toll.price=0:100:3", "--axis", "prefs.voe=50,150"]
        assert main(args) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].startswith("toll.price,prefs.voe,s_thres")
        assert len(lines) == 7
        assert lines[1].startswith("0,50,")
        assert lines[2].startswith("0,150,")
        assert lines[3].startswith("50,50,")
        assert "6 cells, 0 failed" in captured.err

    def test_successive_runs_share_no_state(self, capsys):
        # main reuses one parser; argparse hands every parse the same
        # default=[] list, so an appended --set must not stay in it
        axis = ["sweep", "--axis", "prefs.voe=100"]
        assert main([*axis, "--set", "toll.price=50"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("100,0.6667,")
        assert main(axis) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("100,0.5000,")
        assert cli.build_parser() is cli.build_parser()


class TestBands:
    def test_default_scenario(self, capsys):
        assert main(["bands"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "pattern,c_low,c_high"
        assert lines[1] == "B_i_a,0.0000,11.1111"
        assert lines[2] == "B_i_c,11.1111,900.0000"
        assert lines[3] == "B_i_b,900.0000,inf"

    def test_free_toll_rejected(self, capsys, tmp_path):
        path = tmp_path / "free.cfg"
        save_scenario(base_scenario(toll=FreeToll()), path)
        assert main(["bands", "--scenario", str(path)]) == 1
        assert "error" in capsys.readouterr().err


class TestSimulate:
    def test_converges_to_solver_flows(self, capsys, tmp_path):
        path = tmp_path / "small.cfg"
        save_scenario(base_scenario(total=100.0), path)
        assert main(["simulate", "--scenario", str(path)]) == 0
        captured = capsys.readouterr()
        assert "converged        true" in captured.err
        lines = captured.out.splitlines()
        assert lines[0] == "round,x1_d,x1_o,t1,t2,switches,potential"
        final = lines[-1].split(",")
        assert float(final[1]) == pytest.approx(10.0, abs=1.0)
        assert float(final[5]) == 0.0

    def test_seeded_runs_identical(self, capsys, tmp_path):
        path = tmp_path / "small.cfg"
        save_scenario(base_scenario(total=100.0), path)
        outputs = []
        for _ in range(2):
            args = [
                "simulate", "--scenario", str(path),
                "--initial", "random", "--order", "random", "--seed", "3",
            ]
            assert main(args) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_round_limit_reports_not_converged(self, capsys, tmp_path):
        path = tmp_path / "small.cfg"
        save_scenario(base_scenario(total=100.0), path)
        assert main(["simulate", "--scenario", str(path), "--rounds", "1"]) == 0
        assert "converged        false" in capsys.readouterr().err


class TestPresetCommands:
    def test_table2_byte_identical_runs(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["table2", "--output", str(first)]) == 0
        assert main(["table2", "--output", str(second)]) == 0
        data = first.read_bytes()
        assert data == second.read_bytes()
        lines = data.decode().splitlines()
        assert len(lines) == 6
        assert lines[1].split(",")[3] == "0.5000"

    def test_fig2_grid(self, capsys):
        assert main(["fig2", "--prices", "100,150", "--voes", "100"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "voe,toll_price,s_thres",
            "100,100,0.5000",
            "100,150,0.4000",
        ]

    def test_fig2_negative_price(self, capsys):
        assert main(["fig2", "--prices", "-5", "--voes", "100"]) == 1
        assert main(["fig2", "--prices", "nan", "--voes", "100"]) == 1
        assert main(["fig2", "--prices", "inf", "--voes", "100"]) == 1
        assert "toll price" in capsys.readouterr().err


class TestRanges:
    @pytest.mark.parametrize(
        "start, stop, count",
        [
            (0.0, 500.0, 51),
            (10.0, 300.0, 30),
            (0.1, 0.7, 7),
            (1200.0, -3.3, 400),
            (2.5, 2.5, 4),
            (7.0, 9.0, 1),
            (-0.0, 5.0, 1),
            (1.0, math.nan, 1),
            (0.0, math.inf, 1),
            (0.0, 1.5e-323, 7),
        ],
    )
    def test_start_stop_count_is_linspace(self, start, stop, count):
        got = cli._parse_values(f"{start!r}:{stop!r}:{count}")
        with np.errstate(invalid="ignore"):
            want = [float(v) for v in np.linspace(start, stop, count)]
        # float.hex tells -0.0 from 0.0 and every nan from a number
        assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0:x:5", "could not convert string to float: 'x'"),
            ("0:10:0", "count must be >= 1"),
            ("0:10:2.5", "invalid literal for int"),
            ("1,a", "could not convert string to float: 'a'"),
        ],
    )
    def test_malformed_values_rejected(self, text, message):
        with pytest.raises(ConfigError, match=message):
            cli._parse_values(text)



@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--axis", "toll.price=0,150,1e9", "--axis", "dwpt_ratio=0.3,1.5"],
        ["bands", "--set", "dwpt_ratio=0.6"],
        ["simulate", "--rounds", "3", "--initial", "balanced"],
        ["table2"],
        ["fig2", "--prices", "0:500:3", "--voes", "1e-300,100"],
        ["solve"],
    ],
    ids=lambda argv: argv[0],
)
def test_structured_text_holds_the_csv_cells(argv, tmp_path):
    tables = {}
    for fmt in ("csv", "structured-text"):
        path = tmp_path / fmt
        assert main([*argv, "--format", fmt, "--output", str(path)]) == 0
        tables[fmt] = path.read_text()
    header, *rows = csv.reader(tables["csv"].splitlines())
    assert rows
    docs = yaml.safe_load(tables["structured-text"])
    assert docs == [dict(zip(header, row)) for row in rows]


class TestParserBehavior:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "solve" in capsys.readouterr().out
