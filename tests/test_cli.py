"""End-to-end command-line tests through main(argv)."""

import csv
import hashlib
import io
import math
import os
import textwrap
import warnings
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import example, given
from hypothesis import strategies as st

from erstoll import cli, harness
from erstoll.analysis import toll_bands
from erstoll.cli import main
from erstoll.dynamics import RoundSnapshot
from erstoll.equilibrium import ConvergenceError
from erstoll.harness import ConfigError, bundled_scenario_path
from erstoll.model import FixedToll, FreeToll, LinkParams, Network, Preferences

from conftest import ERS_LINK, PLAIN_LINK, base_scenario, run_python, scenarios, write_scenario


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
        write_scenario(base_scenario(toll=FreeToll()), path)
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

    @pytest.mark.parametrize(
        "override, line",
        [
            ("toll.price=50", "s_thres          0.6667"),
            (" prefs.voe =1e2", "s_thres          0.5000"),
        ],
    )
    def test_override_path_is_stripped_and_value_read_as_float(self, capsys, override, line):
        assert main(["solve", "--set", override]) == 0
        assert line in capsys.readouterr().out

    @pytest.mark.parametrize(
        "override, message",
        [
            ("toll.price", "error: override 'toll.price' is not of the form path=value\n"),
            ("toll.price=cheap", "error: override toll.price: 'cheap' is not a number\n"),
        ],
    )
    def test_malformed_override(self, capsys, override, message):
        assert main(["solve", "--set", override]) == 1
        captured = capsys.readouterr()
        assert captured.err == message
        assert captured.out == ""

    @pytest.mark.parametrize("command", [["solve"], ["sweep", "--axis", "prefs.voe=100"]])
    def test_repeated_override_rejected(self, capsys, command):
        args = [*command, "--set", "dwpt_ratio=0.5", "--set", " dwpt_ratio=0.6"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: override 'dwpt_ratio' is given twice\n"
        assert captured.out == ""

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
        write_scenario(base_scenario(), path)
        config = yaml.safe_load(path.read_text())
        config["network"]["link2"]["bpr_beta"] = float("nan")
        path.write_text(yaml.safe_dump(config))
        assert main(["solve", "--scenario", str(path)]) == 1
        assert "must be finite" in capsys.readouterr().err

    def test_huge_integer_in_scenario_file_is_bad_input(self, capsys, tmp_path):
        path = tmp_path / "huge.cfg"
        write_scenario(base_scenario(), path)
        text = path.read_text()
        assert "total_vehicles: 1000.0" in text
        path.write_text(text.replace("1000.0", "1" + "0" * 400, 1))
        assert main(["solve", "--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: total_vehicles: int too large"), err

    def test_numerical_failure_exit_code(self, capsys, monkeypatch):
        def boom(scenario):
            raise ConvergenceError("no bracket")

        monkeypatch.setattr("erstoll.cli.solve", boom)
        assert main(["solve"]) == 2
        assert "numerical failure" in capsys.readouterr().err


class TestSweep:
    def test_requires_axis(self, capsys):
        assert main(["sweep"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: the following arguments are required: --axis\n"
        assert captured.out == ""

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
        args = ["sweep", "--axis", "toll.price=50,150", "--axis", "toll.price =100"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: axis 'toll.price' is given twice\n"
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
        write_scenario(base_scenario(toll=FreeToll()), path)
        assert main(["bands", "--scenario", str(path)]) == 1
        assert "error" in capsys.readouterr().err


class TestSimulate:
    def test_converges_to_solver_flows(self, capsys, tmp_path):
        path = tmp_path / "small.cfg"
        write_scenario(base_scenario(total=100.0), path)
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
        write_scenario(base_scenario(total=100.0), path)
        outputs = []
        for _ in range(2):
            args = [
                "simulate", "--scenario", str(path),
                "--initial", "random", "--order", "random", "--seed", "3",
            ]
            assert main(args) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("start", [[], ["--initial", "random"], ["--order", "random"]])
    def test_negative_seed_rejected_by_the_parser(self, capsys, start):
        # rejected whether or not the run would draw from the RNG
        assert main(["simulate", "--seed", "-1", "--rounds", "1", *start]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: argument --seed: must be >= 0, got -1\n"
        assert captured.out == ""

    @pytest.mark.parametrize("rounds", ["0", "-5"])
    def test_round_limit_below_one_rejected_by_the_parser(self, capsys, rounds):
        assert main(["simulate", "--rounds", rounds]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: argument --rounds: must be >= 1, got {rounds}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--rounds", "--seed"])
    def test_non_integer_flag_rejected_by_the_parser(self, capsys, flag):
        assert main(["simulate", flag, "2.5"]) == 1
        assert capsys.readouterr().err == f"error: argument {flag}: invalid int value: '2.5'\n"

    def test_round_limit_reports_not_converged(self, capsys, tmp_path):
        path = tmp_path / "small.cfg"
        write_scenario(base_scenario(total=100.0), path)
        assert main(["simulate", "--scenario", str(path), "--rounds", "1"]) == 0
        assert "converged        false" in capsys.readouterr().err

    def test_overflowing_bonus_is_a_numerical_failure(self, capsys):
        # voe * (1/0.1 - 1) overflows, so the bonuses and the potential would be infinite
        args = ["simulate", "--set", "prefs.voe=1e308", "--initial", "random", "--rounds", "5"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "numerical failure: charging bonus, N 1000: overflows at SoC 0.102"
        ), captured.err
        assert "(voe 1e+308, toll 100.0)" in captured.err
        assert captured.out == ""

    def test_overflowing_potential_is_a_numerical_failure(self, capsys):
        # each bonus voe * (1/s - 1) is finite, but about 200 of them near
        # 5e307 on link 1 sum past the largest double
        args = ["simulate", "--set", "prefs.voe=1e307", "--initial", "random", "--rounds", "5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "numerical failure: potential at round 0, N 1000: "
        ), captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("order", ["sequential", "random"])
    def test_congested_fleet_of_9800_converges_with_falling_potential(
        self, capsys, tmp_path, order
    ):
        # the benchmark's largest congested size: capacity N/3 on each link
        cap = 9800 / 3
        net = Network(replace(ERS_LINK, capacity=cap), replace(PLAIN_LINK, capacity=cap))
        path, out = tmp_path / "congested.cfg", tmp_path / "sim.csv"
        write_scenario(base_scenario(total=9800.0, network=net), path)
        args = ["simulate", "--scenario", str(path), "--initial", "random", "--seed", "1"]
        assert main([*args, "--order", order, "--output", str(out)]) == 0
        assert "converged        true" in capsys.readouterr().out
        with open(out, newline="") as f:
            potentials = [float(row["potential"]) for row in csv.DictReader(f)]
        assert len(potentials) > 2
        assert all(b <= a for a, b in zip(potentials, potentials[1:]))


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
        for price, got in (("-5", "-5.0"), ("nan", "nan"), ("inf", "inf"), ("1e400", "inf")):
            assert main(["fig2", "--prices", price, "--voes", "100"]) == 1
            assert capsys.readouterr().err == (
                f"error: argument --prices: toll price must be finite and >= 0, got {got}\n"
            )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fig2", "--voes", "0"], "argument --voes: voe must be finite and > 0, got 0.0"),
            (["fig2", "--prices", ","], "argument --prices: no values"),
            (["fig2", "--voes", ","], "argument --voes: no values"),
            (
                ["fig2", "--prices", "a"],
                "argument --prices: values 'a': could not convert string to float: 'a'",
            ),
            (
                ["sweep", "--axis", "toll.price=a"],
                "axis 'toll.price': values 'a': could not convert string to float: 'a'",
            ),
        ],
        ids=[
            "fig2-voes",
            "fig2-prices-empty",
            "fig2-voes-empty",
            "fig2-prices-text",
            "sweep-axis-text",
        ],
    )
    def test_bad_values_name_their_flag_or_axis(self, capsys, argv, message):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


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
    # every key and cell is quoted, so no YAML reader (1.1 or 1.2) takes a
    # cell such as 1e9 or 1e-300 for a number
    for mapping in yaml.compose(tables["structured-text"]).value:
        for key, value in mapping.value:
            assert key.style == value.style == "'", (key.value, value.value)


@pytest.mark.parametrize("fmt", harness.TABLE_FORMATS)
def test_rows_a_table_builds_pass_as_text(fmt, tmp_path, monkeypatch):
    """Every row of these tables is a tuple formatted on the table's own
    template, so none goes through csv.writer or yaml.dump
    (harness._emitted)."""

    def emitted(header, cells, fmt):
        raise AssertionError(f"a built row was emitted: {cells!r}")

    monkeypatch.setattr(harness, "_emitted", emitted)
    runs = (
        ["bands"],
        ["simulate", "--rounds", "50"],
        ["fig2"],
        ["solve"],
        ["table2"],
        ["sweep", "--axis", "toll.price=0:400:5", "--axis", "dwpt_ratio=0.2,0.7"],
    )
    for argv in runs:
        path = str(tmp_path / argv[0])
        assert main([*argv, "--format", fmt, "--output", path]) == 0, argv


def assert_written_as_the_reference_writers(columns, values):
    """write_table's one row, the tuple values, is what csv.writer, and
    yaml.dump(..., default_style="'"), write of its formatted cells."""
    header = [name for name, _ in columns]
    cells = [field.format(value) for (_, field), value in zip(columns, values)]
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows([header, cells])
    mapping = [dict(zip(header, cells))]
    for fmt, text in (
        ("csv", expected.getvalue()),
        ("structured-text", yaml.safe_dump(mapping, sort_keys=False, default_style="'")),
    ):
        buffer = io.StringIO()
        harness.write_table(columns, [values], buffer, fmt)
        assert buffer.getvalue() == text, (fmt, cells)


@given(voe=st.floats(5e-324, 1.7e308), price=st.floats(0.0, 1.7e308))
@example(voe=1e-320, price=1.7e308)
@example(voe=1.7e308, price=0.0)
def test_fig2_rows_are_plain(voe, price):
    [point] = harness.fig2_data([FixedToll(price)], [Preferences(vot=1.0, voe=voe)])
    assert_written_as_the_reference_writers(cli._FIG2, point)


@given(scenario=scenarios())
def test_bands_rows_are_plain(scenario):
    bands = toll_bands(replace(scenario, toll=FixedToll(0.0)))
    assert bands[-1].c_high == math.inf
    for band in bands:
        values = (band.pattern.value, band.c_low, band.c_high)
        assert_written_as_the_reference_writers(cli._BANDS, values)


@given(
    snapshot=st.builds(
        RoundSnapshot,
        st.integers(0, 10**9),
        st.integers(0, 10**7),
        st.integers(0, 10**7),
        st.floats(0.0, allow_infinity=True),
        st.floats(0.0, allow_infinity=True),
        st.integers(0, 10**7),
        st.floats(allow_nan=False),
    )
)
@example(snapshot=RoundSnapshot(0, 0, 0, 10.0, 10.0, 0, -1.7e308))
def test_simulate_rows_are_plain(snapshot):
    """A RoundSnapshot, as cmd_simulate passes it, the potential negative
    as often as not."""
    assert_written_as_the_reference_writers(cli._SIMULATE, snapshot)


# sha256 of each --output file, which a refactor must keep byte for byte.
# The sweep reaches all three solve regimes and has error rows
# (dwpt_ratio outside (0,1)).  Its corner rows are the corner roots to
# 1e-12*N; bisecting the same map to 1e-14*N gives the same bytes.
PINNED_SWEEP = [
    "sweep",
    "--axis", "toll.price=0:1200:13",
    "--axis", "prefs.voe=50,100,200",
    "--axis", "dwpt_ratio=-0.2:1.2:25",
]
PINNED_SOLVE_SET = ["solve", "--set", "toll.price=150"]
PINNED_SWEEP_SET = [
    "sweep", "--set", "prefs.vot=40",
    "--axis", "toll.price=0:300:7", "--axis", "dwpt_ratio=0.3,0.7",
]
PINNED_BANDS_HIGH_SHARE = ["bands", "--set", "dwpt_ratio=0.6"]
PINNED_SIMULATE_RANDOM = ["simulate", "--initial", "random", "--order", "random", "--seed", "3"]
# At a free toll every bonus is >= 0, so from all on link 2 the first
# random-order sweep moves a streak of 436 agents, which the block scan
# moves one agent at a time.
PINNED_SIMULATE_RANDOM_RUN = ["simulate", "--set", "toll.price=0", "--order", "random", "--seed", "3"]
# Links that differ in every BPR parameter, so x_eq is the balanced-flow
# root rather than N/2; of the sweep's 78 rows 49 are interior, 19
# corner_other_on_1 and 10 corner_other_on_2.  The test writes the file.
DIFFERING_LINKS = base_scenario(network=Network(
    LinkParams(12.0, 400.0, bpr_alpha=0.3, bpr_beta=2.0, has_ers=True, ers_power_kw=30.0),
    LinkParams(10.0, 500.0, bpr_alpha=0.15, bpr_beta=4.0),
))
PINNED_SWEEP_DIFFERING = [
    "sweep", "--scenario", "differing.cfg",
    "--axis", "toll.price=0:1200:13",
    "--axis", "prefs.voe=50,300",
    "--axis", "dwpt_ratio=0.2,0.6,0.95",
]
# Bands on DIFFERING_LINKS: at r 0.2 every edge is priced at x_eq, where
# the times are equal, so its bytes are those of the twin links' bands.
PINNED_BANDS_DIFFERING = ["bands", "--scenario", "differing.cfg", "--set"]
PINNED_OUTPUTS = [  # (test id prefix, argv, format, sha256)
    ("table2", ["table2"], "csv", "07484614556756353b3eb805ada8b42c65449d50eb65d7aa70cf5af52012eb80"),
    ("table2", ["table2"], "structured-text", "1b3bb361ddec15da901eaf899528082847383babd06f698ee57b22832516c169"),
    ("solve", ["solve"], "csv", "b31ae2e9ad3db63860127faf3274abd556caaeaa2dda60ae42fa95c16d6381c4"),
    ("solve", ["solve"], "structured-text", "6950f307387e3e3f37d8c2c46f4795fcef7fd9b4e5c458af39bc070b8373c1ba"),
    ("sweep", PINNED_SWEEP, "csv", "d359afb99dd1ead6efebabd93b343324a477d7e322afbb686852536286775aad"),
    ("sweep", PINNED_SWEEP, "structured-text", "3245deeb8ef6f42116b79430731b5204cdaf190ee028d6edc766cbbf67f89cc2"),
    ("bands", ["bands"], "csv", "d7b3a19027c0c9123d2a69bab21e91f7af46199264298557741c591092ae4b5a"),
    ("bands", ["bands"], "structured-text", "04f0a4a2a72f0b08cceef7fe328593098b49513a42ecfc4230897c4ca28c9b89"),
    ("bands-high-share", PINNED_BANDS_HIGH_SHARE, "csv", "4497e8d8f83f5ab72b19b0233e540fe16bced91bb512f9fd022a050d5de24f8a"),
    ("bands-high-share", PINNED_BANDS_HIGH_SHARE, "structured-text", "58c7eabc05a277d1c42bf044756f46cc2d3509a6adb86bbd3f9263f27eb332f9"),
    ("solve-set", PINNED_SOLVE_SET, "csv", "3798d7f1a9d07c9656b52ffb8ee5a1beeff0f80baae7c8ff0cc1de42835dbd2b"),
    ("solve-set", PINNED_SOLVE_SET, "structured-text", "8b551e07c724d28b50a43c42a199556dcc8ae8b6a97b5041445b16eb1f673977"),
    ("sweep-set", PINNED_SWEEP_SET, "csv", "65f34396c2d99d24f054ae60e5d53eba14f7f7e9f977574f6344f3cb242af25a"),
    ("sweep-set", PINNED_SWEEP_SET, "structured-text", "ad5594bdfe172acc9a48606ba2decb96633c105f44bb92aac61a853f93d892fb"),
    ("fig2", ["fig2"], "csv", "01d576d65578c2686c36dd26584e226625aab2c9fdbfc9f941e69f491c84171b"),
    ("fig2", ["fig2"], "structured-text", "259dd0dfad84b3c3a76b8d4ac30b2673f2bf85bdf626e4a4f4563f134e0af41d"),
    ("simulate", ["simulate", "--rounds", "50"], "csv", "269a55eed2b06b2a7f12d4d57ea3a26ca1614b900985337d7b2dd00767b05e37"),
    ("simulate", ["simulate", "--rounds", "50"], "structured-text", "f36582fb3cddc309cb3521bb473a7b8ac88f1abbf3d79792aa988a39954a847e"),
    ("sweep-differing", PINNED_SWEEP_DIFFERING, "csv", "851184e4ed3fa6798878a49e3af62616bcae9e8effe9e28d404604a1651d9c92"),
    ("sweep-differing", PINNED_SWEEP_DIFFERING, "structured-text", "66dcf7a3f11b3e42e70b670505a164455e9cfe6edccacab2cab6c4ef812f88be"),
    ("simulate-random", PINNED_SIMULATE_RANDOM, "csv", "763306392af3deb21f374439bba15411eb253dbd890ec58d4391ca8a9a441679"),
    ("simulate-random-run", PINNED_SIMULATE_RANDOM_RUN, "csv", "f9c6a8034dad3f5e584f99d1e9ef114fb825375d8780339f1c18a711b968a315"),
    ("bands-differing-low-share", [*PINNED_BANDS_DIFFERING, "dwpt_ratio=0.2"], "csv", "d7b3a19027c0c9123d2a69bab21e91f7af46199264298557741c591092ae4b5a"),
    ("bands-differing-low-share", [*PINNED_BANDS_DIFFERING, "dwpt_ratio=0.2"], "structured-text", "04f0a4a2a72f0b08cceef7fe328593098b49513a42ecfc4230897c4ca28c9b89"),
    ("bands-differing-high-share", [*PINNED_BANDS_DIFFERING, "dwpt_ratio=0.6"], "csv", "4c41ffd11828be93b93d71b064605cece267259a2547cf1776735d381dae14d3"),
    ("bands-differing-high-share", [*PINNED_BANDS_DIFFERING, "dwpt_ratio=0.6"], "structured-text", "640152e1675a4b87636a31ec3a5857477ded3c9ea03b46ae782cfe00bfc29941"),
]


@pytest.mark.parametrize(
    "argv, fmt, digest",
    [entry[1:] for entry in PINNED_OUTPUTS],
    ids=[f"{name}-{fmt}" for name, _, fmt, _ in PINNED_OUTPUTS],
)
def test_output_bytes_are_pinned(argv, fmt, digest, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_scenario(DIFFERING_LINKS, "differing.cfg")
    path = tmp_path / "out"
    assert main([*argv, "--format", fmt, "--output", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "order, digest",
    [
        ("sequential", "a2fc1d9943ad39d15788626c1b38f2360580607747894fe66ee7d9108a1ba306"),
        ("random", "6de6cff37e3cfe92253b91d8a0f6b1a291e418a402e598f1e3fd1e6d20f54847"),
    ],
)
def test_congested_simulate_bytes_are_pinned(order, digest, tmp_path):
    """A congested run: the bundled scenario with 9 800 vehicles and
    capacities 9 800/3, from a random start, in many rounds that each
    move a few vehicles.  --set cannot change N or the capacities, so
    the scenario file is written here."""
    config = yaml.safe_load(bundled_scenario_path().read_text())
    config["total_vehicles"] = 9800.0
    for link in ("link1", "link2"):
        config["network"][link]["capacity"] = 9800 / 3
    scenario, path = tmp_path / "congested.cfg", tmp_path / "out"
    scenario.write_text(yaml.safe_dump(config))
    argv = ["simulate", "--scenario", str(scenario), "--initial", "random", "--seed", "1"]
    assert main([*argv, "--order", order, "--output", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("csv", "80fa6834c29804e6b61db51024986e7f2f82963a5348f85990f2369eb5dd2bb0"),
        ("structured-text", "85e0e73f4ddd2f115a9ac1d91172c25d9df7e6bfcf522b5cf50d1f35ec357c52"),
    ],
)
def test_differing_links_sweep_bytes_are_pinned(fmt, digest, tmp_path):
    """A sweep on links that differ, so each cell runs the system-optimum
    search: the bundled scenario with link 2 at 150 minutes free flow.
    Of its 52 rows, conventional_so is true in 28 and false in 24."""
    config = yaml.safe_load(bundled_scenario_path().read_text())
    config["network"]["link2"]["free_flow_time"] = 150.0
    scenario, path = tmp_path / "slow-link2.cfg", tmp_path / "out"
    scenario.write_text(yaml.safe_dump(config))
    argv = [
        "sweep", "--scenario", str(scenario),
        "--axis", "prefs.vot=0.01,50",
        "--axis", "toll.price=0:1200:13",
        "--axis", "dwpt_ratio=0.2,0.8",
    ]
    assert main([*argv, "--format", fmt, "--output", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_sweep_on_differing_links_solves_every_cell(tmp_path):
    """The bundled scenario with link 2 at capacity 300 and beta 6, so
    every cell shares one balanced-flow root: 39 rows, none failed."""
    config = yaml.safe_load(bundled_scenario_path().read_text())
    config["network"]["link2"].update(bpr_beta=6.0, capacity=300.0)
    scenario, output = tmp_path / "differing.cfg", tmp_path / "differing.csv"
    scenario.write_text(yaml.safe_dump(config))
    assert main([
        "sweep", "--scenario", str(scenario), "--axis", "toll.price=0:1200:13",
        "--axis", "dwpt_ratio=0.2,0.5,0.8", "--output", str(output),
    ]) == 0
    rows = list(csv.DictReader(output.read_text().splitlines()))
    assert len(rows) == 39 and all(row["error"] == "" for row in rows), rows


ROUTED = {  # a small run of each subcommand
    "solve": ["solve"],
    "sweep": ["sweep", "--axis", "toll.price=0,150", "--axis", "dwpt_ratio=0.2,0.7"],
    "bands": ["bands"],
    "simulate": ["simulate", "--rounds", "5"],
    "table2": ["table2"],
    "fig2": ["fig2", "--prices", "0:500:3", "--voes", "10,100"],
}


@pytest.mark.parametrize("fmt", harness.TABLE_FORMATS)
@pytest.mark.parametrize("argv", ROUTED.values(), ids=ROUTED)
def test_output_routing(argv, fmt, tmp_path, capsys):
    """With --output the table goes to the file, and the summary, then
    `wrote PATH`, to stdout.  Without it, solve writes only its summary,
    to stdout; every other subcommand writes the summary to stderr and
    the file's bytes to stdout."""
    path = tmp_path / "out"
    assert main([*argv, "--format", fmt, "--output", str(path)]) == 0
    written = capsys.readouterr()
    *summary, wrote = written.out.splitlines(keepends=True)
    assert (wrote, written.err) == (f"wrote {path}\n", "")
    assert summary
    table = path.read_bytes().decode()
    assert table.count("\n") >= 2 if fmt == "csv" else table.startswith("- '")
    assert main([*argv, "--format", fmt]) == 0
    bare = capsys.readouterr()
    if argv[0] == "solve":
        assert (bare.out, bare.err) == ("".join(summary), "")
    else:
        assert (bare.out, bare.err) == (table, "".join(summary))


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# In a fresh interpreter: `erstoll simulate`, then the process's thread
# count and the three BLAS variables as it left them.
SIMULATE_THREADS = """
import contextlib, io, os
from erstoll.cli import main

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert main(["simulate", "--rounds", "5"]) == 0
with open("/proc/self/status") as status:
    print(next(line for line in status if line.startswith("Threads:")).split()[1])
for var in {variables}:
    print(os.environ[var])
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
@pytest.mark.parametrize(
    "preset, expected",
    [({}, ["1", "1", "1"]), ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"])],
    ids=["unset", "preset-openblas"],
)
def test_simulate_starts_numpy_with_one_blas_thread(preset, expected, tmp_path):
    """With none of the three variables set, the process runs one thread;
    a value the user has set is kept."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    code = textwrap.dedent(SIMULATE_THREADS).format(variables=BLAS_THREAD_VARIABLES)
    threads, *values = run_python(["-c", code], tmp_path, env={**env, **preset}).split()
    assert values == expected
    if not preset:
        assert threads == "1"


# In a fresh interpreter: each subcommand with its defaults (the bundled
# block-style preset where it reads a scenario), writing its table to a
# file as CSV and as structured text, then its error cells and whether
# numpy, scipy and PyYAML are loaded; last, a structured-text sweep with
# a failing cell.  Only simulate loads numpy, no subcommand loads scipy,
# and PyYAML loads only for the structured-text error row.
SUBCOMMAND_MODULES = """
import contextlib, csv, io, sys
from erstoll.cli import main

def error_cells(text, fmt):
    if fmt == "csv":
        return [row["error"] for row in csv.DictReader(io.StringIO(text)) if row.get("error")]
    cells = [line.lstrip("- ") for line in text.splitlines()]
    return [c for c in cells if c.startswith("'error': ") and c != "'error': ''"]

def run(argv, fmt):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main([*argv, "--format", fmt, "--output", "table"]) == 0, argv
    with open("table") as table:
        errors = error_cells(table.read(), fmt)
    modules = ("numpy", "scipy", "yaml", "dataclasses", "inspect")
    print(argv[0], fmt, len(errors), *(m in sys.modules for m in modules))

for argv in (
    ["solve"], ["sweep", "--axis", "toll.price=0:400:5"], ["bands"], ["table2"], ["fig2"],
    ["simulate", "--rounds", "5"],
):
    for fmt in ("csv", "structured-text"):
        run(argv, fmt)
run(["sweep", "--axis", "dwpt_ratio=0.2,1.5"], "structured-text")
"""


def test_only_simulate_loads_numpy_and_none_loads_scipy(tmp_path):
    lines = run_python(["-c", textwrap.dedent(SUBCOMMAND_MODULES)], tmp_path).splitlines()
    # no subcommand loads dataclasses; numpy, which only simulate imports,
    # loads inspect
    assert lines == [
        f"{command} {fmt} 0 {command == 'simulate'} False False False {command == 'simulate'}"
        for command in ("solve", "sweep", "bands", "table2", "fig2", "simulate")
        for fmt in ("csv", "structured-text")
    ] + ["sweep structured-text 1 True False True False True"]


def test_import_loads_neither_dataclasses_nor_inspect(tmp_path):
    code = "import sys, erstoll, erstoll.cli; print({'dataclasses', 'inspect'} & set(sys.modules))"
    assert run_python(["-c", code], tmp_path) == "set()\n"


# Under -S, whose start-up loads neither typing nor dataclasses (a site
# may preload typing), what each import adds of the two.
IMPORT_ADDS = """
import sys
before = set(sys.modules)
import erstoll
print(sorted({"typing", "dataclasses"} & (set(sys.modules) - before)))
import erstoll.cli
print(sorted({"typing", "dataclasses"} & (set(sys.modules) - before)))
"""


def test_import_without_site_adds_neither_typing_nor_dataclasses(tmp_path):
    assert run_python(["-S", "-c", IMPORT_ADDS], tmp_path) == "[]\n[]\n"


class TestParserBehavior:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "solve" in capsys.readouterr().out


# Every parser's definition, as data: (option strings, dest, default,
# choices, metavar, required, help) for each action in order.  Data, not
# --help text, which argparse words differently across Python versions.
HELP_ARG = (("-h", "--help"), "help", "==SUPPRESS==", None, None, False,
            "show this help message and exit")
SCENARIO_ARGS = (
    (("--scenario",), "scenario", "table1.cfg", None, None, False,
     "scenario file path or bundled preset name (default table1.cfg)"),
    (("--set",), "overrides", [], None, "PATH=VALUE", False,
     "override a scenario value, e.g. toll.price=150 (paths: toll.price, "
     "prefs.vot, prefs.voe, dwpt_ratio, soc.s_lo, soc.s_hi)"),
)
OUTPUT_ARGS = (
    (("--output",), "output", None, None, None, False, "write machine output to this file"),
    (("--format",), "format", "csv", ("csv", "structured-text"), None, False,
     "machine output format (default csv)"),
)
PARSERS = {  # name: (help, handler name, actions after --help)
    "solve": ("equilibrium of one scenario", "cmd_solve", (*SCENARIO_ARGS, *OUTPUT_ARGS)),
    "sweep": ("solve a grid of scenario overrides", "cmd_sweep", (
        *SCENARIO_ARGS, *OUTPUT_ARGS,
        (("--axis",), "axis", None, None, "PATH=VALUES", True,
         "sweep axis: PATH=v1,v2,... or PATH=start:stop:count "
         "(repeatable; later axes vary fastest)"),
    )),
    "bands": ("toll-price bands by resulting pattern", "cmd_bands",
              (*SCENARIO_ARGS, *OUTPUT_ARGS)),
    "simulate": ("day-to-day best-response dynamics over agents", "cmd_simulate", (
        *SCENARIO_ARGS, *OUTPUT_ARGS,
        (("--seed",), "seed", 0, None, None, False, "RNG seed (default 0)"),
        (("--initial",), "initial", "all_link2",
         ("all_link2", "all_link1", "random", "balanced"), None, False,
         "starting assignment (default all_link2)"),
        (("--order",), "order", "sequential", ("sequential", "random"), None, False,
         "agent update order per round (default sequential)"),
        (("--rounds",), "rounds", 10_000, None, None, False, "round limit (default 10000)"),
    )),
    "table2": ("five-scenario toll/charging-value comparison", "cmd_table2", OUTPUT_ARGS),
    "fig2": ("threshold-SoC surface over toll price and charging value", "cmd_fig2", (
        *OUTPUT_ARGS,
        (("--prices",), "prices", "0:500:51", None, "VALUES", False,
         "toll prices: v1,v2,... or start:stop:count (default 0:500:51)"),
        (("--voes",), "voes", "10:300:30", None, "VALUES", False,
         "charging values: same syntax (default 10:300:30)"),
    )),
}


def action_data(parser):
    return [
        (tuple(a.option_strings), a.dest, a.default,
         None if a.choices is None else tuple(a.choices), a.metavar, a.required, a.help)
        for a in parser._actions
    ]


def test_every_parser_keeps_its_definition():
    parser = cli.build_parser()
    assert (parser.prog, parser.description) == ("erstoll", "Command-line front end.")
    subs = parser._actions[1]
    assert action_data(parser) == [
        HELP_ARG, ((), "command", None, tuple(PARSERS), None, True, None)
    ]
    assert [(a.dest, a.help) for a in subs._choices_actions] == [
        (name, help) for name, (help, _, _) in PARSERS.items()
    ]
    for name, (_, handler, actions) in PARSERS.items():
        sub = subs.choices[name]
        assert sub.prog == f"erstoll {name}"
        assert sub.get_default("func") is getattr(cli, handler)
        assert action_data(sub) == [HELP_ARG, *actions], name


@pytest.mark.parametrize("argv, named", [
    (["sweep"], "the following arguments are required: --axis"),
    (["simulate", "--rounds", "0"], "argument --rounds: must be >= 1, got 0"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    (["fig2", "--scenario", "x"], "unrecognized arguments: --scenario x"),
    (["solve", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
    ([], "the following arguments are required: command"),
    (["table2", "--set", "a=1"], "unrecognized arguments: --set a=1"),
], ids=["sweep-no-axis", "rounds-0", "bogus", "fig2-scenario", "format-xml", "none", "table2-set"])
def test_usage_errors_name_their_flag_or_command(argv, named, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {named}") and captured.err.count("\n") == 1
