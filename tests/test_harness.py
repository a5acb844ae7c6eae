"""Config parsing, overrides, sweeps, presets, and serialization."""

import io
import itertools
import math
import re

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from erstoll import cli, harness
from erstoll.dynamics import agents_from_scenario, discretize_scenario, run
from erstoll.equilibrium import ConvergenceError
from erstoll.harness import (
    OVERRIDE_PATHS,
    ConfigError,
    ResultRow,
    SweepSpec,
    apply_overrides,
    bundled_scenario_path,
    fig2_data,
    load_scenario,
    parse_override_arg,
    resolve_scenario,
    rows_to_csv,
    rows_to_yaml,
    run_sweep,
    save_scenario,
    scenario_from_config,
    scenario_to_config,
    solve_row,
    table1_scenario,
    table2_rows,
    write_table,
)
from erstoll.model import (
    DiscreteAgents,
    FixedToll,
    FreeToll,
    LinkParams,
    Network,
    Preferences,
    UniformContinuum,
    threshold_soc,
)

from conftest import ERS_LINK, base_scenario, discrete_scenario

# link 2 slower, smaller and less steep than the ERS link
UNEQUAL_NETWORK = Network(
    ERS_LINK, LinkParams(free_flow_time=12.0, capacity=400.0, bpr_beta=2.0)
)

# one valid value per override path
VALID_OVERRIDES = {
    "toll.price": 42.0,
    "prefs.vot": 60.0,
    "prefs.voe": 120.0,
    "dwpt_ratio": 0.4,
    "soc.s_lo": 0.2,
    "soc.s_hi": 0.8,
}


def valid_config() -> dict:
    return {
        "total_vehicles": 1000.0,
        "dwpt_ratio": 0.2,
        "soc": {"kind": "uniform", "s_lo": 0.1, "s_hi": 0.9},
        "prefs": {"vot": 50.0, "voe": 100.0},
        "toll": {"kind": "fixed", "price": 100.0},
        "network": {
            "link1": {
                "free_flow_time": 10.0,
                "capacity": 500.0,
                "ers_power_kw": 30.0,
            },
            "link2": {"free_flow_time": 10.0, "capacity": 500.0},
        },
    }


class TestLoading:
    def test_bundled_table1(self):
        scenario = table1_scenario()
        assert scenario.total_vehicles == 1000.0
        assert scenario.dwpt_ratio == 0.2
        assert isinstance(scenario.soc, UniformContinuum)
        assert scenario.soc.s_lo == 0.1
        assert scenario.soc.s_hi == 0.9
        assert scenario.soc.total_mass == pytest.approx(200.0)
        assert scenario.prefs.vot == 50.0
        assert scenario.prefs.voe == 100.0
        assert isinstance(scenario.toll, FixedToll)
        assert scenario.toll.price == 100.0
        assert scenario.network.link1.has_ers
        assert scenario.network.link1.ers_power_kw == 30.0
        assert not scenario.network.link2.has_ers
        assert scenario.network.link1.bpr_alpha == 0.15
        assert scenario.network.link1.bpr_beta == 4.0

    def test_uniform_mass_is_derived(self):
        config = valid_config()
        config["dwpt_ratio"] = 0.35
        scenario = scenario_from_config(config)
        assert scenario.soc.total_mass == pytest.approx(350.0)

    def test_bpr_defaults_apply(self):
        scenario = scenario_from_config(valid_config())
        assert scenario.network.link2.bpr_alpha == 0.15
        assert scenario.network.link2.bpr_beta == 4.0

    def test_discrete_and_free_toll(self):
        config = valid_config()
        config["total_vehicles"] = 10.0
        config["dwpt_ratio"] = 0.3
        config["soc"] = {"kind": "discrete", "values": [0.2, 0.5, 0.8]}
        config["toll"] = {"kind": "free"}
        scenario = scenario_from_config(config)
        assert isinstance(scenario.soc, DiscreteAgents)
        assert scenario.soc.soc_values == (0.2, 0.5, 0.8)
        assert isinstance(scenario.toll, FreeToll)

    def test_round_trip_uniform_fixed(self, tmp_path):
        scenario = base_scenario()
        path = tmp_path / "scenario.cfg"
        save_scenario(scenario, path)
        assert load_scenario(path) == scenario

    def test_round_trip_discrete_free(self, tmp_path):
        scenario = discrete_scenario([0.2, 0.5, 0.8], n_other=7, toll=FreeToll())
        path = tmp_path / "scenario.cfg"
        save_scenario(scenario, path)
        assert load_scenario(path) == scenario

    def test_resolve_prefers_filesystem(self, tmp_path):
        path = tmp_path / "mine.cfg"
        save_scenario(base_scenario(vot=77.0), path)
        assert resolve_scenario(path).prefs.vot == 77.0

    def test_resolve_bare_name_falls_back_to_bundled(self):
        assert resolve_scenario("table1.cfg") == table1_scenario()

    def test_resolve_missing_path(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            resolve_scenario(tmp_path / "nope.cfg")

    def test_bundled_unknown_name(self):
        with pytest.raises(ConfigError, match="no bundled scenario"):
            bundled_scenario_path("missing.cfg")


class TestParseErrors:
    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("toll: [unclosed\n")
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_scenario(path)

    def test_non_mapping_top_level(self, tmp_path):
        path = tmp_path / "list.cfg"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="mapping at the top level"):
            load_scenario(path)

    @pytest.mark.parametrize("section", ["soc", "prefs", "toll", "network"])
    @pytest.mark.parametrize("value", [5, "ab", [1]])
    def test_section_not_a_mapping(self, section, value):
        config = valid_config()
        config[section] = value
        with pytest.raises(ConfigError, match=f"^{section}: expected a mapping$"):
            scenario_from_config(config)

    def test_link_not_a_mapping(self):
        config = valid_config()
        config["network"]["link1"] = 5
        with pytest.raises(ConfigError, match="^network.link1: expected a mapping$"):
            scenario_from_config(config)

    def test_empty_discrete_values(self):
        config = valid_config()
        config["soc"] = {"kind": "discrete", "values": []}
        with pytest.raises(ConfigError, match="soc.values: expected a non-empty list"):
            scenario_from_config(config)

    def test_missing_field_named(self):
        config = valid_config()
        del config["dwpt_ratio"]
        with pytest.raises(ConfigError, match="dwpt_ratio: missing"):
            scenario_from_config(config)

    def test_ratio_out_of_range_named(self):
        config = valid_config()
        config["dwpt_ratio"] = 1.2
        with pytest.raises(ConfigError, match="dwpt_ratio"):
            scenario_from_config(config)

    def test_missing_ers_power(self):
        config = valid_config()
        del config["network"]["link1"]["ers_power_kw"]
        with pytest.raises(ConfigError, match="network.link1.ers_power_kw"):
            scenario_from_config(config)

    def test_link2_rejects_ers_power(self):
        config = valid_config()
        config["network"]["link2"]["ers_power_kw"] = 30.0
        with pytest.raises(ConfigError, match="network.link2"):
            scenario_from_config(config)

    def test_unknown_top_level_key(self):
        config = valid_config()
        config["bogus"] = 1
        with pytest.raises(ConfigError, match="bogus"):
            scenario_from_config(config)

    def test_unknown_nested_key(self):
        config = valid_config()
        config["prefs"]["vost"] = 1.0
        with pytest.raises(ConfigError, match="prefs.*vost"):
            scenario_from_config(config)

    def test_discrete_count_mismatch(self):
        config = valid_config()
        config["soc"] = {"kind": "discrete", "values": [0.5, 0.5]}
        with pytest.raises(ConfigError, match="soc.values"):
            scenario_from_config(config)

    def test_unknown_soc_kind(self):
        config = valid_config()
        config["soc"] = {"kind": "gaussian", "s_lo": 0.1, "s_hi": 0.9}
        with pytest.raises(ConfigError, match="soc.kind"):
            scenario_from_config(config)

    def test_unknown_toll_kind(self):
        config = valid_config()
        config["toll"] = {"kind": "dynamic"}
        with pytest.raises(ConfigError, match="toll.kind"):
            scenario_from_config(config)

    def test_bool_is_not_a_number(self):
        config = valid_config()
        config["total_vehicles"] = True
        with pytest.raises(ConfigError, match="total_vehicles"):
            scenario_from_config(config)

    def test_exponent_numbers_load(self, tmp_path):
        text = bundled_scenario_path().read_text()
        for plain, exponent in (
            ("total_vehicles: 1000.0", "total_vehicles: 1e3"),
            ("voe: 100.0", "voe: 1E+2"),
            ("s_lo: 0.1", "s_lo: .1e0"),
            ("price: 100.0", "price: 1.0e2"),
        ):
            assert plain in text
            text = text.replace(plain, exponent)
        path = tmp_path / "exponents.cfg"
        path.write_text(text)
        assert load_scenario(path) == table1_scenario()

    def test_quoted_exponent_is_not_a_number(self, tmp_path):
        text = bundled_scenario_path().read_text()
        path = tmp_path / "quoted.cfg"
        path.write_text(text.replace("total_vehicles: 1000.0", "total_vehicles: '1e3'"))
        with pytest.raises(ConfigError, match="total_vehicles: expected a number"):
            load_scenario(path)

    def test_free_toll_rejects_price(self):
        config = valid_config()
        config["toll"] = {"kind": "free", "price": 5.0}
        with pytest.raises(ConfigError, match="toll"):
            scenario_from_config(config)

    def test_domain_error_carries_field_path(self):
        config = valid_config()
        config["soc"]["s_lo"] = 0.95  # above s_hi
        with pytest.raises(ConfigError, match="soc"):
            scenario_from_config(config)


NUMERIC_FIELDS = (
    ("total_vehicles", -5.0),
    ("dwpt_ratio", 1.2),
    ("soc.s_lo", 0.0),
    ("soc.s_hi", 1.5),
    ("prefs.vot", 0.0),
    ("prefs.voe", -1.0),
    ("toll.price", -1.0),
    ("network.link1.free_flow_time", 0.0),
    ("network.link1.capacity", -1.0),
    ("network.link1.ers_power_kw", 0.0),
    ("network.link2.free_flow_time", -1.0),
    ("network.link2.capacity", 0.0),
)


@pytest.mark.parametrize(
    "path,value",
    [
        (path, value)
        for path, out_of_range in NUMERIC_FIELDS
        for value in (math.nan, math.inf, out_of_range)
    ],
)
def test_bad_number_names_its_field(path, value):
    config = valid_config()
    *parents, leaf = path.split(".")
    mapping = config
    for key in parents:
        mapping = mapping[key]
    mapping[leaf] = value
    # the path's parts in order, e.g. "prefs: vot must be ..." for prefs.vot
    with pytest.raises(ConfigError, match=".*".join(path.split("."))):
        scenario_from_config(config)


class TestOverrides:
    def test_each_path(self):
        base = base_scenario()
        out = apply_overrides(
            base,
            {
                "toll.price": 42.0,
                "prefs.vot": 60.0,
                "prefs.voe": 120.0,
                "dwpt_ratio": 0.4,
                "soc.s_lo": 0.2,
                "soc.s_hi": 0.8,
            },
        )
        assert out.toll == FixedToll(price=42.0)
        assert out.prefs == Preferences(vot=60.0, voe=120.0)
        assert out.dwpt_ratio == 0.4
        assert out.soc == UniformContinuum(s_lo=0.2, s_hi=0.8, mass=400.0)
        # base untouched
        assert base.toll.price == 100.0

    def test_toll_price_converts_free_to_fixed(self):
        out = apply_overrides(base_scenario(toll=FreeToll()), {"toll.price": 10.0})
        assert out.toll == FixedToll(price=10.0)

    def test_unknown_path(self):
        with pytest.raises(ConfigError, match="unknown override"):
            apply_overrides(base_scenario(), {"prefs.vol": 1.0})

    def test_discrete_rejects_ratio_and_bounds(self):
        scenario = discrete_scenario([0.2, 0.5, 0.8], n_other=7)
        with pytest.raises(ConfigError, match="uniform"):
            apply_overrides(scenario, {"dwpt_ratio": 0.5})
        with pytest.raises(ConfigError, match="uniform"):
            apply_overrides(scenario, {"soc.s_lo": 0.2})

    def test_invalid_value_carries_path(self):
        with pytest.raises(ConfigError, match="soc.s_lo"):
            apply_overrides(base_scenario(), {"soc.s_lo": 1.5})
        with pytest.raises(ConfigError, match="toll.price"):
            apply_overrides(base_scenario(), {"toll.price": -1.0})

    def test_no_overrides_returns_the_input(self):
        base = base_scenario()
        assert apply_overrides(base, {}) is base

    @pytest.mark.parametrize(
        "overrides",
        [
            {"prefs.vot": 60.0, "prefs.voe": 120.0},
            {"prefs.voe": 120.0, "prefs.vot": 60.0},
            {"dwpt_ratio": 0.4, "soc.s_hi": 0.8},
            {"soc.s_hi": 0.3, "soc.s_lo": 0.25, "dwpt_ratio": 0.6},
            {"toll.price": 0.0, "soc.s_lo": 0.5, "prefs.vot": 1.0},
        ],
    )
    def test_same_as_one_at_a_time(self, overrides):
        base = base_scenario()
        stepwise = base
        for key, value in overrides.items():
            stepwise = apply_overrides(stepwise, {key: value})
        assert apply_overrides(base, overrides) == stepwise

    def test_order_decides_which_override_fails(self):
        # s_lo 0.5 is only valid while s_hi is still 0.9
        out = apply_overrides(base_scenario(), {"soc.s_lo": 0.5, "soc.s_hi": 0.6})
        assert out.soc == UniformContinuum(s_lo=0.5, s_hi=0.6, mass=200.0)
        with pytest.raises(ConfigError, match="^soc.s_lo: s_lo must be < s_hi"):
            apply_overrides(base_scenario(), {"soc.s_hi": 0.4, "soc.s_lo": 0.5})
        with pytest.raises(ConfigError, match="^soc.s_hi: s_lo must be < s_hi"):
            apply_overrides(base_scenario(), {"soc.s_lo": 0.5, "soc.s_hi": 0.4})

    @pytest.mark.parametrize(
        "path, value",
        [
            ("toll.price", -1.0),
            ("prefs.vot", 0.0),
            ("prefs.voe", -5.0),
            ("dwpt_ratio", 1.2),
            ("dwpt_ratio", 0.0),
            ("soc.s_lo", 1.5),
            ("soc.s_hi", 0.05),
        ]
        + [(path, math.nan) for path in OVERRIDE_PATHS],
    )
    def test_each_invalid_value_names_its_path(self, path, value):
        # a valid override first, so the failing one is not the only one
        overrides = {"toll.price": 10.0} if path != "toll.price" else {}
        overrides[path] = value
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: "):
            apply_overrides(base_scenario(), overrides)

    def test_discrete_messages(self):
        scenario = discrete_scenario([0.2, 0.5, 0.8], n_other=7)
        with pytest.raises(ConfigError) as info:
            apply_overrides(scenario, {"toll.price": 5.0, "dwpt_ratio": 0.5})
        assert str(info.value) == (
            "dwpt_ratio override requires a uniform SoC pool; "
            "discrete agent counts cannot be rescaled"
        )
        for path in ("soc.s_lo", "soc.s_hi"):
            with pytest.raises(ConfigError) as info:
                apply_overrides(scenario, {path: 0.3})
            assert str(info.value) == f"{path} override requires a uniform SoC pool"

    def test_no_path_reaches_network_or_fleet_size(self):
        # run_sweep shares one system optimum across cells; a new path
        # must be listed here and must not move the network or N
        assert set(VALID_OVERRIDES) == set(OVERRIDE_PATHS)
        base = base_scenario(network=UNEQUAL_NETWORK)
        for path, value in VALID_OVERRIDES.items():
            out = apply_overrides(base, {path: value})
            assert out != base
            assert out.network == base.network
            assert out.total_vehicles == base.total_vehicles

    def test_parse_override_arg(self):
        assert parse_override_arg("toll.price=50") == ("toll.price", 50.0)
        assert parse_override_arg(" prefs.voe =1e2") == ("prefs.voe", 100.0)
        with pytest.raises(ConfigError, match="path=value"):
            parse_override_arg("toll.price")
        with pytest.raises(ConfigError, match="not a number"):
            parse_override_arg("toll.price=cheap")


class TestSweeps:
    def test_spec_validation(self):
        base = base_scenario()
        with pytest.raises(ValueError, match="at least one axis"):
            SweepSpec(base=base, axes=())
        with pytest.raises(ValueError, match="unknown sweep axis"):
            SweepSpec(base=base, axes=(("prefs.vol", (1.0,)),))
        with pytest.raises(ValueError, match="no values"):
            SweepSpec(base=base, axes=(("toll.price", ()),))
        with pytest.raises(ValueError, match="'toll.price' is given twice"):
            SweepSpec(
                base=base,
                axes=(
                    ("toll.price", (50.0, 150.0)),
                    ("prefs.voe", (1.0,)),
                    ("toll.price", (100.0,)),
                ),
            )

    def test_lexicographic_order_and_identifiers(self):
        spec = SweepSpec(
            base=base_scenario(),
            axes=(("toll.price", (0.0, 100.0)), ("prefs.voe", (50.0, 150.0))),
        )
        rows = run_sweep(spec)
        assert [row.identifiers for row in rows] == [
            (("toll.price", 0.0), ("prefs.voe", 50.0)),
            (("toll.price", 0.0), ("prefs.voe", 150.0)),
            (("toll.price", 100.0), ("prefs.voe", 50.0)),
            (("toll.price", 100.0), ("prefs.voe", 150.0)),
        ]
        assert all(row.error == "" for row in rows)
        assert all(row.pattern for row in rows)

    def test_error_cells_flagged_not_dropped(self):
        spec = SweepSpec(
            base=discrete_scenario([0.2, 0.5, 0.8], n_other=7),
            axes=(("dwpt_ratio", (0.3, 0.6)),),
        )
        rows = run_sweep(spec)
        assert len(rows) == 2
        assert all("uniform" in row.error for row in rows)
        assert all(row.s_thres is None for row in rows)

    @staticmethod
    def _cell_row(base, identifiers):
        """A sweep cell solved on its own, the optimum computed in-row."""
        try:
            cell = apply_overrides(base, dict(identifiers))
        except ConfigError as exc:
            return ResultRow(identifiers=identifiers, error=str(exc))
        return solve_row(cell, identifiers)

    @pytest.mark.parametrize(
        "network", [None, UNEQUAL_NETWORK], ids=["twin", "unequal"]
    )
    def test_rows_equal_cells_solved_alone(self, network):
        base = base_scenario() if network is None else base_scenario(network=network)
        spec = SweepSpec(
            base=base,
            axes=(
                ("toll.price", (0.0, 40.0, 150.0, 900.0)),
                ("dwpt_ratio", (0.0, 0.2, 0.6, 1.2)),
                ("soc.s_lo", (0.05, 0.5, 0.9, 0.95)),
            ),
        )
        rows = run_sweep(spec)
        paths = [path for path, _ in spec.axes]
        expected = [
            self._cell_row(base, tuple(zip(paths, combo)))
            for combo in itertools.product(*(values for _, values in spec.axes))
        ]
        assert rows == expected
        errors = [row.error for row in rows if row.error]
        assert any("dwpt_ratio must be in (0,1)" in e for e in errors)
        assert any("s_lo must be < s_hi" in e for e in errors)
        solved = {row.conventional_so for row in rows if not row.error}
        # on twin links some cells reach the system optimum and some miss it
        assert solved == ({True, False} if network is None else {False})

    def test_failing_optimum_fails_each_cell_in_row(self, monkeypatch):
        def broken(network, n_total):
            raise ConvergenceError("system optimum: no bracket")

        monkeypatch.setattr("erstoll.analysis.min_total_travel_time", broken)
        spec = SweepSpec(
            base=base_scenario(),
            axes=(("toll.price", (0.0, 100.0)), ("dwpt_ratio", (0.3, 1.5))),
        )
        rows = run_sweep(spec)
        assert [row.error for row in rows] == [
            "system optimum: no bracket",
            "dwpt_ratio: dwpt_ratio must be in (0,1), got 1.5",
            "system optimum: no bracket",
            "dwpt_ratio: dwpt_ratio must be in (0,1), got 1.5",
        ]

    def test_solve_row_values_match_solver(self):
        row = solve_row(base_scenario(), (("toll.price", 100.0),))
        assert row.error == ""
        assert row.s_thres == pytest.approx(0.5)
        assert row.x1_d == pytest.approx(100.0)
        assert row.x1 == pytest.approx(500.0)
        assert row.ttt == pytest.approx(11500.0)
        assert row.pattern == "B_i_c"
        assert row.conventional_so is True
        assert row.ers_optimum is False


class TestPresets:
    def test_table2_has_five_rows(self):
        rows = table2_rows()
        assert len(rows) == 5
        assert [row.identifiers[0][1] for row in rows] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert [row.identifiers[1][1] for row in rows] == [100.0, 50.0, 150.0, 100.0, 100.0]
        assert [row.identifiers[2][1] for row in rows] == [100.0, 100.0, 100.0, 50.0, 150.0]
        assert all(row.error == "" for row in rows)

    def test_fig2_values(self):
        grid = fig2_data([100.0, 150.0, 0.0], [100.0])
        lookup = {(voe, price): s for voe, price, s in grid}
        assert lookup[(100.0, 100.0)] == pytest.approx(0.5)
        assert lookup[(100.0, 150.0)] == pytest.approx(0.4)
        assert lookup[(100.0, 0.0)] == pytest.approx(1.0)

    @given(
        vot=st.floats(1e-3, 1e3),
        voe=st.floats(1e-3, 1e3),
        price=st.floats(0.0, 1e4),
        t=st.floats(0.0, 1e3),
    )
    def test_fig2_is_the_threshold_at_any_vot_and_equal_times(self, vot, voe, price, t):
        expected = threshold_soc(Preferences(vot=vot, voe=voe), price, t, t)
        assert fig2_data([price], [voe])[0][2] == expected

    def test_fig2_rejects_bad_input(self):
        with pytest.raises(ValueError, match="non-empty"):
            fig2_data([], [100.0])
        with pytest.raises(ValueError, match=">= 0"):
            fig2_data([-5.0], [100.0])


def _csv_text(rows):
    buffer = io.StringIO()
    rows_to_csv(rows, buffer)
    return buffer.getvalue()


class TestSerialization:
    def test_csv_shape_and_formats(self):
        rows = [solve_row(base_scenario(), (("toll.price", 100.0),))]
        text = _csv_text(rows)
        lines = text.splitlines()
        assert lines[0] == (
            "toll.price,s_thres,x1_d,x2_d,x1_o,x2_o,x1,t1,ttt,tcv,revenue,"
            "pattern,conventional_so,ers_optimum,error"
        )
        cells = lines[1].split(",")
        assert cells[0] == "100"
        assert cells[1] == "0.5000"
        assert cells[2] == "100.0000"
        assert cells[7] == "11.5000"
        assert cells[11] == "B_i_c"
        assert cells[12] == "true"
        assert cells[13] == "false"
        assert cells[14] == ""
        assert text.endswith("\n") and "\r" not in text

    def test_csv_error_row_blank_results(self):
        row = ResultRow(identifiers=(("toll.price", 1.0),), error="boom")
        lines = _csv_text([row]).splitlines()
        assert lines[1] == "1,,,,,,,,,,,,,,boom"

    def test_csv_rejects_empty_and_mixed(self):
        mixed = [
            ResultRow(identifiers=(("toll.price", 1.0),)),
            ResultRow(identifiers=(("prefs.voe", 1.0),)),
        ]
        for write in (rows_to_csv, rows_to_yaml):
            buffer = io.StringIO()
            with pytest.raises(ValueError, match="no rows"):
                write([], buffer)
            with pytest.raises(ValueError, match="inconsistent identifier"):
                write(mixed, buffer)
            assert buffer.getvalue() == "", write.__name__

    def test_table_rejects_an_unknown_format(self):
        with pytest.raises(ValueError, match="unknown table format 'json'"):
            write_table(("a",), [["1"]], io.StringIO(), "json")

    def test_yaml_twin_matches_csv_cells(self):
        rows = [solve_row(base_scenario(), (("toll.price", 100.0),))]
        buffer = io.StringIO()
        rows_to_yaml(rows, buffer)
        docs = yaml.safe_load(buffer.getvalue())
        assert len(docs) == 1
        doc = docs[0]
        assert doc["toll.price"] == "100"
        assert doc["s_thres"] == "0.5000"
        assert doc["pattern"] == "B_i_c"
        assert doc["conventional_so"] == "true"
        assert doc["error"] == ""

    def test_yaml_text_is_the_pure_python_dump(self):
        long_error = (
            "solve: no bracket for 'x1' at toll.price=123.4: "
            'residual "1.5e-07" exceeds tolerance; '
        ) * 6
        rows = [
            solve_row(base_scenario(), (("toll.price", 100.0), ("prefs.voe", 50.0))),
            ResultRow(
                identifiers=(("toll.price", 0.0), ("prefs.voe", 1e-7)),
                error="dwpt_ratio: dwpt_ratio must be in (0,1), got 1.2",
            ),
            ResultRow(
                identifiers=(("toll.price", 1e9), ("prefs.voe", 2.0)),
                error=long_error,
            ),
        ]
        buffer = io.StringIO()
        rows_to_yaml(rows, buffer)
        text = buffer.getvalue()
        docs = yaml.load(text, Loader=yaml.SafeLoader)
        assert [doc["error"] for doc in docs] == [row.error for row in rows]
        assert text == yaml.safe_dump(docs, sort_keys=False, default_style="'")

    @pytest.mark.parametrize(
        "scenario",
        [
            base_scenario(),
            discrete_scenario([0.2, 0.5, 0.8], n_other=7, toll=FreeToll()),
        ],
        ids=["uniform-fixed", "discrete-free"],
    )
    def test_saved_text_is_the_pure_python_dump(self, scenario, tmp_path):
        path = tmp_path / "s.cfg"
        save_scenario(scenario, path)
        assert path.read_text() == yaml.safe_dump(
            scenario_to_config(scenario), sort_keys=False
        )

    def test_bundled_presets_load_as_pure_python_parse(self):
        presets = sorted(bundled_scenario_path().parent.glob("*.cfg"))
        assert presets
        for path in presets:
            config = yaml.load(path.read_text(), Loader=yaml.SafeLoader)
            assert load_scenario(path) == scenario_from_config(config)

    @pytest.mark.parametrize(
        "text",
        ["toll: [unclosed\n", "a: b: c\n", "prefs:\n\tvot: 1\n", "- x\ny: 1\n"],
    )
    def test_malformed_yaml_is_a_config_error(self, text, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_scenario(path)

    def test_uses_libyaml_when_built_with_it(self):
        if not yaml.__with_libyaml__:
            pytest.skip("PyYAML built without libyaml")
        assert issubclass(harness._YAML_LOADER, yaml.CSafeLoader)
        assert harness._YAML_DUMPER is yaml.CSafeDumper

    def test_fig2_csv(self, tmp_path):
        path = tmp_path / "fig2.csv"
        args = ["fig2", "--prices", "100", "--voes", "100", "--output", str(path)]
        assert cli.main(args) == 0
        assert path.read_text() == "voe,toll_price,s_thres\n100,100,0.5000\n"

    def test_trajectory_csv(self, tmp_path):
        scenario = discretize_scenario(base_scenario(total=100.0))
        agents = agents_from_scenario(scenario, initial="all_link2")
        traj = run(agents, scenario.network, scenario.prefs, scenario.toll)
        config, path = tmp_path / "small.cfg", tmp_path / "traj.csv"
        save_scenario(base_scenario(total=100.0), config)
        args = ["simulate", "--scenario", str(config), "--output", str(path)]
        assert cli.main(args) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "round,x1_d,x1_o,t1,t2,switches,potential"
        assert len(lines) == len(traj.snapshots) + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[3]) > 0 and float(first[4]) > 0
        potentials = [float(line.split(",")[6]) for line in lines[1:]]
        assert potentials == [round(s.potential, 4) for s in traj.snapshots]
