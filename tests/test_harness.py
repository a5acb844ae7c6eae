"""Config parsing, overrides, sweeps, presets, and serialization."""

import io
import math

import pytest
import yaml

from erstoll.dynamics import agents_from_scenario, discretize_scenario, run
from erstoll.harness import (
    ConfigError,
    ResultRow,
    SweepSpec,
    apply_overrides,
    bundled_scenario_path,
    fig2_data,
    fig2_to_csv,
    load_scenario,
    parse_override_arg,
    resolve_scenario,
    rows_to_csv_text,
    rows_to_yaml,
    run_sweep,
    save_scenario,
    scenario_from_config,
    solve_row,
    table1_scenario,
    table2_rows,
    trajectory_to_csv,
)
from erstoll.model import (
    DiscreteAgents,
    FixedToll,
    FreeToll,
    Preferences,
    UniformContinuum,
)

from conftest import base_scenario, discrete_scenario


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
        prefs = Preferences(vot=50.0, voe=100.0)
        grid = fig2_data(prefs, [100.0, 150.0, 0.0], [100.0])
        lookup = {(voe, price): s for voe, price, s in grid}
        assert lookup[(100.0, 100.0)] == pytest.approx(0.5)
        assert lookup[(100.0, 150.0)] == pytest.approx(0.4)
        assert lookup[(100.0, 0.0)] == pytest.approx(1.0)

    def test_fig2_voe_axis_overrides_prefs(self):
        prefs = Preferences(vot=50.0, voe=100.0)
        grid = fig2_data(prefs, [100.0], [150.0])
        assert grid == [(150.0, 100.0, pytest.approx(0.6))]

    def test_fig2_rejects_bad_input(self):
        prefs = Preferences(vot=50.0, voe=100.0)
        with pytest.raises(ValueError, match="non-empty"):
            fig2_data(prefs, [], [100.0])
        with pytest.raises(ValueError, match=">= 0"):
            fig2_data(prefs, [-5.0], [100.0])


class TestSerialization:
    def test_csv_shape_and_formats(self):
        rows = [solve_row(base_scenario(), (("toll.price", 100.0),))]
        text = rows_to_csv_text(rows)
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
        lines = rows_to_csv_text([row]).splitlines()
        assert lines[1] == "1,,,,,,,,,,,,,,boom"

    def test_csv_rejects_empty_and_mixed(self):
        with pytest.raises(ValueError, match="no rows"):
            rows_to_csv_text([])
        rows = [
            ResultRow(identifiers=(("toll.price", 1.0),)),
            ResultRow(identifiers=(("prefs.voe", 1.0),)),
        ]
        with pytest.raises(ValueError, match="inconsistent identifier"):
            rows_to_csv_text(rows)

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

    def test_fig2_csv(self):
        prefs = Preferences(vot=50.0, voe=100.0)
        buffer = io.StringIO()
        fig2_to_csv(fig2_data(prefs, [100.0], [100.0]), buffer)
        assert buffer.getvalue() == "voe,toll_price,s_thres\n100,100,0.5000\n"

    def test_trajectory_csv(self):
        scenario = discretize_scenario(base_scenario(total=100.0))
        agents = agents_from_scenario(scenario, initial="all_link2")
        traj = run(agents, scenario.network, scenario.prefs, scenario.toll)
        buffer = io.StringIO()
        trajectory_to_csv(traj, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "round,x1_d,x1_o,t1,t2,switches,potential"
        assert len(lines) == len(traj.snapshots) + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[3]) > 0 and float(first[4]) > 0
        potentials = [float(line.split(",")[6]) for line in lines[1:]]
        assert potentials == [round(s.potential, 4) for s in traj.snapshots]
