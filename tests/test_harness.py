"""Config parsing, overrides, sweeps, presets, and serialization."""

import csv
import io
import itertools
import math
import operator
import re
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erstoll import cli, harness
from erstoll.dynamics import agents_from_scenario, discretize_scenario, run
from erstoll.equilibrium import ConvergenceError
from erstoll.harness import (
    OVERRIDE_PATHS,
    ConfigError,
    ResultRow,
    apply_overrides,
    bundled_scenario_path,
    fig2_data,
    load_scenario,
    resolve_scenario,
    rows_to_csv,
    rows_to_yaml,
    run_sweep,
    scenario_from_config,
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

from conftest import (
    ERS_LINK,
    base_scenario,
    discrete_scenario,
    scenario_config,
    scenarios,
    write_scenario,
)

# link 2 slower, smaller and less steep than the ERS link
UNEQUAL_NETWORK = Network(
    ERS_LINK, LinkParams(free_flow_time=12.0, capacity=400.0, bpr_beta=2.0)
)

TABLE1_TEXT = bundled_scenario_path().read_text()

VOT_ERROR = "prefs.vot: vot must be finite and > 0, got {}"

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
        write_scenario(scenario, path)
        assert load_scenario(path) == scenario

    def test_round_trip_discrete_free(self, tmp_path):
        scenario = discrete_scenario([0.2, 0.5, 0.8], n_other=7, toll=FreeToll())
        path = tmp_path / "scenario.cfg"
        write_scenario(scenario, path)
        assert load_scenario(path) == scenario

    def test_resolve_prefers_filesystem(self, tmp_path):
        path = tmp_path / "mine.cfg"
        write_scenario(base_scenario(vot=77.0), path)
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

    def test_huge_integer_names_its_field(self):
        # float() overflows on an int past the float range; that is bad
        # input at its field, not a numerical failure
        config = valid_config()
        config["total_vehicles"] = 10**400
        with pytest.raises(ConfigError, match="^total_vehicles: int too large"):
            scenario_from_config(config)
        config = valid_config()
        config["soc"] = {"kind": "discrete", "values": [0.5, 10**400]}
        with pytest.raises(ConfigError, match="^soc.values: int too large"):
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

    def test_huge_integer_override_names_its_path(self):
        with pytest.raises(ConfigError, match="^toll.price: int too large"):
            apply_overrides(base_scenario(), {"toll.price": 10**400})

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
        # an override keeps N and the network (the SoC pool is rescaled
        # with the base N); a new path must be listed here and keep them too
        assert set(VALID_OVERRIDES) == set(OVERRIDE_PATHS)
        base = base_scenario(network=UNEQUAL_NETWORK)
        for path, value in VALID_OVERRIDES.items():
            out = apply_overrides(base, {path: value})
            assert out != base
            assert out.network == base.network
            assert out.total_vehicles == base.total_vehicles


class TestSweeps:
    def test_spec_validation(self):
        base = base_scenario()
        with pytest.raises(ValueError, match="at least one axis"):
            run_sweep(base, ())
        with pytest.raises(ValueError, match="unknown sweep axis"):
            run_sweep(base, (("prefs.vol", (1.0,)),))
        with pytest.raises(ValueError, match="no values"):
            run_sweep(base, (("toll.price", ()),))
        with pytest.raises(ValueError, match="'toll.price' is given twice"):
            run_sweep(
                base,
                (
                    ("toll.price", (50.0, 150.0)),
                    ("prefs.voe", (1.0,)),
                    ("toll.price", (100.0,)),
                ),
            )

    def test_iterator_axes_are_read_once(self):
        base = table1_scenario()
        axes = (("toll.price", (1.0, 2.0)), ("prefs.voe", (50.0, 150.0)))
        given = iter([(path, iter(values)) for path, values in axes])
        assert run_sweep(base, given) == run_sweep(base, axes)
        with pytest.raises(ValueError, match="'toll.price' has no values"):
            run_sweep(base, iter([("toll.price", iter(()))]))

    def test_lexicographic_order_and_identifiers(self):
        rows = run_sweep(
            base_scenario(),
            (("toll.price", (0.0, 100.0)), ("prefs.voe", (50.0, 150.0))),
        )
        assert [row.identifiers for row in rows] == [
            (("toll.price", 0.0), ("prefs.voe", 50.0)),
            (("toll.price", 0.0), ("prefs.voe", 150.0)),
            (("toll.price", 100.0), ("prefs.voe", 50.0)),
            (("toll.price", 100.0), ("prefs.voe", 150.0)),
        ]
        assert all(row.error == "" for row in rows)
        assert all(row.pattern for row in rows)

    def test_error_cells_flagged_not_dropped(self):
        rows = run_sweep(
            discrete_scenario([0.2, 0.5, 0.8], n_other=7),
            (("dwpt_ratio", (0.3, 0.6)),),
        )
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
        axes = (
            ("toll.price", (0.0, 40.0, 150.0, 900.0)),
            ("dwpt_ratio", (0.0, 0.2, 0.6, 1.2)),
            ("soc.s_lo", (0.05, 0.5, 0.9, 0.95)),
        )
        rows = run_sweep(base, axes)
        assert rows == self._expected_rows(base, axes)
        errors = [row.error for row in rows if row.error]
        assert any("dwpt_ratio must be in (0,1)" in e for e in errors)
        assert any("s_lo must be < s_hi" in e for e in errors)
        solved = {row.conventional_so for row in rows if not row.error}
        # on twin links some cells reach the system optimum and some miss it
        assert solved == ({True, False} if network is None else {False})

    @pytest.mark.parametrize(
        "base, axes, errors",
        [
            # a failing outer value fails every cell under it, with its message
            (
                base_scenario(),
                (("prefs.vot", (-1.0, 40.0, 0.0)), ("toll.price", (10.0, -2.0, 300.0))),
                [VOT_ERROR.format(-1.0)] * 3
                + ["", "toll.price: toll price must be finite and >= 0, got -2.0", ""]
                + [VOT_ERROR.format(0.0)] * 3,
            ),
            # each s_lo is checked against the base s_hi (0.9), then each
            # s_hi against that s_lo: (0.5, 0.3) is out of order, (0.2, 0.3)
            # is not
            (
                base_scenario(),
                (("soc.s_lo", (0.2, 0.5, 0.95)), ("soc.s_hi", (0.3, 0.6))),
                ["", "", "soc.s_hi: s_lo must be < s_hi, got [0.5, 0.3]", ""]
                + ["soc.s_lo: s_lo must be < s_hi, got [0.95, 0.9]"] * 2,
            ),
            (
                base_scenario(network=UNEQUAL_NETWORK),
                (("prefs.vot", (10.0, 50.0, 200.0)), ("prefs.voe", (20.0, 100.0, 0.0))),
                ["", "", "prefs.voe: voe must be finite and > 0, got 0.0"] * 3,
            ),
            (
                discrete_scenario([0.2, 0.5, 0.5, 0.8], n_other=6),
                (("toll.price", (0.0, 10.0, 40.0, 100.0)),),
                [""] * 4,
            ),
            (
                discrete_scenario([0.2, 0.5, 0.8], n_other=7),
                (("toll.price", (0.0, 5.0)), ("dwpt_ratio", (0.5,))),
                [
                    "dwpt_ratio override requires a uniform SoC pool; "
                    "discrete agent counts cannot be rescaled"
                ]
                * 2,
            ),
        ],
        ids=["outer-invalid", "s_lo-then-s_hi", "vot-by-voe", "discrete-toll", "discrete-ratio"],
    )
    def test_fold_equals_cells_solved_alone(self, base, axes, errors):
        rows = run_sweep(base, axes)
        assert rows == self._expected_rows(base, axes)
        assert [row.error for row in rows] == errors

    @given(data=st.data())
    def test_fold_equals_cells_solved_alone_property(self, data):
        base = data.draw(
            st.sampled_from(
                [
                    base_scenario(),
                    base_scenario(network=UNEQUAL_NETWORK, ratio=0.6),
                    discrete_scenario([0.2, 0.5, 0.5], n_other=4, toll=FreeToll()),
                ]
            )
        )
        paths = data.draw(st.permutations(OVERRIDE_PATHS))[: data.draw(st.integers(1, 3))]
        values = st.sampled_from([-1.0, 0.0, 0.05, 0.3, 0.6, 0.95, 1.5, 40.0, math.nan])
        axes = tuple(
            (path, tuple(data.draw(st.lists(values, min_size=1, max_size=3))))
            for path in paths
        )
        assert run_sweep(base, axes) == self._expected_rows(base, axes)

    @classmethod
    def _expected_rows(cls, base, axes):
        paths = [path for path, _ in axes]
        return [
            cls._cell_row(base, tuple(zip(paths, combo)))
            for combo in itertools.product(*(values for _, values in axes))
        ]

    @pytest.mark.parametrize(
        "axes, overrides",
        [
            # no axis reads a field an outer one writes: each value once
            (
                (
                    ("toll.price", (0.0, 50.0, 100.0, 200.0, 400.0)),
                    ("prefs.voe", (20.0, 60.0, 100.0, 150.0, 300.0)),
                    ("dwpt_ratio", (0.1, 0.3, 0.6, 0.9)),
                ),
                14,
            ),
            # voe reads the prefs each vot writes, so it folds per parent
            ((("prefs.vot", (20.0, 50.0, 80.0)), ("prefs.voe", (50.0, 100.0, 150.0))), 12),
        ],
        ids=["toll-voe-ratio", "vot-voe"],
    )
    def test_each_axis_value_is_applied_once_per_parent_field(self, axes, overrides):
        base = table1_scenario()
        with mock.patch.object(harness, "_override", wraps=harness._override) as override:
            rows = run_sweep(base, axes)
        assert override.call_count == overrides
        assert rows == self._expected_rows(base, axes)

    def test_a_negative_zero_toll_is_its_own_cell(self):
        # 0.0 == -0.0, but a -0.0 toll writes its revenue as -0.0000
        base = table1_scenario()
        axes = (("prefs.voe", (50.0, 150.0)), ("toll.price", (0.0, -0.0)))
        rows = run_sweep(base, axes)
        assert repr(rows) == repr(self._expected_rows(base, axes))
        assert [math.copysign(1.0, row.revenue) for row in rows] == [1.0, -1.0] * 2

    def test_failing_optimum_fails_each_cell_in_row(self, monkeypatch):
        def broken(network, n_total, ttt, start):
            raise ConvergenceError("system optimum: no bracket")

        monkeypatch.setattr("erstoll.analysis._least_ttt", broken)
        rows = run_sweep(
            base_scenario(),
            (("toll.price", (0.0, 100.0)), ("dwpt_ratio", (0.3, 1.5))),
        )
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
        tolls = [FixedToll(100.0), FixedToll(150.0), FixedToll(0.0)]
        grid = fig2_data(tolls, [Preferences(vot=1.0, voe=100.0)])
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
        unit_vot = Preferences(vot=1.0, voe=voe)
        assert fig2_data([FixedToll(price)], [unit_vot])[0][2] == expected

    def test_fig2_rejects_bad_input(self):
        with pytest.raises(ValueError, match="non-empty"):
            fig2_data([], [Preferences(vot=1.0, voe=100.0)])
        with pytest.raises(ValueError, match="non-empty"):
            fig2_data([FixedToll(100.0)], [])


# printable ASCII with no space, comma or quote: write_table's plain cells
_PLAIN = re.compile(r"""[!#-&(-+\--~]*""")
_PLAIN_CELLS = st.text(st.characters(codec="ascii", min_codepoint=0x21, exclude_characters=",'\"\x7f"))
_ANY_CELLS = st.text(st.sampled_from(" ,'\"\t\n\ré€") | st.characters(exclude_categories=("Cs",)))


# write_table's column names: a letter or underscore, then up to 99 of
# these
_WORD_START = "_ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
_WORD_REST = _WORD_START + "0123456789."
_NAMES = st.builds(
    operator.add,
    st.sampled_from(_WORD_START),
    st.text(_WORD_REST, max_size=8) | st.text(_WORD_REST, min_size=90, max_size=99),
)


def _long(cells):
    # past the emitter's 80 columns
    return st.builds(operator.mul, cells.filter(bool), st.integers(10, 40))


@st.composite
def _tables(draw):
    """A header of distinct column names and rows of its width, each row
    all plain cells or any cells (spaces, commas, quotes, tabs, line
    breaks, non-ASCII), so plain and non-plain rows interleave."""
    width = draw(st.integers(1, 4))
    plain = st.one_of(_PLAIN_CELLS, _long(_PLAIN_CELLS))
    cells = st.one_of(plain, _ANY_CELLS, _long(_ANY_CELLS))
    header = draw(st.lists(_NAMES, min_size=width, max_size=width, unique=True))
    row = st.lists(plain, min_size=width, max_size=width) | st.lists(
        cells, min_size=width, max_size=width
    )
    return header, draw(st.lists(row, max_size=6))


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
            write_table([("a", "{}")], [["1"]], io.StringIO(), "json")

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
        "dumper",
        [yaml.SafeDumper, getattr(yaml, "CSafeDumper", None)],
        ids=["python", "libyaml"],
    )
    @pytest.mark.parametrize("n_rows", [0, 1, 3])
    def test_yaml_events_are_the_dump(self, dumper, n_rows, monkeypatch):
        if dumper is None:
            pytest.skip("PyYAML built without libyaml")
        _, loader, _ = harness._pyyaml()
        monkeypatch.setattr(harness, "_pyyaml", lambda: (yaml, loader, dumper))
        header = ("toll.price", "prefs.voe", "pattern", "error")
        long_error = "solve: no bracket for x1 at toll.price=123.4, residual 1.5e-07; " * 3
        rows = [
            ["1e-300", "1e+09", "B_ii_c1", long_error],
            ["0", "100", "it's", "'quoted' and 'more'"],
            ["5", "1e+06", "", ""],
        ][:n_rows]
        buffer = io.StringIO()
        write_table([(name, "{}") for name in header], rows, buffer, "structured-text")
        docs = [dict(zip(header, row)) for row in rows]
        assert buffer.getvalue() == yaml.dump(
            docs, Dumper=dumper, sort_keys=False, default_style="'"
        )
        if n_rows:  # the long error is folded over more lines
            assert len(buffer.getvalue().splitlines()) > len(header) * n_rows

    @pytest.mark.parametrize(
        "dumper",
        [yaml.SafeDumper, getattr(yaml, "CSafeDumper", None)],
        ids=["python", "libyaml"],
    )
    @settings(max_examples=200, deadline=None)
    @given(table=_tables())
    @example(table=(["a", "b"], [["it's", "x"], ['1"', "2"], ["é", "3"], ["1", "2"]]))
    @example(table=(["toll.price", "_" * 100], [["1e-300", "x" * 400], ["", ""]]))
    def test_table_is_the_reference_writers(self, dumper, table):
        """A row of plain cells passes as a tuple, on the "{}" fields, and
        any other as a list; either way the text is the reference
        writers', and only the list rows import PyYAML."""
        if dumper is None:
            pytest.skip("PyYAML built without libyaml")
        header, cells = table
        columns = [(name, "{}") for name in header]
        # a lone empty cell is not plain: csv.writer quotes it
        rows = [
            tuple(row)
            if all(map(_PLAIN.fullmatch, row)) and (len(row) > 1 or row[0])
            else row
            for row in cells
        ]
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows([header, *cells])
        buffer = io.StringIO()
        write_table(columns, rows, buffer, "csv")
        assert buffer.getvalue() == expected.getvalue()

        docs = [dict(zip(header, row)) for row in cells]
        _, loader, _ = harness._pyyaml()
        calls = []

        def pyyaml():
            calls.append(1)
            return yaml, loader, dumper

        buffer = io.StringIO()
        with mock.patch.object(harness, "_pyyaml", pyyaml):
            write_table(columns, rows, buffer, "structured-text")
        assert buffer.getvalue() == yaml.dump(
            docs, Dumper=dumper, sort_keys=False, default_style="'"
        )
        # one import per list row; a tuple row imports nothing
        assert len(calls) == sum(isinstance(row, list) for row in rows)

    @pytest.mark.parametrize(
        "header",
        [
            ["a b"],
            ["toll.price", "a,b"],
            [""],
            ["x" * 101],
            ["pattern", "pattern"],
            # names the pure-Python emitter writes as complex keys: an
            # empty one, or one of 123 to 127 characters (it counts the
            # unwritten str tag)
            ["", "0"],
            ["0" * 124],
            ["a{0}"],
            ["it's"],
        ],
    )
    @pytest.mark.parametrize("fmt", harness.TABLE_FORMATS)
    def test_table_rejects_a_header_of_non_words(self, header, fmt):
        buffer = io.StringIO()
        with pytest.raises(ValueError, match="column names must be distinct"):
            write_table([(name, "{}") for name in header], [("1",) * len(header)], buffer, fmt)
        row = ResultRow(identifiers=tuple((name, 1.0) for name in header), error="boom")
        with pytest.raises(ValueError, match="column names must be distinct"):
            (rows_to_csv if fmt == "csv" else rows_to_yaml)([row], buffer)
        assert buffer.getvalue() == ""

    def test_bundled_presets_load_as_pure_python_parse(self, tmp_path):
        presets = sorted(bundled_scenario_path().parent.glob("*.cfg"))
        assert presets
        for path in presets:
            config = yaml.load(path.read_text(), Loader=yaml.SafeLoader)
            assert load_scenario(path) == scenario_from_config(config)
            assert _read_like_pyyaml(path.read_text(), tmp_path / path.name)

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
        _, loader, dumper = harness._pyyaml()
        assert issubclass(loader, yaml.CSafeLoader)
        assert dumper is yaml.CSafeDumper

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
        write_scenario(base_scenario(total=100.0), config)
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


# ---------------------------------------------------------------------------
# The block reader against PyYAML

# Tokens that replace a value: inside the reader's subset, outside it, or
# at an edge of the loader's resolution (-.5 is a string to YAML 1.1
# while .5 is a float, 017 is octal 15, 08 a string, 1:30 base-60 90).
VALUE_TOKENS = (
    "-.5", ".5", "+.5", "-.5e1", "1.", "00.5", "1e3", "1.0e+3", "1_000", "017", "08",
    "0x10", "1:30", "+1", "-0", ".inf", ".nan", "yes", "on", "y", "null", "~",
    "'1.0'", "[1, 2]", "{a: 1}", "&a 1", "!!float 1", "1#c", "",
)
DISCRETE_TEXT = yaml.safe_dump(
    scenario_config(discrete_scenario((0.2, 0.5, 0.8), 3, toll=FreeToll())), sort_keys=False
)


def _load_outcome(path):
    try:
        return load_scenario(path)
    except Exception as exc:  # the type and message are the outcome
        return type(exc), str(exc)


def _read_like_pyyaml(text, path):
    """Check that _read_block gives None or the loader's mapping, with
    the same types, and that load_scenario gives the Scenario or the
    error the PyYAML path alone gives; True when the reader read it."""
    block = harness._read_block(text)
    if block is not None:
        assert repr(block) == repr(yaml.load(text, Loader=harness._pyyaml()[1])), text
    path.write_text(text)
    with mock.patch.object(harness, "_read_block", lambda text: None):
        expected = _load_outcome(path)
    assert _load_outcome(path) == expected, text
    return block is not None


def _line_mutations(text):
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        before, after = lines[:i], lines[i + 1 :]
        body = line.rstrip("\n")
        variants = [
            "",  # deleted
            line + line,
            " " + line,
            "  " + line,
            "\t" + line,
            line[1:] if line.startswith(" ") else None,
            line[2:] if line.startswith("  ") else None,
            body + "   \n",
            body + " # c\n",
            body + "#c\n",
        ]
        entry = re.fullmatch(r"( *(?:[A-Za-z_0-9]+:|-)) \S.*", body)
        if entry:
            variants += [f"{entry[1]} {token}".rstrip(" ") + "\n" for token in VALUE_TOKENS]
        for variant in variants:
            if variant is not None:
                yield "".join(before + [variant] + after)


def _text_mutations(text):
    yield text.replace("\n", "\r\n")
    yield "\ufeff" + text
    yield "---\n" + text
    yield "--- \n" + text + "...\n"
    yield text.replace("\n", "  \n")
    yield text.rstrip("\n")


@pytest.mark.parametrize("name", ["table1", "discrete"])
def test_reader_reads_as_pyyaml_over_mutations(name, tmp_path):
    text = TABLE1_TEXT if name == "table1" else DISCRETE_TEXT
    path = tmp_path / "mutated.cfg"
    assert _read_like_pyyaml(text, path)
    texts = [*_line_mutations(text), *_text_mutations(text)]
    read = sum(_read_like_pyyaml(mutated, path) for mutated in texts)
    # the reader takes a good share of them, and leaves the rest to PyYAML
    assert 0 < read < len(texts)


@settings(max_examples=100, deadline=None)
@given(scenario=scenarios(max_agents=50), sort_keys=st.booleans())
def test_reader_reads_safe_dump_configs(scenario, sort_keys, tmp_path_factory):
    """The files the tests write (write_scenario) are all read without
    PyYAML: values sequences at the key's indent, floats such as 1.0e+20."""
    text = yaml.safe_dump(scenario_config(scenario), sort_keys=sort_keys)
    path = tmp_path_factory.mktemp("dump") / "scenario.cfg"
    assert _read_like_pyyaml(text, path), text
    assert load_scenario(path) == scenario


def test_readme_flow_style_goes_to_pyyaml_with_the_block_result(tmp_path):
    """The README's flow-style example is outside the reader's subset;
    it loads through PyYAML to the Scenario of its block-style twin."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    flow = re.search(r"Scenario files are YAML.*?```yaml\n(.*?)```", readme, re.S).group(1)
    block = yaml.safe_dump(yaml.safe_load(flow), sort_keys=False)
    assert harness._read_block(flow) is None
    assert harness._read_block(block) is not None
    (tmp_path / "flow.cfg").write_text(flow)
    (tmp_path / "block.cfg").write_text(block)
    assert load_scenario(tmp_path / "flow.cfg") == load_scenario(tmp_path / "block.cfg")
