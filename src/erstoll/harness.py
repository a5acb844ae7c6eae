"""Scenario configuration, sweeps, presets, and the table writer.

Scenario files are YAML with a fixed schema (all keys required unless
marked optional; units are minutes, vehicles, kW, JPY):

    total_vehicles: 1000.0
    dwpt_ratio: 0.2
    soc:
      kind: uniform          # uniform | discrete
      s_lo: 0.1              # uniform only
      s_hi: 0.9
      # values: [0.15, ...]  # discrete only, one entry per DWPT-EV
    prefs:
      vot: 50.0              # JPY per minute
      voe: 100.0             # JPY per unit charging utility
    toll:
      kind: fixed            # fixed | free
      price: 100.0           # fixed only, JPY
    network:
      link1:                 # the ERS link
        free_flow_time: 10.0
        capacity: 500.0
        bpr_alpha: 0.15     # optional, default 0.15
        bpr_beta: 4.0       # optional, default 4.0
        ers_power_kw: 30.0
      link2:                 # plain road, no ers_power_kw allowed
        free_flow_time: 10.0
        capacity: 500.0

The uniform SoC mass is always dwpt_ratio * total_vehicles and is not a
file field, so configs cannot go out of sync.

This module checks only the file's shape (keys, kinds, numbers).  Value
ranges are checked by the model types that hold the values (``model.py``);
their errors are re-raised as ConfigError prefixed with the field path.

Override paths (shared by sweeps and the command line):
toll.price, prefs.vot, prefs.voe, dwpt_ratio, soc.s_lo, soc.s_hi.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, replace
from importlib import resources
from numbers import Real
from pathlib import Path

import yaml

from .analysis import classify, metrics, min_total_travel_time
from .equilibrium import ConvergenceError, solve
from .model import (
    DiscreteAgents,
    FixedToll,
    FreeToll,
    LinkParams,
    Network,
    Preferences,
    Scenario,
    UniformContinuum,
    check_fleet,
    threshold_soc,
)

# libyaml's parser and emitter when PyYAML was built with it: several
# times faster, with the same documents as the pure-Python classes and,
# for strings of printable ASCII, the same text.  (They fold long
# strings holding line breaks, tabs or non-ASCII characters at
# different points; no value or message written here holds one.)
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

OVERRIDE_PATHS = (
    "toll.price",
    "prefs.vot",
    "prefs.voe",
    "dwpt_ratio",
    "soc.s_lo",
    "soc.s_hi",
)

TABLE_FORMATS = ("csv", "structured-text")  # see write_table

RESULT_COLUMNS = (
    "s_thres",
    "x1_d",
    "x2_d",
    "x1_o",
    "x2_o",
    "x1",
    "t1",
    "ttt",
    "tcv",
    "revenue",
    "pattern",
    "conventional_so",
    "ers_optimum",
)


class ConfigError(ValueError):
    """A scenario file or override failed to parse or validate."""


# ---------------------------------------------------------------------------
# Scenario loading


def _require(mapping: dict, key: str, path: str):
    _expect_mapping(mapping, path)
    if key not in mapping:
        raise ConfigError(f"{path}{'.' if path else ''}{key}: missing required field")
    return mapping[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _expect_mapping(mapping, path: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path or 'top level'}: expected a mapping")


def _no_extras(mapping: dict, allowed: set[str], path: str):
    _expect_mapping(mapping, path)
    extras = set(mapping) - allowed
    if extras:
        raise ConfigError(
            f"{path or 'top level'}: unknown field(s) {sorted(extras)}"
        )


def _build(factory, path: str, *args, **kwargs):
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _numbers(raw, path: str, fields, optional=(), allowed=()) -> dict[str, float]:
    """The numeric fields of one config section, keyed by name.

    Keys outside fields and allowed (the section's other keys) are
    rejected first; then each field is read in order, skipping an
    optional one that is absent.
    """
    _no_extras(raw, {*fields, *allowed}, path)
    prefix = f"{path}." if path else ""
    return {
        name: _number(_require(raw, name, path), prefix + name)
        for name in fields
        if name in raw or name not in optional
    }


def _parse_link(raw: dict, path: str, is_ers: bool) -> LinkParams:
    fields = ("free_flow_time", "capacity", "bpr_alpha", "bpr_beta")
    if is_ers:
        fields += ("ers_power_kw",)
    values = _numbers(raw, path, fields, optional=("bpr_alpha", "bpr_beta"))
    return _build(LinkParams, path, has_ers=is_ers, **values)


def scenario_from_config(config: dict) -> Scenario:
    """Build and validate a Scenario from a parsed config mapping."""
    sections = ("soc", "prefs", "toll", "network")
    fleet = _numbers(config, "", ("total_vehicles", "dwpt_ratio"), allowed=sections)
    n_total, ratio = fleet["total_vehicles"], fleet["dwpt_ratio"]
    _build(check_fleet, "scenario", **fleet)

    raw_soc = _require(config, "soc", "")
    kind = _require(raw_soc, "kind", "soc")
    # the fleet and every part are checked before the Scenario is built,
    # so it can only reject the size of a discrete pool
    scenario_path = "soc"
    if kind == "uniform":
        bounds = _numbers(raw_soc, "soc", ("s_lo", "s_hi"), allowed=("kind",))
        soc = _build(UniformContinuum, "soc", **bounds, mass=ratio * n_total)
    elif kind == "discrete":
        _no_extras(raw_soc, {"kind", "values"}, "soc")
        values = _require(raw_soc, "values", "soc")
        if not isinstance(values, list) or not values:
            raise ConfigError("soc.values: expected a non-empty list")
        scenario_path = "soc.values"
        soc = _build(
            DiscreteAgents,
            "soc",
            soc_values=tuple(_number(v, "soc.values") for v in values),
        )
    else:
        raise ConfigError(f"soc.kind: expected 'uniform' or 'discrete', got {kind!r}")

    raw_prefs = _require(config, "prefs", "")
    prefs = _build(Preferences, "prefs", **_numbers(raw_prefs, "prefs", ("vot", "voe")))

    raw_toll = _require(config, "toll", "")
    toll_kind = _require(raw_toll, "kind", "toll")
    if toll_kind == "free":
        _no_extras(raw_toll, {"kind"}, "toll")
        toll = FreeToll()
    elif toll_kind == "fixed":
        price = _numbers(raw_toll, "toll", ("price",), allowed=("kind",))
        toll = _build(FixedToll, "toll", **price)
    else:
        raise ConfigError(f"toll.kind: expected 'free' or 'fixed', got {toll_kind!r}")

    raw_net = _require(config, "network", "")
    _no_extras(raw_net, {"link1", "link2"}, "network")
    network = _build(
        Network,
        "network",
        link1=_parse_link(_require(raw_net, "link1", "network"), "network.link1", True),
        link2=_parse_link(_require(raw_net, "link2", "network"), "network.link2", False),
    )

    return _build(
        Scenario,
        scenario_path,
        total_vehicles=n_total,
        dwpt_ratio=ratio,
        soc=soc,
        prefs=prefs,
        toll=toll,
        network=network,
    )


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file (YAML, schema above)."""
    text = Path(path).read_text()
    try:
        config = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: expected a mapping at the top level")
    return scenario_from_config(config)


def scenario_to_config(scenario: Scenario) -> dict:
    """Inverse of scenario_from_config (round-trips exactly)."""
    if isinstance(scenario.soc, UniformContinuum):
        soc = {"kind": "uniform", "s_lo": scenario.soc.s_lo, "s_hi": scenario.soc.s_hi}
    else:
        soc = {"kind": "discrete", "values": list(scenario.soc.soc_values)}
    if isinstance(scenario.toll, FreeToll):
        toll = {"kind": "free"}
    else:
        toll = {"kind": "fixed", "price": scenario.toll.price}

    def link_cfg(link: LinkParams) -> dict:
        cfg = {
            "free_flow_time": link.free_flow_time,
            "capacity": link.capacity,
            "bpr_alpha": link.bpr_alpha,
            "bpr_beta": link.bpr_beta,
        }
        if link.has_ers:
            cfg["ers_power_kw"] = link.ers_power_kw
        return cfg

    return {
        "total_vehicles": scenario.total_vehicles,
        "dwpt_ratio": scenario.dwpt_ratio,
        "soc": soc,
        "prefs": {"vot": scenario.prefs.vot, "voe": scenario.prefs.voe},
        "toll": toll,
        "network": {
            "link1": link_cfg(scenario.network.link1),
            "link2": link_cfg(scenario.network.link2),
        },
    }


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(
        yaml.dump(scenario_to_config(scenario), Dumper=_YAML_DUMPER, sort_keys=False)
    )


def bundled_scenario_path(name: str = "table1.cfg") -> Path:
    """Path of a preset scenario shipped with the package."""
    candidate = resources.files("erstoll").joinpath("data").joinpath(name)
    if not candidate.is_file():
        raise ConfigError(f"no bundled scenario named {name!r}")
    return Path(str(candidate))


def resolve_scenario(path: str | Path) -> Scenario:
    """Load a scenario by filesystem path, falling back to bundled presets."""
    p = Path(path)
    if p.is_file():
        return load_scenario(p)
    if p.name == str(p):  # bare name, try the bundled presets
        return load_scenario(bundled_scenario_path(p.name))
    raise ConfigError(f"scenario file not found: {path}")


# ---------------------------------------------------------------------------
# Overrides


def apply_overrides(scenario: Scenario, overrides: dict[str, float]) -> Scenario:
    """New scenario with dotted-path overrides applied and re-validated.

    Overrides apply in order to the parts they touch; the Scenario is
    built once, from the final parts.  No override reaches the network
    or total_vehicles, so a sweep shares one system optimum.
    """
    if not overrides:
        return scenario
    n_total = scenario.total_vehicles
    toll, prefs = scenario.toll, scenario.prefs
    ratio, soc = scenario.dwpt_ratio, scenario.soc
    for key, value in overrides.items():
        if key not in OVERRIDE_PATHS:
            raise ConfigError(
                f"unknown override {key!r}; valid paths: {', '.join(OVERRIDE_PATHS)}"
            )
        value = _number(value, key)
        if key == "toll.price":
            toll = _build(FixedToll, key, price=value)
        elif key == "prefs.vot":
            prefs = _build(Preferences, key, vot=value, voe=prefs.voe)
        elif key == "prefs.voe":
            prefs = _build(Preferences, key, vot=prefs.vot, voe=value)
        elif key == "dwpt_ratio":
            if not isinstance(soc, UniformContinuum):
                raise ConfigError(
                    "dwpt_ratio override requires a uniform SoC pool; "
                    "discrete agent counts cannot be rescaled"
                )
            _build(check_fleet, key, total_vehicles=n_total, dwpt_ratio=value)
            ratio = value
            soc = replace(soc, mass=value * n_total)
        else:  # soc.s_lo / soc.s_hi
            if not isinstance(soc, UniformContinuum):
                raise ConfigError(f"{key} override requires a uniform SoC pool")
            field_name = key.split(".", 1)[1]
            soc = _build(replace, key, soc, **{field_name: value})
    return replace(scenario, toll=toll, prefs=prefs, dwpt_ratio=ratio, soc=soc)


def parse_override_arg(arg: str) -> tuple[str, float]:
    """Parse one command-line 'path=value' override."""
    if "=" not in arg:
        raise ConfigError(f"override {arg!r} is not of the form path=value")
    key, raw = arg.split("=", 1)
    key = key.strip()
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"override {key}: {raw!r} is not a number") from exc
    return key, value


# ---------------------------------------------------------------------------
# Result rows and sweeps


@dataclass(frozen=True)
class ResultRow:
    """One solved cell: identifier columns plus the fixed result columns."""

    identifiers: tuple[tuple[str, float], ...]
    s_thres: float | None = None
    x1_d: float | None = None
    x2_d: float | None = None
    x1_o: float | None = None
    x2_o: float | None = None
    x1: float | None = None
    t1: float | None = None
    ttt: float | None = None
    tcv: float | None = None
    revenue: float | None = None
    pattern: str | None = None
    conventional_so: bool | None = None
    ers_optimum: bool | None = None
    error: str = ""


def solve_row(
    scenario: Scenario,
    identifiers: tuple[tuple[str, float], ...] = (),
    *,
    min_ttt: float | None = None,
) -> ResultRow:
    """Solve, classify, and measure one scenario; flag failures in-row.

    min_ttt is the system optimum of the scenario's network and N when
    the caller already holds it (see analysis.metrics).
    """
    try:
        result, _ = solve(scenario)
        label = classify(scenario, result)
        m = metrics(scenario, result, min_ttt=min_ttt)
    except (ConvergenceError, ValueError, ArithmeticError) as exc:
        return ResultRow(identifiers=identifiers, error=str(exc))
    return ResultRow(
        identifiers=identifiers,
        s_thres=result.s_thres,
        x1_d=result.x1_d,
        x2_d=result.x2_d,
        x1_o=result.x1_o,
        x2_o=result.x2_o,
        x1=result.x1,
        t1=result.t1,
        ttt=m.ttt,
        tcv=m.tcv,
        revenue=m.revenue,
        pattern=label.value,
        conventional_so=m.conventional_so,
        ers_optimum=m.ers_optimum,
    )


@dataclass(frozen=True)
class SweepSpec:
    """Cartesian sweep: override paths with their value lists."""

    base: Scenario
    axes: tuple[tuple[str, tuple[float, ...]], ...]

    def __post_init__(self):
        if not self.axes:
            raise ValueError("sweep needs at least one axis")
        paths = [path for path, _ in self.axes]
        for path, values in self.axes:
            if paths.count(path) > 1:
                raise ValueError(f"sweep axis {path!r} is given twice")
            if path not in OVERRIDE_PATHS:
                raise ValueError(
                    f"unknown sweep axis {path!r}; valid: {', '.join(OVERRIDE_PATHS)}"
                )
            if not values:
                raise ValueError(f"sweep axis {path!r} has no values")


def _shared_min_ttt(scenario: Scenario) -> float | None:
    """System optimum of the network and N that override cells share.

    None if it fails, so that every cell computes it again and reports
    the failure in its own row, as a lone solve_row does.
    """
    try:
        return min_total_travel_time(scenario.network, scenario.total_vehicles)
    except (ConvergenceError, ValueError, ArithmeticError):
        return None


def run_sweep(spec: SweepSpec) -> list[ResultRow]:
    """Solve every cell of the sweep, rows in lexicographic axis order.

    The system optimum is computed once: overrides never touch the
    network or N.
    """
    paths = [path for path, _ in spec.axes]
    min_ttt = _shared_min_ttt(spec.base)
    rows = []
    for combo in itertools.product(*(values for _, values in spec.axes)):
        identifiers = tuple(zip(paths, combo))
        try:
            cell = apply_overrides(spec.base, dict(identifiers))
        except ConfigError as exc:
            rows.append(ResultRow(identifiers=identifiers, error=str(exc)))
            continue
        rows.append(solve_row(cell, identifiers, min_ttt=min_ttt))
    return rows


# ---------------------------------------------------------------------------
# Presets


def table1_scenario() -> Scenario:
    """The bundled base scenario (fixed toll 100 JPY)."""
    return load_scenario(bundled_scenario_path("table1.cfg"))


def table2_rows() -> list[ResultRow]:
    """Five-scenario comparison: base, toll halved, toll x1.5, charging
    value halved, charging value x1.5."""
    base = table1_scenario()
    min_ttt = _shared_min_ttt(base)
    cells = [
        {},
        {"toll.price": 50.0},
        {"toll.price": 150.0},
        {"prefs.voe": 50.0},
        {"prefs.voe": 150.0},
    ]
    rows = []
    for index, overrides in enumerate(cells, start=1):
        cell = apply_overrides(base, overrides)
        identifiers = (
            ("scenario", float(index)),
            ("toll.price", cell.toll.dwpt_link1_charge),
            ("prefs.voe", cell.prefs.voe),
        )
        rows.append(solve_row(cell, identifiers, min_ttt=min_ttt))
    return rows


def fig2_data(
    prefs: Preferences,
    toll_prices: list[float],
    voes: list[float],
) -> list[tuple[float, float, float]]:
    """Threshold-SoC surface over (voe, toll price) at equal link times."""
    if not toll_prices or not voes:
        raise ValueError("toll_prices and voes must be non-empty")
    grid = []
    for voe in voes:
        prefs_v = Preferences(vot=prefs.vot, voe=voe)
        for price in toll_prices:
            toll = FixedToll(price)
            grid.append((voe, price, threshold_soc(prefs_v, toll.price, 0.0, 0.0)))
    return grid


# ---------------------------------------------------------------------------
# Serialization


def _fmt_identifier(value: float) -> str:
    return f"{value:.6g}"


def _fmt_cell(name: str, value) -> str:
    if value is None:
        return ""
    if name == "pattern":
        return str(value)
    if name in ("conventional_so", "ers_optimum"):
        return "true" if value else "false"
    return f"{value:.4f}"


def write_table(header, rows, stream, fmt: str) -> None:
    """Write rows of string cells as CSV ("csv") or as its structured-text
    twin ("structured-text": a YAML list of one mapping per row, keyed by
    column, in column order)."""
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    elif fmt == "structured-text":
        docs = [dict(zip(header, row)) for row in rows]
        # quoted, so a YAML 1.2 reader keeps cells such as 1e-300 as strings
        yaml.dump(docs, stream, Dumper=_YAML_DUMPER, sort_keys=False, default_style="'")
    else:
        raise ValueError(f"unknown table format {fmt!r}")


def _result_table(rows: list[ResultRow]) -> tuple[list[str], list[list[str]]]:
    """Header and cells of result rows: identifier columns, result
    columns, trailing error."""
    if not rows:
        raise ValueError("no rows to serialize")
    id_names = [name for name, _ in rows[0].identifiers]
    cells = []
    for row in rows:
        if [name for name, _ in row.identifiers] != id_names:
            raise ValueError("rows have inconsistent identifier columns")
        cells.append(
            [_fmt_identifier(v) for _, v in row.identifiers]
            + [_fmt_cell(c, getattr(row, c)) for c in RESULT_COLUMNS]
            + [row.error]
        )
    return id_names + list(RESULT_COLUMNS) + ["error"], cells


def rows_to_csv(rows: list[ResultRow], stream) -> None:
    """Result rows as CSV."""
    write_table(*_result_table(rows), stream, "csv")


def rows_to_yaml(rows: list[ResultRow], stream) -> None:
    """Result rows as structured text: the CSV's cells, keyed by column."""
    write_table(*_result_table(rows), stream, "structured-text")
