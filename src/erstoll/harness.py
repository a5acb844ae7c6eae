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

A file in block style, like the one above, is read by _read_block
without importing PyYAML; any other YAML (flow style, quotes, anchors,
tags, ...) goes to PyYAML, with the same result and the same errors.
Tables mirror that: a table is its columns, (name, format field)
pairs whose names are distinct words, and write_table formats each of
its tuple rows once on the template it builds from them; only rows that
can hold free text pass as cells, which go through csv.writer or
yaml.dump.  PyYAML is imported only for those files and rows (_pyyaml).

This module checks only the file's shape (keys, kinds, numbers).  Value
ranges are checked by the model types that hold the values (``model.py``);
their errors are re-raised as ConfigError prefixed with the field path.

Override paths (the harness takes values; the CLI parses PATH=VALUES text):
toll.price, prefs.vot, prefs.voe, dwpt_ratio, soc.s_lo, soc.s_hi.
run_sweep(base, axes) folds them per axis: each axis is a level that
applies its own value to the scenario fields its outer level left, once
per value for as long as the field it reads stays the same object.

A result row (ResultRow) is a named tuple: the identifier (path, value)
pairs, the RESULT_COLUMNS (read off ResultRow), then the error; a
result table's solved row is its cells in column order (result_table).
"""

from __future__ import annotations

import functools
import io
import itertools
import re
from dataclasses import fields
from numbers import Real
from pathlib import Path
from typing import NamedTuple

from .analysis import _pattern, metrics
from .equilibrium import ConvergenceError, EquilibriumResult, solve
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

# The fields an override path writes, as a slice (lo, hi) of Scenario's
# (N, ratio, soc, prefs, toll, network).  An override reads none of the
# scenario besides N and at most the last field it writes: dwpt_ratio and
# soc.* read the SoC pool, prefs.* the prefs; toll.price reads nothing.
# Its keys, in order, are the override paths.
_WRITES = {
    "toll.price": (4, 5),
    "prefs.vot": (3, 4),
    "prefs.voe": (3, 4),
    "dwpt_ratio": (1, 3),
    "soc.s_lo": (2, 3),
    "soc.s_hi": (2, 3),
}
OVERRIDE_PATHS = tuple(_WRITES)

TABLE_FORMATS = ("csv", "structured-text")  # see write_table


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
    if type(value) is float:  # the common case, ahead of the slower ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an int beyond the float range
        raise ConfigError(f"{path}: {exc}") from exc


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
    if kind == "uniform":
        bounds = _numbers(raw_soc, "soc", ("s_lo", "s_hi"), allowed=("kind",))
        soc = _build(UniformContinuum, "soc", **bounds, mass=ratio * n_total)
    elif kind == "discrete":
        _no_extras(raw_soc, {"kind", "values"}, "soc")
        values = _require(raw_soc, "values", "soc")
        if not isinstance(values, list) or not values:
            raise ConfigError("soc.values: expected a non-empty list")
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

    # every part is checked by now, so Scenario can only reject the pool size
    return _build(
        Scenario,
        "soc.values",
        total_vehicles=n_total,
        dwpt_ratio=ratio,
        soc=soc,
        prefs=prefs,
        toll=toll,
        network=network,
    )


@functools.cache
def _pyyaml():
    """PyYAML, imported on first use, with the loader and dumper this
    module reads and writes YAML through: (yaml, loader, dumper).

    They are libyaml's parser and emitter when PyYAML was built with it:
    several times faster, with the same documents as the pure-Python
    classes and, for strings of printable ASCII, the same text.  (They
    fold long strings holding line breaks, tabs or non-ASCII characters
    at different points; no value or message written here holds one.)
    """
    import yaml

    class Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
        """Also reads a float without a dot, such as 1e7, as YAML 1.2 does."""

    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
        list("-+0123456789."),
    )
    return yaml, Loader, getattr(yaml, "CSafeDumper", yaml.SafeDumper)


# The plain scalars _read_block resolves, each as the loader does: a
# decimal int, a float with a dot or an exponent (a signed one with a
# leading dot, such as -.5, is a string to YAML 1.1 unless it has an
# exponent), and a word that is no YAML 1.1 bool or null in any case.
_INT = re.compile(r"[-+]?(?:0|[1-9][0-9]*)")
_FLOAT = re.compile(
    r"(?:[-+]?[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"
    r"|[-+]?(?:[0-9]+|\.[0-9]+)[eE][-+]?[0-9]+"
)
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NOT_WORDS = {"yes", "no", "true", "false", "on", "off", "null"}
_KEY = re.compile(rf"({_WORD.pattern}):(?: +(\S+))?")
_ITEM = re.compile(r"- +(\S+)")


def _plain(token: str):
    """A plain scalar's value as the loader resolves it; ValueError for
    a token outside the reader's subset."""
    if _INT.fullmatch(token):
        return int(token)
    if _FLOAT.fullmatch(token):
        return float(token)
    if _WORD.fullmatch(token) and token.lower() not in _NOT_WORDS:
        return token
    raise ValueError(token)


def _read_block(text: str) -> dict | None:
    """The mapping a block-style scenario file loads to, read without
    PyYAML, or None for any text outside that subset.

    The subset: printable ASCII lines indented with spaces, each
    `key:`, `key: scalar` or `- scalar` (an item of the sequence under
    the `key:` above it, at the key's indent or deeper), blank lines,
    full-line comments and ` #` comments after a value; keys are words,
    scalars as _plain resolves them.  A later duplicate key wins, as in
    PyYAML.  For such a text the result equals the loader's; any other
    text, or a line that does not fit, gives None.
    """
    lines = []
    for line in text.split("\n"):
        if not (line.isascii() and line.isprintable()):
            return None
        content = line.partition(" #")[0].rstrip(" ")
        body = content.lstrip(" ")
        if body and body[0] != "#":
            lines.append((len(content) - len(body), body))
    lines.append((-1, ""))  # the end, dedented below every block

    def block(pos: int):
        """The sequence or mapping whose first line is lines[pos], and
        the position after it."""
        indent, body = lines[pos]
        if _ITEM.fullmatch(body):
            items = []
            while lines[pos][0] == indent and (item := _ITEM.fullmatch(lines[pos][1])):
                items.append(_plain(item[1]))
                pos += 1
            return items, pos
        mapping = {}
        while lines[pos][0] == indent:
            if not (entry := _KEY.fullmatch(lines[pos][1])):
                raise ValueError(lines[pos][1])
            key, value = entry.groups()
            pos += 1
            next_indent, next_body = lines[pos]
            if value is not None:
                mapping[_plain(key)] = _plain(value)
            elif next_indent > indent or (next_indent == indent and next_body[:2] == "- "):
                mapping[_plain(key)], pos = block(pos)
            else:
                mapping[_plain(key)] = None
        return mapping, pos

    try:
        config, end = block(0)
    except ValueError:  # a line or scalar outside the subset
        return None
    return config if end == len(lines) - 1 and isinstance(config, dict) else None


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file (YAML, schema above).

    A block-style file is read by _read_block; any other text goes to
    PyYAML, which gives the same mapping or the same errors."""
    text = Path(path).read_text()
    config = _read_block(text)
    if config is None:
        yaml, loader, _ = _pyyaml()
        try:
            config = yaml.load(text, Loader=loader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: expected a mapping at the top level")
    return scenario_from_config(config)


def bundled_scenario_path(name: str = "table1.cfg") -> Path:
    """Path of a preset scenario shipped with the package."""
    candidate = Path(__file__).parent / "data" / name
    if not candidate.is_file():
        raise ConfigError(f"no bundled scenario named {name!r}")
    return candidate


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


def _check_path(path: str, noun: str) -> None:
    """Reject a path outside OVERRIDE_PATHS, naming it as an override or
    a sweep axis."""
    if path not in OVERRIDE_PATHS:
        raise ConfigError(
            f"unknown {noun} {path!r}; valid paths: {', '.join(OVERRIDE_PATHS)}"
        )


def _override(parts: tuple, path: str, value) -> tuple:
    """Scenario fields, in Scenario's order, with one override applied and
    re-validated.  Only toll, prefs, dwpt_ratio and soc change; N and the
    network never do."""
    n_total, ratio, soc, prefs, toll, network = parts
    _check_path(path, "override")
    value = _number(value, path)
    if path == "toll.price":
        toll = _build(FixedToll, path, value)
    elif path == "prefs.vot":
        prefs = _build(Preferences, path, value, prefs.voe)
    elif path == "prefs.voe":
        prefs = _build(Preferences, path, prefs.vot, value)
    elif not isinstance(soc, UniformContinuum):
        message = f"{path} override requires a uniform SoC pool"
        if path == "dwpt_ratio":
            message += "; discrete agent counts cannot be rescaled"
        raise ConfigError(message)
    elif path == "dwpt_ratio":
        _build(check_fleet, path, n_total, value)
        ratio = value
        soc = UniformContinuum(soc.s_lo, soc.s_hi, value * n_total)
    else:  # soc.s_lo / soc.s_hi
        lo, hi = (value, soc.s_hi) if path == "soc.s_lo" else (soc.s_lo, value)
        soc = _build(UniformContinuum, path, lo, hi, soc.mass)
    return n_total, ratio, soc, prefs, toll, network


def _fields(scenario: Scenario) -> tuple:
    return tuple(getattr(scenario, f.name) for f in fields(scenario))


def apply_overrides(scenario: Scenario, overrides: dict[str, float]) -> Scenario:
    """New scenario with dotted-path overrides applied and re-validated.

    Each override is one _override step on the scenario's fields, folded
    over the dict in order, so a value is checked against the ones before
    it; the Scenario is built once, from the final fields.
    """
    if not overrides:
        return scenario
    parts = _fields(scenario)
    for path, value in overrides.items():
        parts = _override(parts, path, value)
    return Scenario(*parts)


# ---------------------------------------------------------------------------
# Result rows and sweeps


class ResultRow(NamedTuple):
    """One solved cell: identifier (path, value) pairs, the RESULT_COLUMNS
    in order, and the error; a row that failed has only the error."""

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


RESULT_COLUMNS = ResultRow._fields[1:-1]


def result_row(
    scenario: Scenario, result: EquilibriumResult, identifiers: tuple = ()
) -> ResultRow:
    """The row of a result solved for this scenario, with its metrics
    (which check the pair, so the pattern is classify's without a second
    check)."""
    r = result
    ttt, tcv, revenue, conventional_so, ers_optimum = metrics(scenario, r)
    return ResultRow(
        identifiers, r.s_thres, r.x1_d, r.x2_d, r.x1_o, r.x2_o, r.x1, r.t1,
        ttt, tcv, revenue, _pattern(scenario, r).value, conventional_so, ers_optimum,
    )


def solve_row(
    scenario: Scenario, identifiers: tuple[tuple[str, float], ...] = ()
) -> ResultRow:
    """Solve, classify, and measure one scenario; flag failures in-row."""
    try:
        return result_row(scenario, solve(scenario)[0], identifiers)
    except (ConvergenceError, ValueError, ArithmeticError) as exc:
        return ResultRow(identifiers, error=str(exc))


def run_sweep(base: Scenario, axes) -> list[ResultRow]:
    """Solve every cell of the Cartesian sweep of base over the axes,
    (override path, values) pairs, rows in lexicographic axis order; a
    cell that fails reports the error in its own row.

    The axes are nested levels: each applies its own value (_override) to
    the fields its parent level left, and every cell gets the row that
    apply_overrides plus solve_row give it alone.  A value that fails
    fails every cell under it, with its message.  Each level keeps what
    its values wrote (or the failing value's message) by the value's
    position, not the value (0.0 == -0.0, but a -0.0 toll writes its
    revenue as -0.0000), for as long as its parents hold the same object
    in the only field it may read (_WRITES), and its cells splice that into
    their parent's fields.  So an axis whose field no outer axis writes
    applies each value once per sweep, and an inner cell pays one
    Scenario besides its solve.  No axis changes N or the network, so
    every cell shares base's Network object, and with it one balanced
    flow and time-gap map (equilibrium._balanced).
    """
    axes = [(path, tuple(values)) for path, values in axes]  # iterators read once
    if not axes:
        raise ValueError("sweep needs at least one axis")
    paths = [path for path, _ in axes]
    for path, values in axes:
        if paths.count(path) > 1:
            raise ValueError(f"sweep axis {path!r} is given twice")
        _check_path(path, "sweep axis")
        if not values:
            raise ValueError(f"sweep axis {path!r} has no values")
    levels = [[(path, value) for value in values] for path, values in axes]
    # per level: the parent field its results were read from, and the
    # results so far by value position
    memos = [(None, {}) for _ in levels]
    rows: list[ResultRow] = []

    def walk(parts: tuple, identifiers: tuple, depth: int) -> None:
        lo, hi = _WRITES[paths[depth]]
        if memos[depth][0] is not parts[hi - 1]:
            memos[depth] = parts[hi - 1], {}
        done = memos[depth][1]
        for index, pair in enumerate(levels[depth]):
            cell_ids = identifiers + (pair,)
            written = done.get(index)
            if written is None:
                try:
                    written = _override(parts, *pair)[lo:hi]
                except ConfigError as exc:
                    written = str(exc)
                done[index] = written
            if isinstance(written, str):
                rows.extend(
                    ResultRow(cell_ids + rest, error=written)
                    for rest in itertools.product(*levels[depth + 1 :])
                )
                continue
            cell = parts[:lo] + written + parts[hi:]
            if depth + 1 < len(levels):
                walk(cell, cell_ids, depth + 1)
            else:
                rows.append(solve_row(Scenario(*cell), cell_ids))

    walk(_fields(base), (), 0)
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
        rows.append(solve_row(cell, identifiers))
    return rows


def fig2_data(
    tolls: list[FixedToll], prefs: list[Preferences]
) -> list[tuple[float, float, float]]:
    """Threshold-SoC surface over (voe, toll price) at equal link times,
    where vot multiplies t1 - t2 = 0 and so drops out."""
    if not tolls or not prefs:
        raise ValueError("tolls and prefs must be non-empty")
    return [
        (pref.voe, toll.price, threshold_soc(pref, toll.price, 0.0, 0.0))
        for pref in prefs
        for toll in tolls
    ]


# ---------------------------------------------------------------------------
# Serialization


# A column name: a word, dots allowed (the override paths), short enough
# that every YAML emitter writes it as a simple key.
_COLUMN = re.compile(r"[A-Za-z_][A-Za-z0-9_.]{0,99}")


def _emitted(header, cells, fmt: str) -> str:
    """The text csv.writer, or yaml.dump given the row as a one-mapping
    list, writes for a list row of cells: the only path that imports
    either module."""
    if fmt == "csv":
        import csv

        stream = io.StringIO()
        csv.writer(stream, lineterminator="\n").writerow(cells)
        return stream.getvalue()
    yaml, _, dumper = _pyyaml()
    row = [dict(zip(header, cells))]
    return yaml.dump(row, Dumper=dumper, sort_keys=False, default_style="'")


def write_table(columns, rows, stream, fmt: str) -> None:
    """Write a table as CSV ("csv") or as its structured-text twin
    ("structured-text": a YAML list of one mapping per row, keyed by
    column, in column order, every key and cell single-quoted).

    The table is its columns, (name, field) pairs: a distinct word
    (_COLUMN; any other name is a ValueError) and a str.format
    replacement field such as "{:.4f}" or "{}".  From them the
    header and one row template per format are built once per table
    (CSV: the fields joined by commas; structured text:
    `- 'name': 'field'` lines), so the two cannot differ in width.  A
    tuple row is the template's arguments, formatted once; its cells are
    the caller's to keep plain (printable ASCII with no space, comma or
    quote, and not one lone empty cell), and then the text is byte for
    byte what csv.writer or yaml.dump(..., default_style="'") writes.  A
    list row is string cells that can hold free text and goes through
    csv.writer or yaml.dump (_emitted); PyYAML is imported only then.
    """
    if fmt not in TABLE_FORMATS:
        raise ValueError(f"unknown table format {fmt!r}")
    header = [name for name, _ in columns]
    if not all(map(_COLUMN.fullmatch, header)) or len(set(header)) < len(header):
        raise ValueError(f"column names must be distinct {_COLUMN.pattern} words: {header!r}")
    if fmt == "csv":
        out = [",".join(header) + "\n"]
        line = (",".join(field for _, field in columns) + "\n").format
    else:
        out = []
        line = ("- " + "  ".join(f"'{name}': '{field}'\n" for name, field in columns)).format
    for row in rows:
        out.append(line(*row) if isinstance(row, tuple) else _emitted(header, row, fmt))
    stream.write("".join(out) or "[]\n")  # no rows: the empty YAML list


_FLAGS = ("false", "true")
# the result table's columns that are text as they are: every other one
# is a float, written {:.4f}
_TEXT_COLUMNS = ("pattern", "conventional_so", "ers_optimum", "error")


def result_table(rows: list[ResultRow]) -> tuple[list, list]:
    """Columns and rows of a result table: identifier columns, result
    columns, trailing error.  A solved row is its cells in column order:
    the identifier values, written {:.6g}, the result values, a float
    written {:.4f} and the pattern and the two flags as text, then the
    empty error.  An error row's result cells are blank, and it is passed
    as cells, since its error is free text."""
    if not rows:
        raise ValueError("no rows to serialize")
    id_names = [name for name, _ in rows[0].identifiers]
    if any([name for name, _ in row.identifiers] != id_names for row in rows):
        raise ValueError("rows have inconsistent identifier columns")
    columns = [(name, "{:.6g}") for name in id_names]
    columns += [
        (name, "{}" if name in _TEXT_COLUMNS else "{:.4f}")
        for name in (*RESULT_COLUMNS, "error")
    ]
    blank = [""] * len(RESULT_COLUMNS)
    table = []
    for row in rows:
        if row.error:
            table.append([f"{v:.6g}" for _, v in row.identifiers] + blank + [row.error])
        else:  # row[1:-3]: the results up to the pattern, then the flags
            table.append((
                *[v for _, v in row.identifiers], *row[1:-3],
                _FLAGS[row.conventional_so], _FLAGS[row.ers_optimum], "",
            ))
    return columns, table


def rows_to_csv(rows: list[ResultRow], stream) -> None:
    """Result rows as CSV."""
    write_table(*result_table(rows), stream, "csv")


def rows_to_yaml(rows: list[ResultRow], stream) -> None:
    """Result rows as structured text: the CSV's cells, keyed by column."""
    write_table(*result_table(rows), stream, "structured-text")
