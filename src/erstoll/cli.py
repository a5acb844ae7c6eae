"""Command-line front end.

Subcommands: solve, sweep, bands, simulate, table2, fig2.  Exit codes:
0 success, 1 validation or parse error, 2 numerical failure.  Each
subcommand makes one table of machine output, in the --format chosen
(CSV or its structured-text twin), and a human summary.  With --output
the table goes to that file and the summary to standard output.  Without
it, solve writes no table, only its summary to standard output; every
other subcommand writes the table to standard output and moves the
summary to stderr, so pipes stay clean.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import analysis, harness
from .equilibrium import ConvergenceError, solve
from .harness import ConfigError
from .model import INITIAL_ASSIGNMENTS, ORDER_POLICIES, FixedToll, Preferences

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2

# The bands, simulate and fig2 tables: each column's name and str.format
# field, which takes its value from a row's tuple in column order (a
# simulate row is a RoundSnapshot).  Every cell it writes is plain (inf is
# "inf"), so each row passes as a tuple.
_BANDS = (("pattern", "{}"), ("c_low", "{:.4f}"), ("c_high", "{:.4f}"))
_SIMULATE = (
    ("round", "{}"), ("x1_d", "{}"), ("x1_o", "{}"), ("t1", "{:.4f}"), ("t2", "{:.4f}"),
    ("switches", "{}"), ("potential", "{:.4f}"),
)
_FIG2 = (("voe", "{:.6g}"), ("toll_price", "{:.6g}"), ("s_thres", "{:.4f}"))


class _ArgumentError(Exception):
    """Raised instead of argparse's SystemExit so main controls the code."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


def _add_scenario_args(sub):
    sub.add_argument(
        "--scenario",
        default="table1.cfg",
        help="scenario file path or bundled preset name (default table1.cfg)",
    )
    sub.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="PATH=VALUE",
        help="override a scenario value, e.g. toll.price=150 "
        f"(paths: {', '.join(harness.OVERRIDE_PATHS)})",
    )


def _add_output_args(sub):
    sub.add_argument("--output", help="write machine output to this file")
    sub.add_argument(
        "--format",
        choices=harness.TABLE_FORMATS,
        default="csv",
        help="machine output format (default csv)",
    )


@functools.cache  # parsing leaves the parser as it was, so main reuses one
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="erstoll", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("solve", help="equilibrium of one scenario")
    _add_scenario_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_solve)

    p = subs.add_parser("sweep", help="solve a grid of scenario overrides")
    _add_scenario_args(p)
    _add_output_args(p)
    p.add_argument(
        "--axis",
        action="append",
        required=True,
        metavar="PATH=VALUES",
        help="sweep axis: PATH=v1,v2,... or PATH=start:stop:count "
        "(repeatable; later axes vary fastest)",
    )
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("bands", help="toll-price bands by resulting pattern")
    _add_scenario_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_bands)

    p = subs.add_parser(
        "simulate", help="day-to-day best-response dynamics over agents"
    )
    _add_scenario_args(p)
    _add_output_args(p)
    # numpy's generators take no negative seed, whether or not a run uses it
    p.add_argument("--seed", type=_min_int(0), default=0, help="RNG seed (default 0)")
    p.add_argument(
        "--initial",
        choices=INITIAL_ASSIGNMENTS,
        default="all_link2",
        help="starting assignment (default all_link2)",
    )
    p.add_argument(
        "--order",
        choices=ORDER_POLICIES,
        default="sequential",
        help="agent update order per round (default sequential)",
    )
    p.add_argument(
        "--rounds", type=_min_int(1), default=10_000, help="round limit (default 10000)"
    )
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser(
        "table2", help="five-scenario toll/charging-value comparison"
    )
    _add_output_args(p)
    p.set_defaults(func=cmd_table2)

    p = subs.add_parser(
        "fig2", help="threshold-SoC surface over toll price and charging value"
    )
    _add_output_args(p)
    p.add_argument(
        "--prices",
        default="0:500:51",
        metavar="VALUES",
        help="toll prices: v1,v2,... or start:stop:count (default 0:500:51)",
    )
    p.add_argument(
        "--voes",
        default="10:300:30",
        metavar="VALUES",
        help="charging values: same syntax (default 10:300:30)",
    )
    p.set_defaults(func=cmd_fig2)
    return parser


def _min_int(low: int):
    """An argparse type for an integer >= low, so an error names its flag."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _read_paths(texts, what: str, form: str, parse) -> dict:
    """--set or --axis texts as {PATH: parse(PATH, VALUES)}; each PATH at most once."""
    read = {}
    for text in texts:
        path, sep, values = text.partition("=")
        if not sep:
            raise ConfigError(f"{what} {text!r} is not of the form {form}")
        path = path.strip()
        if path in read:
            raise ConfigError(f"{what} {path!r} is given twice")
        read[path] = parse(path, values)
    return read


def _override_value(path: str, text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"override {path}: {text!r} is not a number") from exc


def _parse_values(text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(
                f"range {text!r} must be start:stop:count (got {len(parts)} parts)"
            )
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"range {text!r}: {exc}") from exc
        if count < 1:
            raise ConfigError(f"range {text!r}: count must be >= 1")
        # numpy.linspace's arithmetic, so every range matches it bit for bit
        delta = stop - start
        if count == 1:
            return [start + 0.0 * delta]
        div = count - 1
        step = delta / div
        if step == 0:  # step underflows: scale the fraction instead
            head = [start + i / div * delta for i in range(div)]
        else:
            head = [start + i * step for i in range(div)]
        return head + [stop]
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"values {text!r}: {exc}") from exc


def _named_values(name: str, text: str, make=float) -> list:
    """make(value) for each of _parse_values(text); an error names the
    flag or axis."""
    try:
        return [make(value) for value in _parse_values(text)]
    except ValueError as exc:  # ConfigError is a ValueError
        raise ConfigError(f"{name}: {exc}") from exc


def _load_scenario(args):
    scenario = harness.resolve_scenario(args.scenario)
    overrides = _read_paths(args.overrides, "override", "path=value", _override_value)
    return harness.apply_overrides(scenario, overrides)


def _emit(args, write_machine, summary_lines: list[str]) -> None:
    """Route machine output and summary per the module docstring;
    write_machine(stream, fmt) writes the table in the chosen format."""
    if args.output:
        with open(args.output, "w", newline="") as stream:
            write_machine(stream, args.format)
        for line in summary_lines:
            print(line)
        print(f"wrote {args.output}")
    else:
        for line in summary_lines:
            print(line, file=sys.stderr)
        write_machine(sys.stdout, args.format)


def _result_rows(rows):
    # looked up at each call, so that a profiler that wraps them sees them
    return lambda stream, fmt: (
        harness.rows_to_csv if fmt == "csv" else harness.rows_to_yaml
    )(rows, stream)


def cmd_solve(args) -> int:
    scenario = _load_scenario(args)
    result, regime = solve(scenario)
    row = harness.result_row(scenario, result)
    lines = [
        f"pattern          {row.pattern}",
        f"regime           {regime.value}",
        f"s_thres          {result.s_thres:.4f}",
        f"x1_d             {result.x1_d:.4f}",
        f"x2_d             {result.x2_d:.4f}",
        f"x1_o             {result.x1_o:.4f}",
        f"x2_o             {result.x2_o:.4f}",
        f"x1               {result.x1:.4f}",
        f"x2               {result.x2:.4f}",
        f"t1               {result.t1:.4f} min",
        f"t2               {result.t2:.4f} min",
        f"ttt              {row.ttt:.4f} veh-min",
        f"tcv              {row.tcv:.4f} kWh",
        f"revenue          {row.revenue:.4f} JPY",
        f"conventional_so  {'true' if row.conventional_so else 'false'}",
        f"ers_optimum      {'true' if row.ers_optimum else 'false'}",
    ]
    if args.output:
        _emit(args, _result_rows([row]), lines)
    else:
        for line in lines:
            print(line)
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario = _load_scenario(args)
    axes = _read_paths(
        args.axis,
        "axis",
        "PATH=VALUES",
        lambda path, text: tuple(_named_values(f"axis {path!r}", text)),
    )
    rows = harness.run_sweep(scenario, axes.items())
    failed = sum(1 for r in rows if r.error)
    summary = [f"sweep: {len(rows)} cells, {failed} failed"]
    _emit(args, _result_rows(rows), summary)
    return EXIT_OK


def cmd_bands(args) -> int:
    bands = analysis.toll_bands(_load_scenario(args))
    summary = [f"{b.pattern.value:<8} [{b.c_low:.4f}, {b.c_high:.4f})" for b in bands]
    rows = [(b.pattern.value, b.c_low, b.c_high) for b in bands]
    _emit(args, functools.partial(harness.write_table, _BANDS, rows), summary)
    return EXIT_OK


def cmd_simulate(args) -> int:
    """Simulate the scenario and compare its last round with solve.

    numpy loads for this subcommand only, with one BLAS thread: the
    simulator makes no BLAS call, and a second thread only slows numpy's
    start.  OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS
    are set to 1 in this process unless the user has set them; importing
    erstoll.dynamics from user code sets nothing.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    from . import dynamics

    scenario = dynamics.discretize_scenario(_load_scenario(args))
    agents = dynamics.agents_from_scenario(
        scenario, initial=args.initial, seed=args.seed
    )
    traj = dynamics.run(
        agents,
        scenario.network,
        scenario.prefs,
        scenario.toll,
        max_rounds=args.rounds,
        order_policy=args.order,
        seed=args.seed,
    )
    result, _ = solve(scenario)
    last = traj.snapshots[-1]
    summary = [
        f"converged        {'true' if traj.converged else 'false'}",
        f"rounds           {traj.terminal_round}",
        f"switches         {traj.total_switches}",
        f"final x1_d       {last.x1_d} (solver {result.x1_d:.4f})",
        f"final x1_o       {last.x1_o} (solver {result.x1_o:.4f})",
    ]
    _emit(args, functools.partial(harness.write_table, _SIMULATE, traj.snapshots), summary)
    return EXIT_OK


def cmd_table2(args) -> int:
    rows = harness.table2_rows()
    summary = ["five-scenario comparison (base toll 100 JPY, voe 100 JPY)"]
    _emit(args, _result_rows(rows), summary)
    return EXIT_OK


def cmd_fig2(args) -> int:
    tolls = _named_values("argument --prices", args.prices, FixedToll)
    # at equal link times vot drops out of the threshold, so any vot serves
    prefs = _named_values(
        "argument --voes", args.voes, lambda voe: Preferences(vot=1.0, voe=voe)
    )
    for flag, values in (("--prices", tolls), ("--voes", prefs)):
        if not values:
            raise ConfigError(f"argument {flag}: no values")
    grid = harness.fig2_data(tolls, prefs)
    summary = [f"threshold surface: {len(grid)} grid points"]
    _emit(args, functools.partial(harness.write_table, _FIG2, grid), summary)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help and friends
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (ConvergenceError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
