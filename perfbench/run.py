"""erstoll benchmark: one run of one workload, or the self-test.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src`` directory, never from an installed copy.  Each run
starts its own child processes (one at a time, one thread each):

* set-up samples: fresh interpreters that time ``import erstoll`` plus
  ``harness.resolve_scenario("table1.cfg")``; ``setup_s`` is their median;
* one workload child that warms up, then times a fixed number of
  passes, each over a fresh seeded pool of inputs, checking every output
  outside the timed region.  The number of passes follows from
  ``--seconds`` and the workload's pass time at the reference host
  speed, so a seed always runs, and fails, the same ops.

Op times are reported at a reference host speed: a fixed calibration
kernel, timed between ops, measures how fast the shared host is running
(calib.py).  The raw figures are printed too.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (spans from wrappers around erstoll's public functions, plus import
times from ``python -X importtime``).  Metric names and units are those of
``BENCHMARK.json`` at the checkout's root.  The last line of standard
output is one JSON object; the lines before it are the same figures for
people.  Span files, output digests and full results go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
CHILD = HERE / "child.py"

WORKLOADS = ("sweep-grid", "random-scenarios", "bands", "simulate")
SETUP_SAMPLES = 7  # six set-up-only children plus the workload child
RUN_DEADLINE_S = 170  # every child of one run must end within this

REGIMES = ("interior", "corner_other_on_2", "corner_other_on_1")


class BenchError(RuntimeError):
    """The run could not produce a result."""


def metric_units() -> dict:
    """{0: end-to-end, 1: per-layer} metric name -> unit, from BENCHMARK.json."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"no {path.name} at {ROOT}")
    spec = json.loads(path.read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_child(args: list[str], result_name: str, deadline: float, python_flags=(),
              capture_stderr=False):
    """Run child.py to completion; return (result dict, stderr text).

    The child is killed, and waited for, if it outlives ``deadline``
    (a ``time.monotonic()`` value) or if this process is interrupted.
    """
    result_path = OUT / result_name
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, *python_flags, str(CHILD), *args, "--result", str(result_path),
           "--out-dir", str(OUT)]
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE if capture_stderr else None,
        text=True,
    )
    try:
        _, err = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {' '.join(args)} ran past the {RUN_DEADLINE_S} s deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not result_path.is_file():
        if err:
            sys.stderr.write(err)
        raise BenchError(f"child {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(result_path.read_text()), err or ""


def parse_importtime(text: str) -> dict:
    """erstoll and scipy import times (ms) from ``-X importtime`` output.

    erstoll: cumulative time of the ``erstoll`` package.  scipy: the sum of
    the cumulative times of scipy modules not nested under another scipy
    module, i.e. everything scipy cost to import.
    """
    erstoll_us = 0
    scipy_us = 0
    scipy_depth = None
    for line in reversed(text.splitlines()):
        # Children are printed before their parent, so walk bottom-up.
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|", 2)
        if not cum.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        mod = name.strip()
        if scipy_depth is not None and depth <= scipy_depth:
            scipy_depth = None
        if mod == "erstoll":
            erstoll_us = int(cum)
        if scipy_depth is None and (mod == "scipy" or mod.startswith("scipy.")):
            scipy_us += int(cum)
            scipy_depth = depth
    return {"import.erstoll_ms": erstoll_us / 1e3, "import.scipy_ms": scipy_us / 1e3}


def setup_samples(n: int, importtime: bool, deadline: float) -> list[dict]:
    samples = []
    flags = ("-X", "importtime") if importtime else ()
    for i in range(n):
        sample, err = run_child(
            ["--setup-only", "--workload", "-", "--seed", "0", "--seconds", "0"],
            f"setup-{i}.json",
            deadline,
            python_flags=flags,
            capture_stderr=importtime,
        )
        if importtime:
            sample.update(parse_importtime(err))
        samples.append(sample)
    return samples


def cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out


def percentile(values, q: float) -> float:
    """Inclusive-method percentile, q in (0, 100)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]


def end_to_end(res: dict, setup_s: float) -> dict:
    """Op-time percentiles over every op of the run, at the reference host
    speed; throughput is the ops completed per second of that op time."""
    lat_ms = [ns / 1e6 for ns in res["latencies_ns"]]
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": res["attempted"] / (sum(lat_ms) / 1e3),
        "op_p50_ms": statistics.median(lat_ms),
        "ok_frac": 1.0 - res["failed"] / res["attempted"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    if res["attempted"] >= 100:
        metrics["op_p90_ms"] = percentile(lat_ms, 90)
    return metrics


def per_layer(res: dict, setups: list[dict]) -> dict:
    """Times are means over every traced op, scaled to the reference host
    speed by the run's mean speed factor; counts come from the first
    traced pass, whose inputs depend on the seed alone, so they repeat
    exactly for a seed."""
    tr, first = res["trace"], res["trace"]["first_pass"]
    speed = res["speed_factor"]
    first_ops, traced_ops = res["pool"], tr["traced_ops"]
    empty = {"calls": 0, "ns": 0, "self_ns": 0, "raised": 0, "by_tag": {}}

    def mean(name, scale, tag=None):
        fn = tr["funcs"].get(name, empty)
        if tag is None:
            calls, ns = fn["calls"], fn["ns"]
        else:
            calls, ns = fn["by_tag"].get(str(tag), (0, 0))
        return ns / speed / calls / scale if calls else 0.0

    def calls(name):
        return first["funcs"].get(name, empty)["calls"] / first_ops

    cli_main = tr["funcs"].get("cli.main", empty)
    bands_calls = first["funcs"].get("analysis.toll_bands", empty)["calls"]
    step_visits = first["step_visits"]
    return {
        "import.erstoll_ms": statistics.median(s["import.erstoll_ms"] for s in setups),
        "import.scipy_ms": statistics.median(s["import.scipy_ms"] for s in setups),
        "harness.resolve_scenario.ms": statistics.median(s["resolve_ms"] for s in setups),
        "cli.main.self_ms": cli_main["self_ns"] / speed / cli_main["calls"] / 1e6
        if cli_main["calls"] else 0.0,
        "harness.apply_overrides.us": mean("harness.apply_overrides", 1e3),
        "harness.apply_overrides.calls": calls("harness.apply_overrides"),
        "harness.solve_row.us": mean("harness.solve_row", 1e3),
        "harness.solve_row.calls": calls("harness.solve_row"),
        "harness.rows_to_csv.ms": mean("harness.rows_to_csv", 1e6),
        "harness.rows_to_yaml.ms": mean("harness.rows_to_yaml", 1e6),
        "equilibrium.solve.calls": calls("equilibrium.solve"),
        **{
            f"equilibrium.solve.us.{r}": mean("equilibrium.solve", 1e3, tag=1 + i)
            for i, r in enumerate(REGIMES)
        },
        "equilibrium.solve.failed": first["funcs"].get("equilibrium.solve", empty)["raised"]
        / first_ops,
        "model.bpr_time.calls": first["counts"].get("model.bpr_time", 0) / first_ops,
        "analysis.classify.us": mean("analysis.classify", 1e3),
        "analysis.metrics.us": mean("analysis.metrics", 1e3),
        "analysis.min_total_travel_time.us": mean("analysis.min_total_travel_time", 1e3),
        "analysis.min_total_travel_time.calls": calls("analysis.min_total_travel_time"),
        "analysis.toll_bands.ms.low_share": mean("analysis.toll_bands", 1e6, tag=0),
        "analysis.toll_bands.ms.high_share": mean("analysis.toll_bands", 1e6, tag=1),
        "analysis.toll_bands.solves_per_call": first["solves_in_bands"] / bands_calls
        if bands_calls else 0.0,
        "dynamics.discretize_scenario.ms": mean("dynamics.discretize_scenario", 1e6),
        "dynamics.agents_from_scenario.ms": mean("dynamics.agents_from_scenario", 1e6),
        "dynamics.step.ms": mean("dynamics.step", 1e6),
        "dynamics.step.calls": calls("dynamics.step"),
        "dynamics.switches": first["step_switches"] / first_ops,
        "dynamics.switches_per_visit": first["step_switches"] / step_visits
        if step_visits else 0.0,
        "equilibrium.rosenthal_potential.ms": mean("equilibrium.rosenthal_potential", 1e6),
        "equilibrium.rosenthal_potential.calls": calls("equilibrium.rosenthal_potential"),
        "equilibrium.brute_force_equilibrium.ms": mean("equilibrium.brute_force_equilibrium", 1e6),
        **{
            f"{layer}.self_ms": tr["layer_self_ns"].get(layer, 0) / speed / traced_ops / 1e6
            for layer in ("harness", "analysis", "equilibrium", "dynamics")
        },
        "trace.overhead_ms": (tr["traced_ns_per_op"] - tr["untraced_ns_per_op"]) / 1e6,
    }


def run_once(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False):
    """Run one workload once; return (result line dict, human lines)."""
    units = metric_units()[trace]
    if not (ROOT / "src" / "erstoll" / "__init__.py").is_file():
        raise BenchError(f"no erstoll sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    n_setup = 1 if tiny else (3 if trace else SETUP_SAMPLES - 1)
    setups = setup_samples(n_setup, bool(trace), deadline)
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if tiny:
        args.append("--tiny")
    res, _ = run_child(args, f"{workload}-child.json", deadline)
    check = res["check"]
    factors = [t / res["calib_ref_ns"] for t in res["ticks_ns"]]
    raw_s = sum(res["raw_latencies_ns"]) / 1e9
    lines = [
        f"workload {workload}  seed {seed}  trace {trace}  {res['attempted']} ops in "
        f"{res['passes']} passes of {res['pool']} fresh inputs",
        "env: nproc {}  caches {}  {}".format(
            os.cpu_count(),
            " ".join(f"{k}={v}" for k, v in cache_sizes().items()),
            "  ".join(f"{k} {v}" for k, v in res["env"].items()),
        ),
        f"op time {raw_s:.3f} s as measured, {sum(res['latencies_ns']) / 1e9:.3f} s at the "
        f"reference host speed; host speed factor over {len(factors)} ticks: min "
        f"{min(factors):.3f} median {statistics.median(factors):.3f} max {max(factors):.3f}",
    ]
    if trace == 0:
        setup_s = statistics.median([s["setup_s"] for s in setups] + [res["setup"]["setup_s"]])
        metrics = end_to_end(res, setup_s)
        raw_ms = [ns / 1e6 for ns in res["raw_latencies_ns"]]
        lines.append(
            f"as measured: ops_per_s {res['attempted'] / raw_s:.6g}  op_p50_ms "
            f"{statistics.median(raw_ms):.6g}; setup_s is the median of {len(setups) + 1} "
            "fresh processes, as measured"
        )
    else:
        metrics = per_layer(res, setups)
        tr = res["trace"]
        untraced_ms = tr["untraced_ns_per_op"] / 1e6
        traced_ms = tr["traced_ns_per_op"] / 1e6
        lines.append(
            f"tracing overhead: {traced_ms:.4f} ms/op traced - {untraced_ms:.4f} ms/op untraced "
            f"= {traced_ms - untraced_ms:.4f} ms/op ({100 * (traced_ms / untraced_ms - 1):.1f}%); "
            f"{tr['spans']} spans in {tr['spans_file']}"
        )
    for name, unit in units.items():
        if name in metrics:
            lines.append(f"  {name:<42} {metrics[name]:>14.6g} {unit}")
        else:
            lines.append(f"  {name:<42} omitted: {res['attempted']} ops < 100")
    lines.append(
        f"  {'failed_frac':<42} {res['failed'] / res['attempted']:>14.6g} ratio "
        f"({res['failed']} failed of {res['attempted']} ops attempted)"
    )
    for kind, info in check["failures_by_kind"].items():
        label = "known defect" if info["known_defect"] else "UNEXPECTED"
        lines.append(f"    {kind} ({label}): {info['count']} ops, e.g. {info['first']}")
    lines.append("input shares: " + json.dumps(res["shares"], sort_keys=True))
    lines.append(
        f"output sha256 over the first pass: {check['first_pass_sha256']} "
        f"(every op's in {check['digests_file']})"
    )
    record = {"metrics": metrics, "units": {k: units[k] for k in metrics}, "child": res,
              "setups": setups, "caches": cache_sizes(), "nproc": os.cpu_count()}
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))
    line = {
        "correct": bool(check["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return line, lines


def self_test() -> int:
    """Tiny run of every workload, traced and not: the metrics printed must
    be those of BENCHMARK.json, and every op must have been checked."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = metric_units()
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {list(WORKLOADS)}")
    for workload in WORKLOADS:
        for trace in (0, 1):
            line, lines = run_once(workload, seed=1, seconds=0, trace=trace, tiny=True)
            print("\n".join(lines))
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            expected = dict(want[trace])
            if trace == 0 and line["attempted"] < 100:
                expected.pop("op_p90_ms", None)  # stated as omitted above
            if got != expected:
                problems.append(f"{workload} trace {trace}: metrics {got} != {expected}")
            child = json.loads((OUT / f"{workload}-child.json").read_text())
            if child["check"]["checked"] != child["attempted"]:
                problems.append(f"{workload} trace {trace}: not every op was checked")
            if not line["correct"]:
                problems.append(f"{workload} trace {trace}: run is not correct")
    for p in problems:
        print("SELF-TEST FAIL:", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    # A terminated run still kills and waits for its child (run_child).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.self_test:
            return self_test()
        if args.workload is None or args.seed is None or args.seconds is None:
            p.error("--workload, --seed and --seconds are required")
        line, lines = run_once(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    if not all(math.isfinite(v["value"]) for v in line["metrics"].values()):
        print("benchmark error: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
