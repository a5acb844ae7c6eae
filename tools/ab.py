"""A/B benchmark: a git revision against the working tree, in alternating pairs.

    python3 tools/ab.py --out BENCH_<n>.json [--rev HEAD] [--first-seed 1]

Both sides are fresh copies in one temporary directory, removed at the
end: the base is ``git archive REV``, the change is the working tree's
tracked files (``git ls-files``) as they are on disk.  For each workload
in BENCHMARK.json, pair i of 10 runs ``python3 perfbench/run.py
--workload W --seed S --seconds T`` on both sides with the same seed
S = first seed + i and BENCHMARK.json's run_seconds T, one run at a
time.  The side that runs first alternates from pair to pair: on a
shared host the second run of a pair reads differently from the first,
so a fixed order shows as a gain or a loss.  Each side runs its own
perfbench, and every run gets PYTHONDONTWRITEBYTECODE=1, so neither tree
is compiled to bytecode on disk and each run compiles what it imports.

Of each run the last output line (the result JSON), its "as measured"
ops_per_s and op_p50_ms, and its "output sha256 over the first pass"
are kept.  Per workload and metric (BENCHMARK.json's end-to-end metrics,
then the as-measured pair), each side's median and quartiles and the
pairs each side wins are printed and written to --out; a tie counts for
neither side.  A verdict names a side only when it wins at least nine
tenths of the pairs run (a pair in which either side failed is won by
neither) and its median is better than the other's by more than the
base's quartile spread; the change gets no verdict if a larger share of
its operations failed than of the base's.  The file also records the
seeds, which side ran first, every run's correct/failed, each side's
failed share, the seeds whose two first-pass sha256 differ, the host,
the Python and numpy versions and the bytecode mode.

Before the workloads, the command line is timed end to end on both
trees: ``python -c pass`` as the floor, then ``python -m erstoll.cli``
with each of its six subcommands, in 11 alternating rounds (the side that
runs a command first alternates from round to round), each with
PYTHONPATH=<tree>/src, the BLAS thread variables unset and the same
PYTHONDONTWRITEBYTECODE=1, its output sent to a temporary file.  Each
command's milliseconds go through the same rule as cli.<name>_ms.  A
command that exits with any status but 0 stops the script.

The exit status is 1 if a run failed, was not correct, or any sha256
differs between the sides; the file is written either way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
SHA_LINE = re.compile(r"^output sha256 over the first pass: ([0-9a-f]{64})", re.M)
RAW_LINE = re.compile(r"^as measured: ops_per_s (\S+)\s+op_p50_ms (\S+);", re.M)
# the as-measured figures, kept beside BENCHMARK.json's end-to-end metrics
RAW_METRICS = {"raw.ops_per_s": "higher", "raw.op_p50_ms": "lower"}
PAIRS = 10
# every run's bytecode mode: nothing written, so neither tree is compiled ahead
RUN_ENV = {"PYTHONDONTWRITEBYTECODE": "1"}
# the command line end to end: the interpreter's floor, then every subcommand
CLI = ["-m", "erstoll.cli"]
CLI_COMMANDS = {
    "pass": ["-c", "pass"],
    "solve": [*CLI, "solve"],
    "table2": [*CLI, "table2"],
    "bands": [*CLI, "bands"],
    "sweep": [*CLI, "sweep", "--axis", "toll.price=0:400:30"],
    "simulate": [*CLI, "simulate"],
    "fig2": [*CLI, "fig2"],
}
CLI_ROUNDS = 11
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def make_sides(rev: str, workdir: Path) -> dict[str, Path]:
    """The base (REV, archived) and the change (tracked files on disk)."""
    base, change = workdir / "base", workdir / "change"
    base.mkdir()
    subprocess.run(["tar", "-x", "-C", str(base)], input=git("archive", "--format=tar", rev),
                   check=True)
    for name in git("ls-files", "-z").decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():  # a tracked file deleted on disk is left out
            (change / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, change / name)
    return {"base": base, "change": change}


def parse_run(stdout: str) -> dict:
    """The result JSON, as-measured figures and first-pass sha256 of one run."""
    result = json.loads(stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    raw = RAW_LINE.search(stdout)
    if raw:
        metrics.update(zip(RAW_METRICS, map(float, raw.groups())))
    sha = SHA_LINE.search(stdout)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "sha256": sha.group(1) if sha else None,
        "metrics": metrics,
    }


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
    start = time.monotonic()
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                          env={**os.environ, **RUN_ENV})
    wall_s = round(time.monotonic() - start, 2)
    if proc.returncode != 0:
        return {"seed": seed, "ok": False, "wall_s": wall_s, "stderr": proc.stderr[-2000:]}
    return {"seed": seed, "ok": True, "wall_s": wall_s, **parse_run(proc.stdout)}


def time_command(tree: Path, argv: list[str], out) -> float:
    """Milliseconds that `python argv` takes with the tree's src/ on its path."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env.update(RUN_ENV, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    code = subprocess.run([sys.executable, *argv], cwd=tree, env=env, stdout=out,
                          stderr=out).returncode
    elapsed = (time.perf_counter() - start) * 1e3
    if code != 0:
        raise SystemExit(f"python {' '.join(argv)} in {tree} exited with status {code}")
    return elapsed


def time_cli(trees: dict[str, Path]) -> dict[str, dict[str, list[float]]]:
    """Per side and command, its CLI_ROUNDS times in milliseconds."""
    times = {side: {name: [] for name in CLI_COMMANDS} for side in SIDES}
    with tempfile.TemporaryFile() as out:
        for i in range(CLI_ROUNDS):
            for name, argv in CLI_COMMANDS.items():
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    times[side][name].append(time_command(trees[side], argv, out))
    return times


def summarize_cli(times: dict[str, dict[str, list[float]]]) -> dict:
    """cli.<name>_ms per command, by the same rule as a workload metric."""
    return {
        f"cli.{name}_ms": compare(base, times["change"][name], "lower", len(base))
        for name, base in times["base"].items()
    }


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is its own)."""
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return {"median": median, "q1": q1, "q3": q3}


def compare(base: list[float], change: list[float], better: str, pairs: int) -> dict:
    """Per-side spread, pair wins (ties for neither) and the verdict.  The
    nine tenths are of `pairs`, the pairs run; base and change hold the
    pairs compared."""
    sign = 1.0 if better == "higher" else -1.0
    wins = {
        "base": sum(sign * (b - c) > 0 for b, c in zip(base, change)),
        "change": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
    }
    out = {"better": better, "base": spread(base), "change": spread(change), "wins": wins}
    gap = sign * (out["change"]["median"] - out["base"]["median"])
    iqr = out["base"]["q3"] - out["base"]["q1"]
    out["verdict"] = "none"
    for side, side_gap in (("change", gap), ("base", -gap)):
        if wins[side] >= 0.9 * pairs and side_gap > iqr:
            out["verdict"] = side
    return out


def failed_share(runs: list[dict]) -> float:
    """The share of the operations attempted in a side's runs that failed."""
    done = [r for r in runs if r["ok"]]
    return sum(r["failed"] for r in done) / max(1, sum(r["attempted"] for r in done))


def summarize(runs: dict[str, list[dict]], directions: dict[str, str]) -> dict:
    """Per-metric comparison over the pairs in which both sides ran."""
    pairs = [(b, c) for b, c in zip(runs["base"], runs["change"]) if b["ok"] and c["ok"]]
    failed = {side: failed_share(runs[side]) for side in SIDES}
    metrics = {}
    for name, better in directions.items():
        both = [(b["metrics"][name], c["metrics"][name]) for b, c in pairs
                if name in b["metrics"] and name in c["metrics"]]
        if both:
            m = compare([b for b, _ in both], [c for _, c in both], better, len(runs["base"]))
            if m["verdict"] == "change" and failed["change"] > failed["base"]:
                m["verdict"] = "none"
            metrics[name] = m
    return {
        "pairs_compared": len(pairs),
        "failed_share": failed,
        "sha256_mismatch": [b["seed"] for b, c in pairs if b["sha256"] != c["sha256"]],
        "metrics": metrics,
    }


def report(workload: str, summary: dict) -> list[str]:
    failed = summary["failed_share"]
    return [f"{workload}: {summary['pairs_compared']} pairs, failed share base "
            f"{failed['base']:.3g} change {failed['change']:.3g}, sha256 differs on seeds "
            f"{summary['sha256_mismatch'] or 'none'}", *metric_lines(summary["metrics"])]


def metric_lines(metrics: dict) -> list[str]:
    lines = []
    for name, m in metrics.items():
        b, c = m["base"], m["change"]
        lines.append(
            f"  {name:<16} base {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}]  change "
            f"{c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  wins {m['wins']['base']}/"
            f"{m['wins']['change']}  verdict {m['verdict']}"
        )
    return lines


def environment(rev: str) -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "base_rev": git("rev-parse", rev).decode().strip(),
        "change": "working tree on " + git("rev-parse", "HEAD").decode().strip(),
        "host": {"node": platform.node(), "platform": platform.platform(),
                 "machine": platform.machine(), "nproc": os.cpu_count()},
        "python": platform.python_version(),
        "numpy": numpy,
        "run_env": RUN_ENV,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, type=Path, help="JSON file to write")
    p.add_argument("--rev", default="HEAD", help="base revision (default HEAD)")
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]} | RAW_METRICS
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + PAIRS))
    record = {**environment(args.rev), "seconds": seconds, "seeds": seeds, "workloads": {}}
    bad = False
    with tempfile.TemporaryDirectory(prefix="ab-") as workdir:
        trees = make_sides(args.rev, Path(workdir))
        times = time_cli(trees)
        record["cli"] = {"rounds": CLI_ROUNDS, "commands": CLI_COMMANDS,
                         "metrics": summarize_cli(times), "times_ms": times}
        print("\n".join(["cli:", *metric_lines(record["cli"]["metrics"])]), flush=True)
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {side: [] for side in SIDES}
            first = []
            for i, seed in enumerate(seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                first.append(order[0])
                for side in order:
                    runs[side].append(run_side(trees[side], workload, seed, seconds))
                    print(f"{workload} seed {seed} {side}: {json.dumps(runs[side][-1])}",
                          file=sys.stderr, flush=True)
            summary = summarize(runs, directions)
            record["workloads"][workload] = {"first": first, **summary, "runs": runs}
            print("\n".join(report(workload, summary)), flush=True)
            bad |= bool(summary["sha256_mismatch"]) or not all(
                r["ok"] and r["correct"] for side in SIDES for r in runs[side]
            )
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
