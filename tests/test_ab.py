"""tools/ab.py: the A/B benchmark script's parsing of a perfbench run, its pair
statistics (wins, ties, quartiles and the verdict rule) and its command-line
timings, on fixed figures and a stand-in for subprocess.run."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

SHA = "0123456789abcdef" * 4
RUN_OUTPUT = f"""workload random-scenarios  seed 3  trace 0  52000 ops in 13 passes of 4000 fresh inputs
as measured: ops_per_s 37805.8  op_p50_ms 0.0242865; setup_s is the median of 7 fresh processes, as measured
  peak_rss_mb                                       45.3594 MiB
output sha256 over the first pass: {SHA} (every op's in .perfbench_out/x.tsv)
{{"correct": true, "attempted": 52000, "failed": 2, "metrics": {{"ops_per_s": {{"value": 25995.5, "unit": "1/s"}}, "peak_rss_mb": {{"value": 45.359375, "unit": "MiB"}}}}}}
"""


def test_a_run_is_its_json_line_raw_figures_and_sha256():
    assert ab.parse_run(RUN_OUTPUT) == {
        "correct": True,
        "attempted": 52000,
        "failed": 2,
        "sha256": SHA,
        "metrics": {
            "ops_per_s": 25995.5,
            "peak_rss_mb": 45.359375,
            "raw.ops_per_s": 37805.8,
            "raw.op_p50_ms": 0.0242865,
        },
    }


def test_ties_count_for_neither_side_and_quartiles_are_the_bases():
    out = ab.compare([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 3.5, 3.0, 4.0], "lower", 5)
    assert out["wins"] == {"base": 1, "change": 3}
    assert out["base"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert out["verdict"] == "none"


@pytest.mark.parametrize(
    "offsets, verdict",
    [
        ([10.0] * 10, "change"),
        ([-10.0] * 10, "base"),
        ([10.0] * 9 + [-1.0], "change"),  # nine of ten pairs is enough
        ([10.0] * 8 + [-1.0] * 2, "none"),  # eight is not
        ([1.0] * 10, "none"),  # every pair, but inside the base's spread
    ],
)
def test_a_verdict_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_spread(offsets, verdict):
    base = [float(v) for v in range(1, 11)]  # median 5.5, quartile spread 7.75 - 3.25
    change = [b + d for b, d in zip(base, offsets)]
    assert ab.compare(base, change, "higher", 10)["verdict"] == verdict


def run(seed, value, failed=0, ok=True):
    if not ok:
        return {"seed": seed, "ok": False}
    return {"seed": seed, "ok": True, "correct": True, "attempted": 100, "failed": failed,
            "sha256": SHA, "metrics": {"peak_rss_mb": value}}


def test_a_pair_that_failed_is_won_by_neither_side():
    base = [run(seed, 40.0 + seed / 10) for seed in range(10)]
    change = [run(seed, 30.0, ok=seed != 0) for seed in range(10)]
    summary = ab.summarize({"base": base, "change": change}, {"peak_rss_mb": "lower"})
    assert summary["pairs_compared"] == 9
    assert summary["metrics"]["peak_rss_mb"]["wins"] == {"base": 0, "change": 9}
    assert summary["metrics"]["peak_rss_mb"]["verdict"] == "change"  # 9 of the 10 run
    change[1] = run(1, 30.0, ok=False)
    summary = ab.summarize({"base": base, "change": change}, {"peak_rss_mb": "lower"})
    assert summary["metrics"]["peak_rss_mb"]["verdict"] == "none"  # 8 of the 10 run


def test_the_change_gets_no_verdict_if_a_larger_share_of_its_ops_failed():
    base = [run(seed, 40.0 + seed / 10, failed=1) for seed in range(10)]
    change = [run(seed, 30.0, failed=1) for seed in range(10)]
    summary = ab.summarize({"base": base, "change": change}, {"peak_rss_mb": "lower"})
    assert summary["failed_share"] == {"base": 0.01, "change": 0.01}
    assert summary["metrics"]["peak_rss_mb"]["verdict"] == "change"
    change[3] = run(3, 30.0, failed=2)
    summary = ab.summarize({"base": base, "change": change}, {"peak_rss_mb": "lower"})
    assert summary["failed_share"]["change"] == 0.011
    assert summary["metrics"]["peak_rss_mb"]["verdict"] == "none"
    base = [run(seed, 30.0 + seed / 10, failed=0) for seed in range(10)]
    change = [run(seed, 40.0, failed=1) for seed in range(10)]
    summary = ab.summarize({"base": base, "change": change}, {"peak_rss_mb": "lower"})
    assert summary["metrics"]["peak_rss_mb"]["verdict"] == "base"  # the base is not held back


def test_every_run_writes_no_bytecode(monkeypatch, tmp_path):
    monkeypatch.setattr(ab, "git", lambda *args: b"0" * 40)  # no repository needed
    assert ab.environment("HEAD")["run_env"] == {"PYTHONDONTWRITEBYTECODE": "1"}
    seen = {}

    def fake_run(command, **kwargs):
        seen.update(kwargs)
        return type("Proc", (), {"returncode": 1, "stderr": "boom"})()

    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    assert ab.run_side(tmp_path, "bands", 1, 12)["ok"] is False
    assert seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1" and seen["cwd"] == tmp_path


def test_each_command_line_time_goes_through_the_verdict_rule():
    rounds = range(11)
    times = {
        "base": {"pass": [60.0 + i for i in rounds], "solve": [90.0 + i for i in rounds]},
        "change": {"pass": [60.5 + i for i in rounds], "solve": [75.0 + i for i in rounds]},
    }
    cli = ab.summarize_cli(times)
    assert list(cli) == ["cli.pass_ms", "cli.solve_ms"]
    assert cli["cli.pass_ms"]["wins"] == {"base": 11, "change": 0}
    assert cli["cli.pass_ms"]["verdict"] == "none"  # every round, but inside the spread
    assert cli["cli.solve_ms"]["base"] == {"median": 95.0, "q1": 92.5, "q3": 97.5}
    assert cli["cli.solve_ms"]["verdict"] == "change"
    times["change"]["solve"][:2] = [200.0, 200.0]  # 9 of 11 rounds is short of nine tenths
    assert ab.summarize_cli(times)["cli.solve_ms"]["verdict"] == "none"


def test_command_lines_alternate_sides_on_each_tree_with_no_blas_setting(monkeypatch, tmp_path):
    trees = {side: tmp_path / side for side in ab.SIDES}
    calls = []

    def fake_run(command, cwd, env, stdout, stderr):
        calls.append((cwd, command[1:]))
        assert command[0] == ab.sys.executable and stdout is stderr
        assert env["PYTHONPATH"] == str(cwd / "src") and env["PYTHONDONTWRITEBYTECODE"] == "1"
        assert not set(ab.BLAS_VARIABLES) & set(env)
        return type("Proc", (), {"returncode": 0})()

    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    times = ab.time_cli(trees)
    assert {len(t) for side in ab.SIDES for t in times[side].values()} == {ab.CLI_ROUNDS}
    per_round = 2 * len(ab.CLI_COMMANDS)
    assert calls[:2] == [(trees["base"], ["-c", "pass"]), (trees["change"], ["-c", "pass"])]
    assert calls[per_round:per_round + 2] == [
        (trees["change"], ["-c", "pass"]), (trees["base"], ["-c", "pass"])
    ]
    assert calls[2] == (trees["base"], ["-m", "erstoll.cli", "solve"])
    monkeypatch.setattr(ab.subprocess, "run",
                        lambda *a, **k: type("Proc", (), {"returncode": 2})())
    with pytest.raises(SystemExit, match="exited with status 2"):
        ab.time_command(tmp_path, ["-c", "pass"], None)
