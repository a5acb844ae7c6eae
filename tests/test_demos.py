"""Smoke tests: every demo script and the README quick start run to
completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_python(args, cwd):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    proc = _run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick start \(Python\)\s+```python\n(.*?)```", readme, re.S)
    proc = _run_python(["-c", block.group(1)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # the values the block's comments state
    assert lines[:3] == ["0.5 100.0", "PatternLabel.B_i_c", "11500.0"]
    assert lines[-1].startswith("0.6666")
