"""Fresh-interpreter tests: every demo script and the README quick start
run to completion, on the package under test."""

import re
from pathlib import Path

import pytest

import erstoll
from conftest import run_python

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_child_imports_the_package_under_test(tmp_path):
    # a checkout's src/ under tier-1, the installed copy under -o pythonpath=
    out = run_python(["-c", "import erstoll; print(erstoll.__file__)"], tmp_path)
    assert Path(out.strip()).resolve() == Path(erstoll.__file__).resolve()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    run_python([str(demo)], tmp_path, timeout=120)


def test_readme_quick_start(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick start \(Python\)\s+```python\n(.*?)```", readme, re.S)
    lines = run_python(["-c", block.group(1)], tmp_path, timeout=120).splitlines()
    # the values the block's comments state
    assert lines[:3] == ["0.5 100.0", "PatternLabel.B_i_c", "11500.0"]
    assert lines[-1].startswith("0.6666")
