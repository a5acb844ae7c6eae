"""The benchmark's self-test runs against the current package.

perfbench wraps and reads dynamics and oracle functions by name (and
len() of a population), so an API change there can break it silently.
It runs the checkout's src/ whatever the test process imported:
run.py drops PYTHONPATH and child.py puts src/ first on sys.path.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_self_test_passes(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-test"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test passed" in proc.stdout + proc.stderr
