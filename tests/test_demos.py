"""Every demo runs from the repository root without error output and
prints exactly its recorded stdout (tests/demo_stdout/<demo>.txt)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs_cleanly(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(Path("demos") / name)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    expected = (ROOT / "tests" / "demo_stdout" / name).with_suffix(".txt")
    assert done.stdout == expected.read_text(encoding="utf-8")
