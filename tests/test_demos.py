"""Every demo runs from the repository root without error output and
prints exactly its recorded stdout (tests/demo_stdout/<demo>.txt), and
every ```python block of README.md prints exactly the `# ...` comments
on its `print` lines."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```",
                           (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)


def _run(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs_cleanly(name):
    done = _run([str(Path("demos") / name)])
    assert done.stderr == ""
    expected = (ROOT / "tests" / "demo_stdout" / name).with_suffix(".txt")
    assert done.stdout == expected.read_text(encoding="utf-8")


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=["block%d" % i for i in range(len(README_BLOCKS))])
def test_readme_python_block_prints_its_comments(block):
    comments = re.findall(r"^\s*print\(.*?\)\s*# (.*)$", block, re.M)
    assert comments, "no commented print line in the block"
    assert _run(["-c", block]).stdout == "".join(c + "\n" for c in comments)
