"""Every recorded rblie command prints exactly its recording.

Each file under tests/cli_stdout/ starts with the command line it
records (`$ rblie ...`), then holds the exit code, stdout and stderr of
that command run from the repository root.  The README's command lines
are all among the recordings.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from rblie.cli import main

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "cli_stdout"
CASES = sorted(p.name for p in CORPUS.glob("*.txt"))


def command(path):
    """The argument list recorded on the first line of `path`."""
    first = path.read_text(encoding="utf-8").split("\n", 1)[0]
    assert first.startswith("$ rblie "), first
    return shlex.split(first[len("$ rblie "):])


def record(argv):
    """The recording of `rblie argv`, run in this process from the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the command line
            code = exc.code
    return "$ rblie %s\nexit %d\n--- stdout\n%s--- stderr\n%s" % (
        shlex.join(argv), code, out.getvalue(), err.getvalue())


@pytest.mark.parametrize("name", CASES)
def test_command_prints_its_recording(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    # argparse wraps its usage text to the terminal's width; the
    # recordings were made at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    path = CORPUS / name
    assert record(command(path)) == path.read_text(encoding="utf-8")


def test_readme_commands_are_recorded():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    shown = {shlex.join(shlex.split(line)[1:])
             for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.splitlines() if line.startswith("rblie ")}
    recorded = {shlex.join(command(CORPUS / name)) for name in CASES}
    assert shown and shown <= recorded, shown - recorded
