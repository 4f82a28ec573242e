"""The demos' standard output, byte for byte against the committed copies in
``tests/demo_stdout``.  Each demo runs in a fresh interpreter, as a reader
would run it: ``PYTHONPATH=src python demos/<name>.py``."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.stem for p in (REPO_ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_committed_output():
    committed = sorted(p.stem for p in (REPO_ROOT / "tests" / "demo_stdout").glob("*.txt"))
    assert committed == DEMOS


@pytest.mark.parametrize("name", DEMOS)
def test_demo_stdout_is_unchanged(name):
    src = str(REPO_ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "demos" / f"{name}.py")],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    expected = (REPO_ROOT / "tests" / "demo_stdout" / f"{name}.txt").read_text()
    assert done.stdout == expected
