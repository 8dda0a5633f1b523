"""Every runnable example exits 0.

The examples are the README's front door and import the library the way
a user would, naming each submodule; each prints a self-checking report.
Each runs as its own process, as ``python examples/<name>.py`` does.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_exits_zero(script):
    done = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=240,
        cwd=REPO,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
