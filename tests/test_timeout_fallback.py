"""The per-test ``timeout`` ini budget is real with or without
pytest-timeout (tests/conftest.py carries a SIGALRM stand-in)."""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HANG_CASE = os.path.join("tests", "fixtures", "timeout", "hang_case.py")


def test_hung_test_fails_and_the_suite_moves_on():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO, "src"), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-o", "timeout=1",
         "-p", "no:cacheprovider", HANG_CASE],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
    assert "Unknown config option" not in result.stdout + result.stderr
