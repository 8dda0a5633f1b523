"""Driven by tests/test_timeout_fallback.py with ``-o timeout=1``; the
file name keeps it out of normal collection."""

import time


def test_hangs():
    time.sleep(60.0)


def test_runs_after_the_hang():
    pass
