"""Paths of the checkout this benchmark sits in, and the ``src`` bootstrap.

The benchmark always measures the checkout that contains it: ``src/`` is
put first on ``sys.path`` even when some other ``repro`` is installed, and
a directory without ``src/repro`` is an error rather than a fallback.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_DIR = os.path.join(REPO_ROOT, "src")
#: Traces, ledgers and fabric workdirs; ignored by git, safe to delete.
OUT_DIR = os.path.join(HERE, "out")
BENCHMARK_JSON = os.path.join(REPO_ROOT, "BENCHMARK.json")


def use_checkout_source() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/repro``."""
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        raise SystemExit(f"benchmarks/perf: no program to measure at {SRC_DIR}/repro")
    if sys.path[0] != SRC_DIR:
        sys.path.insert(0, SRC_DIR)


def load_spec() -> Dict[str, Any]:
    """BENCHMARK.json: the one place metric names, units and bounds live."""
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as fh:
        return json.load(fh)
