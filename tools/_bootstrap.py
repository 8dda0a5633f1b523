"""Shared ``sys.path`` bootstrap for the ``tools/`` scripts.

Every campaign tool used to hand-roll ``sys.path.insert(0, .../src)`` at
import time. That broke two ways: a pool worker *importing* (not
exec'ing) a tool module re-ran the insert with a path computed from the
wrong ``__file__`` context, and an environment with ``repro`` properly
installed had the installed package silently shadowed by the checkout.
This module replaces all of them with one idempotent helper that is a
**no-op whenever ``repro`` is already importable** — installed package,
``PYTHONPATH=src``, or an earlier call — and otherwise prepends the
checkout's ``src/`` exactly once.

Usage (first lines of any ``tools/*.py``)::

    import _bootstrap

    _bootstrap.ensure_repro_importable()

Scripts run as ``python tools/x.py`` find this module because Python
puts the script's directory on ``sys.path``; anything importing a tool
programmatically already has to arrange for ``tools/`` (or ``repro``)
to be importable, which is the same contract as before, minus the
shadowing.
"""

from __future__ import annotations

import importlib.util
import os
import sys

#: Absolute path of the repository checkout this file lives in.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The checkout's package root, used only when ``repro`` is not already
#: importable.
SRC_DIR = os.path.join(REPO_ROOT, "src")


def ensure_path(directory: str) -> None:
    """Prepend ``directory`` to ``sys.path`` exactly once."""
    if directory not in sys.path:
        sys.path.insert(0, directory)


def ensure_repro_importable() -> None:
    """Make ``repro`` importable; no-op when it already is."""
    if importlib.util.find_spec("repro") is not None:
        return
    ensure_path(SRC_DIR)
