"""Global registry for the opt-in runtime sanitizer suite.

Product modules (store, NIC, RPC, instance, root) import *this* module
only — it has no dependencies on the rest of ``repro``, so the hooks
cannot introduce import cycles. A hook is::

    from repro.analysis import runtime as sanitize
    ...
    suite = sanitize.ACTIVE
    if suite is not None:
        suite.note_store_apply(self.sim, key, instance)

When no suite is installed ``ACTIVE`` is ``None`` and the hook costs a
single module-attribute read — zero allocations, no call.

The suite auto-resets when it observes a different :class:`Simulator`
object than the one it is bound to, so campaign drivers can install one
suite around hundreds of runs without per-run bookkeeping.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import TYPE_CHECKING, ContextManager, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - the lazy import avoids a cycle
    from repro.analysis.sanitizers import SanitizerSuite

#: The currently installed sanitizer suite, or ``None`` (the default).
ACTIVE: Optional["SanitizerSuite"] = None


def install(suite):
    """Install ``suite`` as the process-wide sanitizer suite."""
    global ACTIVE
    ACTIVE = suite
    return suite


def uninstall() -> None:
    """Remove the installed suite (hooks go back to zero-cost)."""
    global ACTIVE
    ACTIVE = None


@contextmanager
def sanitized(**kwargs) -> Iterator:
    """Context manager: install a fresh :class:`SanitizerSuite`.

    Keyword arguments are forwarded to the suite constructor
    (``ownership=``, ``clocks=``, ``deadlock=``). The suite is
    uninstalled on exit even if the body raises.
    """
    from repro.analysis.sanitizers import SanitizerSuite

    suite = SanitizerSuite(**kwargs)
    install(suite)
    try:
        yield suite
    finally:
        uninstall()


def maybe_sanitized(enabled: bool) -> ContextManager[Optional["SanitizerSuite"]]:
    """:func:`sanitized` when ``enabled``, else a no-op context yielding
    ``None`` — one ``with`` for drivers whose ``--sanitize`` is a flag."""
    return sanitized() if enabled else nullcontext()
