"""``CampaignPool`` — process fan-out with explicit worker lifecycle.

The pool maps a picklable, module-level work function over a list of work
items across ``jobs`` OS processes and returns the results **in
submission order**, so downstream aggregation is byte-identical to the
serial loop no matter how completion interleaves (the merge-determinism
contract; see :mod:`repro.parallel`).

Worker lifecycle, in the dist_zero runtime idiom of explicit failure
handling rather than letting the executor's exceptions tear the campaign
down:

* **per-run timeout** — each item runs under a worker-side ``SIGALRM``
  (so a hung simulation interrupts itself and the worker survives for
  the next item), backed by a parent-side watchdog at ~2x the budget for
  hangs the signal cannot reach. Timed-out items become
  :class:`InfraFailure` (reason ``"timeout"``); deterministic sims hang
  deterministically, so timeouts are not retried.
* **worker crash** — a worker dying (segfault, ``os._exit``, OOM kill)
  breaks a ``ProcessPoolExecutor``; the pool rebuilds the executor and
  quarantines every in-flight casualty: they re-run one at a time, so a
  repeat crash unambiguously identifies the poison item (charged a
  bounded retry budget, then recorded as :class:`InfraFailure` with
  reason ``"worker-crash"``) while innocent neighbours complete without
  burning their own budgets on collateral losses.
* **work-function exception** — caught in the worker and returned as an
  :class:`InfraFailure` (reason ``"worker-exception"``) without retry;
  campaign layers are expected to catch *expected* per-run exceptions
  themselves (as :class:`~repro.parallel.merge.RunFailure`), so anything
  reaching the pool is a harness bug and deterministic.

``jobs=1`` (and the single-item case) runs inline in the calling process
— no executor, no pickling — which is both the compatibility path for
platforms without ``fork`` and the reference behaviour the parallel path
must reproduce byte-for-byte.

Wall-clock reads here are host-side campaign accounting (the same
exemption ``tools/`` has from CHC002): every item's in-worker wall time
is measured with ``time.perf_counter`` so the merged payload can report
``wall_s_serial_est`` (the sum — what the serial loop would have cost)
next to the actual elapsed wall, giving an honest speedup figure.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

__all__ = [
    "CampaignPool",
    "InfraFailure",
    "PoolOutcome",
    "WorkResult",
    "resolve_jobs",
]

#: Parent-side watchdog slack: a worker gets ``timeout_s`` to interrupt
#: itself via SIGALRM; the parent declares it hung at ``2x + 5s``.
WATCHDOG_FACTOR = 2.0
WATCHDOG_SLACK_S = 5.0

#: How long the parent blocks per wait() tick while watching for
#: completions, crashes, and watchdog expiry.
_POLL_S = 0.25


def resolve_jobs(jobs: Union[int, str, None]) -> int:
    """Normalise a ``--jobs`` value: ``"auto"``/``None``/``0`` -> cpu count."""
    if jobs in (None, "auto", 0, "0"):
        return max(1, os.cpu_count() or 1)
    count = int(jobs)
    if count < 1:
        raise ValueError(f"jobs must be >= 1 or 'auto', got {jobs!r}")
    return count


@dataclass
class WorkResult:
    """One successfully-completed work item."""

    index: int
    value: Any
    wall_s: float  # in-worker execution time for this item alone
    attempts: int = 1


@dataclass
class InfraFailure:
    """A work item the *fabric* failed to execute (not a run failure).

    ``reason`` is one of ``"worker-crash"``, ``"timeout"``,
    ``"worker-exception"``.
    """

    index: int
    item: str  # repr of the work item, for the payload
    reason: str
    detail: str
    attempts: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "item": self.item,
            "reason": self.reason,
            "detail": self.detail,
            "attempts": self.attempts,
        }


@dataclass
class PoolOutcome:
    """Everything a campaign needs from one :meth:`CampaignPool.map`."""

    jobs: int
    results: List[WorkResult] = field(default_factory=list)  # submission order
    infra_failures: List[InfraFailure] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.infra_failures

    @property
    def serial_wall_est_s(self) -> float:
        """What the serial loop would have cost: sum of per-item walls."""
        return sum(result.wall_s for result in self.results)

    def values(self) -> List[Any]:
        return [result.value for result in self.results]

    def stats(self) -> Dict[str, Any]:
        """The ``meta`` fragment every BENCH payload records."""
        return {
            "jobs": self.jobs,
            "wall_s": round(self.wall_s, 2),
            "wall_s_serial_est": round(self.serial_wall_est_s, 2),
            "infra_failures": len(self.infra_failures),
        }


class _WorkerTimeout(BaseException):
    """Raised inside a worker when its per-item SIGALRM budget expires.

    Inherits ``BaseException`` (like ``KeyboardInterrupt``) so that work
    functions which catch ``Exception`` for their own per-run isolation —
    every campaign runner does — cannot swallow the pool's timeout signal
    and mislabel a hung run as an ordinary run failure.
    """


def _alarm_handler(_signum, _frame):  # pragma: no cover - signal context
    raise _WorkerTimeout()


def _invoke(fn: Callable[[Any], Any], item: Any, timeout_s: Optional[float]):
    """Worker-side wrapper: run one item under its timeout, classify.

    Returns ``(status, payload, wall_s)`` where status is ``"ok"``,
    ``"timeout"``, or ``"error"`` — the worker never lets an exception
    escape (an escaping exception would be indistinguishable from a
    harness bug at the parent), and never dies on one either, so one bad
    item cannot take innocent queued items with it.
    """
    use_alarm = timeout_s is not None and hasattr(signal, "SIGALRM")
    previous = None
    if use_alarm:
        try:
            previous = signal.signal(signal.SIGALRM, _alarm_handler)
            signal.setitimer(signal.ITIMER_REAL, timeout_s)
        except ValueError:  # not the main thread: alarm unavailable
            use_alarm = False
    start = time.perf_counter()
    try:
        value = fn(item)
        return ("ok", value, time.perf_counter() - start)
    except _WorkerTimeout:
        return (
            "timeout",
            f"run exceeded {timeout_s}s in-worker budget",
            time.perf_counter() - start,
        )
    except Exception as exc:
        detail = f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=8)}"
        return ("error", detail, time.perf_counter() - start)
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


@dataclass
class _Pending:
    index: int
    item: Any
    attempts: int = 0


class CampaignPool:
    """Fan a work function over independent items across processes.

    Parameters
    ----------
    jobs:
        Worker-process count, or ``"auto"`` for the machine's cpu count.
        ``1`` runs inline (no subprocesses).
    timeout_s:
        Per-item wall budget. ``None`` disables both the worker-side
        alarm and the parent watchdog. Inline mode also enforces it
        (same SIGALRM mechanism) when the platform supports it.
    retries:
        How many times an item lost to a *worker crash* is requeued
        before becoming an :class:`InfraFailure`. Timeouts and work-
        function exceptions are never retried (deterministic).
    """

    def __init__(
        self,
        jobs: Union[int, str, None] = "auto",
        timeout_s: Optional[float] = None,
        retries: int = 1,
    ):
        self.jobs = resolve_jobs(jobs)
        self.timeout_s = timeout_s
        self.retries = max(0, retries)
        # fork keeps workers seeing the parent's loaded modules (incl.
        # any test monkeypatching) and inherits sys.path; fall back to
        # the platform default where fork is unavailable.
        methods = multiprocessing.get_all_start_methods()
        self._mp_context = (
            multiprocessing.get_context("fork") if "fork" in methods else None
        )

    # -- public ----------------------------------------------------------

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        progress: Optional[Callable[[WorkResult], None]] = None,
    ) -> PoolOutcome:
        """Run ``fn`` over ``items``; results come back in submission order.

        ``progress`` is called once per completed item *in completion
        order* (it exists for live logging, not for aggregation — use
        ``outcome.results``, which is submission-ordered, for anything
        that feeds a payload).
        """
        items = list(items)
        start = time.perf_counter()
        if self.jobs == 1 or len(items) <= 1:
            outcome = self._map_inline(fn, items, progress)
        else:
            outcome = self._map_parallel(fn, items, progress)
        outcome.wall_s = time.perf_counter() - start
        outcome.results.sort(key=lambda r: r.index)
        outcome.infra_failures.sort(key=lambda f: f.index)
        return outcome

    # -- inline reference path -------------------------------------------

    def _map_inline(self, fn, items, progress) -> PoolOutcome:
        outcome = PoolOutcome(jobs=1)
        for index, item in enumerate(items):
            status, payload, wall_s = _invoke(fn, item, self.timeout_s)
            if status == "ok":
                result = WorkResult(index=index, value=payload, wall_s=wall_s)
                outcome.results.append(result)
                if progress is not None:
                    progress(result)
            else:
                reason = "timeout" if status == "timeout" else "worker-exception"
                outcome.infra_failures.append(
                    InfraFailure(
                        index=index,
                        item=repr(item),
                        reason=reason,
                        detail=payload,
                        attempts=1,
                    )
                )
        return outcome

    # -- process fan-out --------------------------------------------------

    def _new_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.jobs, mp_context=self._mp_context
        )

    def _map_parallel(self, fn, items, progress) -> PoolOutcome:
        outcome = PoolOutcome(jobs=self.jobs)
        queue = deque(_Pending(index, item) for index, item in enumerate(items))
        # Items co-resident with a pool break. A broken pool kills every
        # in-flight item, but only one of them is (usually) to blame —
        # so casualties are re-run one at a time from this queue
        # ("quarantine"): a solo crash unambiguously identifies the
        # poison item and charges only *its* retry budget, instead of
        # burning innocent neighbours' budgets on collateral losses.
        suspects: deque = deque()
        executor = self._new_executor()
        in_flight: Dict[Any, _Pending] = {}  # future -> pending
        deadlines: Dict[Any, float] = {}  # future -> watchdog deadline
        watchdog_s = (
            self.timeout_s * WATCHDOG_FACTOR + WATCHDOG_SLACK_S
            if self.timeout_s is not None
            else None
        )

        def submit(line: deque) -> bool:
            """Hand the head of ``line`` to the pool. A pool broken since the
            last ``wait`` refuses it; it stays there, uncharged."""
            try:
                future = executor.submit(_invoke, fn, line[0].item, self.timeout_s)
            except BrokenProcessPool:
                return False
            pending = line.popleft()
            pending.attempts += 1
            in_flight[future] = pending
            if watchdog_s is not None:
                deadlines[future] = time.perf_counter() + watchdog_s
            return True

        try:
            while queue or suspects or in_flight:
                refused = False
                if suspects:
                    if not in_flight:
                        refused = not submit(suspects)
                else:
                    while queue and len(in_flight) < self.jobs * 2:
                        if not submit(queue):
                            refused = True
                            break
                if refused and not in_flight:
                    # broken with nothing in flight to report it: replace it
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = self._new_executor()
                    continue
                done, _ = wait(
                    set(in_flight), timeout=_POLL_S, return_when=FIRST_COMPLETED
                )
                crashed: List[_Pending] = []
                for future in done:
                    pending = in_flight.pop(future)
                    deadlines.pop(future, None)
                    try:
                        status, payload, wall_s = future.result()
                    except (BrokenProcessPool, Exception):
                        crashed.append(pending)
                        continue
                    if status == "ok":
                        result = WorkResult(
                            index=pending.index,
                            value=payload,
                            wall_s=wall_s,
                            attempts=pending.attempts,
                        )
                        outcome.results.append(result)
                        if progress is not None:
                            progress(result)
                    else:
                        reason = (
                            "timeout" if status == "timeout" else "worker-exception"
                        )
                        outcome.infra_failures.append(
                            InfraFailure(
                                index=pending.index,
                                item=repr(pending.item),
                                reason=reason,
                                detail=payload,
                                attempts=pending.attempts,
                            )
                        )
                if crashed:
                    # everything in flight at the break went down with the
                    # pool: the lone casualty is definitively to blame,
                    # a group goes to quarantine to find the culprit
                    casualties = crashed + list(in_flight.values())
                    if len(casualties) == 1:
                        self._crash_or_requeue(
                            casualties[0], suspects, outcome, "pool broke"
                        )
                    else:
                        suspects.extend(casualties)
                    in_flight.clear()
                    deadlines.clear()
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = self._new_executor()
                    continue
                if watchdog_s is not None:
                    overdue = [
                        future
                        for future, deadline in deadlines.items()
                        if time.perf_counter() > deadline and not future.done()
                    ]
                    if overdue:
                        for future in overdue:
                            pending = in_flight.pop(future)
                            deadlines.pop(future, None)
                            outcome.infra_failures.append(
                                InfraFailure(
                                    index=pending.index,
                                    item=repr(pending.item),
                                    reason="timeout",
                                    detail=(
                                        "worker unresponsive past the "
                                        f"{watchdog_s:.1f}s parent watchdog"
                                    ),
                                    attempts=pending.attempts,
                                )
                            )
                        # the hung workers are unrecoverable: kill the
                        # whole pool and restart it. The other in-flight
                        # items are known-innocent (the culprits were
                        # just recorded), so they go straight back to
                        # the main queue, uncharged.
                        self._kill_workers(executor)
                        executor.shutdown(wait=False, cancel_futures=True)
                        queue.extend(in_flight.values())
                        in_flight.clear()
                        deadlines.clear()
                        executor = self._new_executor()
        finally:
            # graceful on the clean path; the hung-worker path already
            # killed its processes above
            executor.shutdown(wait=True, cancel_futures=True)
        return outcome

    def _crash_or_requeue(self, pending, suspects, outcome, detail: str) -> None:
        """A worker died *under ``pending`` alone*: retry it or record it.

        Retries go back to the quarantine queue, so a repeat crash stays
        unambiguous.
        """
        if pending.attempts <= self.retries:
            suspects.append(pending)
        else:
            outcome.infra_failures.append(
                InfraFailure(
                    index=pending.index,
                    item=repr(pending.item),
                    reason="worker-crash",
                    detail=f"worker lost ({detail}); retry budget exhausted",
                    attempts=pending.attempts,
                )
            )

    @staticmethod
    def _kill_workers(executor) -> None:
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:
                pass
