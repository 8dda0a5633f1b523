"""Host-speed calibration: the reason the time metrics are steady.

The hosts this benchmark runs on change speed under it. On the 2-vCPU VM it
was built on, identical 0.3 s rounds run back to back range over 2x within
two minutes, and whole minutes run 30 % slow; CPU time per packet moves in
lockstep with wall time, so it is the speed of the core (a busy SMT
sibling, frequency), not time stolen from the process. No estimator over a
10-30 s run (median or minimum of rounds, per-slice medians, many short
rounds) brought the run-to-run spread of raw seconds under 8-10 %, and a
slow phase in the middle of ten runs pushed it past 30 %.

So every time metric is reported in **reference-speed seconds**: the
harness interleaves a fixed interpreter-bound loop (:func:`spin`) with the
measured region, every few hundred milliseconds, and rescales each slice
of measured time by ``SPIN_REFERENCE_S / (CPU time the loop took next to
it)``. A slice measured while the core ran 30 % slow is credited 30 % less
time. This is the "same-machine ratio" the ROADMAP asks perf gates to use,
kept in the unit a user thinks in. Measured effect: the spread of a 12 s
window's median fell from 8-12 % raw to 4-5 % normalised.

``spin`` and ``SPIN_REFERENCE_S`` are frozen: changing either re-bases
every time metric measured before.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Sequence

#: CPU seconds of one :func:`spin` on the sizing box in its common speed
#: state, so normalised and raw numbers agree there.
SPIN_REFERENCE_S = 0.011


def spin() -> float:
    """Run the calibration loop once; returns the thread CPU seconds it took.

    dict, heap, tuple and integer work in the proportions the simulator's
    hot loops have; about 11 ms. CPU time, not wall: waiting for a core is
    part of a multi-process workload, not of the host's speed.
    """
    start = time.thread_time()
    table: dict = {}
    heap: list = []
    total = 0
    push, pop = heapq.heappush, heapq.heappop
    for index in range(20_000):
        key = (index * 7919) & 1023
        table[key] = table.get(key, 0) + index
        push(heap, (key, index))
        if len(heap) > 64:
            total += pop(heap)[1]
    return time.thread_time() - start


def to_reference(seconds: float, spins: Sequence[float]) -> float:
    """``seconds`` measured next to ``spins``, in reference-speed seconds."""
    return seconds * SPIN_REFERENCE_S / statistics.fmean(spins)
