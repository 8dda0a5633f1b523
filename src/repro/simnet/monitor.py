"""Measurement helpers: latency recorders, throughput meters, percentiles.

These produce the series the paper's figures plot: per-packet processing
time percentiles (Figure 8), CDFs (Figures 11–12), time series of
per-packet latency (Figures 9 and 13), and Gbps goodput (Figure 10).

This module also surfaces the engine's hot-path counters (events processed,
microtasks, heap peak, channel depth peaks) for the perf harness in
``benchmarks/bench_engine_micro.py`` — see DESIGN.md "Engine performance
model".
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

PERCENTILES_FIG8 = (5, 25, 50, 75, 95)
_NO_TIMESTAMP = float("nan")


@dataclass
class EngineCounters:
    """A snapshot of the simulator's hot-path counters.

    ``events_processed`` counts every executed callback (heap + microtask);
    ``microtasks_processed`` is the subset that took the zero-delay FIFO
    fast-path; ``heap_peak`` is the timer heap's high-water mark. The
    microtask share is the fraction of work that skipped the O(log n) heap.
    """

    now: float
    events_processed: int
    microtasks_processed: int
    heap_peak: int
    heap_size: int
    # RPC-layer churn (populated when a Network is passed to
    # engine_counters): timed-out attempts, retransmissions, and calls that
    # exhausted their retry budget (RpcGaveUp).
    rpc_retries: int = 0
    rpc_timeouts: int = 0
    rpc_gaveups: int = 0

    @property
    def heap_events(self) -> int:
        return self.events_processed - self.microtasks_processed

    @property
    def microtask_share(self) -> float:
        if self.events_processed == 0:
            return 0.0
        return self.microtasks_processed / self.events_processed

    def as_dict(self) -> Dict[str, float]:
        return {
            "now_us": self.now,
            "events_processed": self.events_processed,
            "microtasks_processed": self.microtasks_processed,
            "heap_events": self.heap_events,
            "microtask_share": round(self.microtask_share, 4),
            "heap_peak": self.heap_peak,
            "heap_size": self.heap_size,
            "rpc_retries": self.rpc_retries,
            "rpc_timeouts": self.rpc_timeouts,
            "rpc_gaveups": self.rpc_gaveups,
        }


def engine_counters(sim, network=None) -> EngineCounters:
    """Snapshot a :class:`~repro.simnet.engine.Simulator`'s counters.

    Pass the :class:`~repro.simnet.network.Network` too to fold in the RPC
    retransmission counters (retries / timeouts / give-ups)."""
    return EngineCounters(
        now=sim.now,
        events_processed=sim.events_processed,
        microtasks_processed=sim.microtasks_processed,
        heap_peak=sim.heap_peak,
        heap_size=sim.heap_size,
        rpc_retries=getattr(network, "rpc_retries", 0),
        rpc_timeouts=getattr(network, "rpc_timeouts", 0),
        rpc_gaveups=getattr(network, "rpc_gaveups", 0),
    )


def channel_depth_peaks(channels: Mapping[str, object]) -> Dict[str, int]:
    """``{name: depth_peak}`` for a mapping of named channels.

    Channels that never queued anything (peak 0) are omitted — experiment
    reports only care about where backpressure actually built up.
    """
    peaks = {}
    for name, channel in channels.items():
        peak = getattr(channel, "depth_peak", 0)
        if peak:
            peaks[name] = peak
    return peaks


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``samples`` (linear interpolation)."""
    if len(samples) == 0:
        raise ValueError("no samples")
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def percentiles(samples: Sequence[float], qs: Iterable[float] = PERCENTILES_FIG8) -> Dict[float, float]:
    """Several percentiles at once, as a ``{q: value}`` dict.

    An empty sample set yields ``{}`` rather than raising: campaign
    payload builders aggregate whatever a scenario produced, and a
    scenario whose every run crashed (or recorded zero recoveries) must
    serialize as an empty distribution, not abort the report. A single
    sample is its own value at every percentile (``np.percentile``
    handles that natively).
    """
    if len(samples) == 0:
        return {}
    array = np.asarray(samples, dtype=float)
    return {float(q): float(np.percentile(array, q)) for q in qs}


class LatencyRecorder:
    """Collects (timestamp, value) latency samples.

    ``record`` is called with the measured per-packet processing time; the
    timestamp defaults to nothing (pure distribution) but experiments that
    plot time series (Figures 9, 13) pass the simulation clock.

    Samples live in two ``array('d')`` columns — a packet's sample is two
    unboxed doubles, not two float objects — so a value reads back as a
    float and a missing timestamp is stored as NaN.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.values = array("d")
        self.timestamps = array("d")

    def record(self, value: float, timestamp: Optional[float] = None) -> None:
        self.values.append(value)
        self.timestamps.append(_NO_TIMESTAMP if timestamp is None else timestamp)

    def __len__(self) -> int:
        return len(self.values)

    def percentile(self, q: float) -> float:
        return percentile(self.values, q)

    def summary(self, qs: Iterable[float] = PERCENTILES_FIG8) -> Dict[float, float]:
        return percentiles(self.values, qs)

    def median(self) -> float:
        return self.percentile(50)

    def mean(self) -> float:
        if not self.values:
            raise ValueError("no samples")
        return float(np.mean(self.values))

    def cdf(self, points: int = 200) -> List[Tuple[float, float]]:
        """(value, cumulative fraction) pairs for CDF plots."""
        if not self.values:
            return []
        ordered = np.sort(np.asarray(self.values, dtype=float))
        n = len(ordered)
        indices = np.unique(np.linspace(0, n - 1, min(points, n)).astype(int))
        return [(float(ordered[i]), float((i + 1) / n)) for i in indices]

    def windowed_mean(self, window_us: float) -> List[Tuple[float, float]]:
        """Average latency per time window — Figure 13's 500µs windows."""
        samples = [
            (t, v) for t, v in zip(self.timestamps, self.values) if t == t  # not NaN
        ]
        if not samples:
            return []
        samples.sort()
        out: List[Tuple[float, float]] = []
        start = samples[0][0]
        bucket: List[float] = []
        for t, v in samples:
            while t >= start + window_us:
                if bucket:
                    out.append((start, float(np.mean(bucket))))
                    bucket = []
                start += window_us
            bucket.append(v)
        if bucket:
            out.append((start, float(np.mean(bucket))))
        return out


@dataclass
class TimelineEvent:
    """One entry in a :class:`RecoveryTimeline`."""

    at: float
    kind: str  # "failed" | "detected" | "recovery_started" | "recovered" | "recovery_failed"
    component: str
    detail: Dict[str, object] = dataclass_field(default_factory=dict)


class RecoveryTimeline:
    """An ordered log of failure / detection / recovery events.

    The :class:`repro.core.supervisor.Supervisor` records here; chaos
    campaign reports read it to reconstruct per-component recovery times
    (detected -> recovered) and end-to-end outage windows (failed ->
    recovered, which includes the detector's latency).
    """

    def __init__(self):
        self.events: List[TimelineEvent] = []

    def record(self, at: float, kind: str, component: str, **detail) -> TimelineEvent:
        event = TimelineEvent(at=at, kind=kind, component=component, detail=detail)
        self.events.append(event)
        return event

    def recovery_durations(self, since: str = "failed") -> Dict[str, float]:
        """``{component: duration_us}`` from ``since`` to "recovered".

        ``since`` is "failed" (outage window, detection latency included)
        or "detected" / "recovery_started" (pure protocol time). Components
        without a completed recovery are omitted.
        """
        starts: Dict[str, float] = {}
        durations: Dict[str, float] = {}
        for event in self.events:
            if event.kind == since and event.component not in starts:
                starts[event.component] = event.at
            elif event.kind == "recovered" and event.component in starts:
                durations[event.component] = event.at - starts.pop(event.component)
        return durations

    def as_dicts(self) -> List[Dict[str, object]]:
        return [
            {"at_us": e.at, "kind": e.kind, "component": e.component, **e.detail}
            for e in self.events
        ]


class ThroughputMeter:
    """Counts bits over simulated time, reporting Gbps goodput."""

    def __init__(self, name: str = ""):
        self.name = name
        self.bits = 0
        self.packets = 0
        self.first_at: Optional[float] = None
        self.last_at: Optional[float] = None

    def add(self, size_bits: int, now: float) -> None:
        if self.first_at is None:
            self.first_at = now
        self.last_at = now
        self.bits += size_bits
        self.packets += 1

    def gbps(self, duration_us: Optional[float] = None) -> float:
        """Goodput over ``duration_us`` (or first-to-last sample span)."""
        if duration_us is None:
            if self.first_at is None or self.last_at is None or self.last_at <= self.first_at:
                return 0.0
            duration_us = self.last_at - self.first_at
        if duration_us <= 0:
            return 0.0
        return self.bits / duration_us / 1_000.0  # bits/µs -> Gbps
