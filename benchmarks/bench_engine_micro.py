"""Engine hot-path microbenchmarks: new engine vs the seed ("legacy") engine.

Unlike the ``bench_fig*`` experiments (which reproduce the *paper's*
numbers in simulated time), this file measures the simulator itself in
**wall-clock** time: every reproduced figure and the whole tier-1 suite are
bounded by the event loop's throughput, so this is the repo's perf
trajectory. Four scenarios:

* **channel_churn** — bursty producer through a :class:`Channel` with deep
  queue build-up; the consumer drains each burst in a batch (one generator
  resume per burst, then ``try_get`` — the receive-loop idiom), plus a
  parked-getter fleet on a second channel. The seed paid ``list.pop(0)``
  per item and per parked getter (O(depth) each); the overhaul uses
  ``deque``.
* **timer_storm** — a large fleet of armed retransmit-style timers keeps
  the time heap deep (the store client arms one per non-blocking update,
  so tens of thousands live at high load) while a periodic-timer fleet
  fires delivery fanouts: each fire triggers an event with parked waiters
  and each delivery does one follow-up microtask. The seed round-trips
  every zero-delay callback through the loaded heap (O(log n) sift against
  40k entries); the overhaul's microtask FIFO makes them O(1).
* **rpc_pingpong** — request/response rendezvous built from engine
  primitives only (channel + event + latency timeout), the skeleton of
  every store RPC in the dataplane. Dominated by generator resumes that
  both engines pay identically, so its ratio is modest by design — it is
  here to prove the overhaul does not regress RPC-shaped workloads.
* **chain_pipeline** — the full CHC dataplane (firewall -> NAT -> rate
  limiter -> LB, store, root, NICs); new engine only, run with the batched
  match-action fast path off and on. The off/on ratio (``speedup``) and
  the deterministic engine-event ratio are the PR-6 acceptance metrics.

Scenarios time only the ``run()`` phase (setup — arming timers, spawning
processes — is excluded), and ``run_comparison`` interleaves legacy/new
repeats taking the best of each, so the recorded ratio tracks the floor of
both engines rather than scheduler noise.

Run directly (``python benchmarks/bench_engine_micro.py [--smoke]``), via
``tools/perf_report.py`` (writes ``BENCH_engine.json``), or under pytest
(``pytest benchmarks/bench_engine_micro.py``), where the smoke test gates
against regression on the two acceptance scenarios.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Callable, Dict, Tuple

# ---------------------------------------------------------------------------
# scenario bodies — parameterised by an engine module so the identical code
# runs against repro.simnet.engine and the legacy snapshot; each returns
# (units, run_wall_seconds) with setup excluded from the timed region
# ---------------------------------------------------------------------------


def channel_churn(
    engine, bursts: int = 14, burst: int = 8192, getters: int = 256
) -> Tuple[int, float]:
    """Deep bursty FIFO traffic, batch-draining consumer, parked-getter fleet."""
    sim = engine.Simulator()
    channel = engine.Channel(sim, name="churn")
    consumed = [0]

    def producer():
        for _ in range(bursts):
            for i in range(burst):
                channel.put(i)
            # one front re-queue per burst (the replay path)
            channel.put_front(-1)
            yield sim.timeout(10.0)

    def consumer():
        # receive-loop idiom: block for the first item of a burst, then
        # drain the backlog in a batch — the framework operates on queue
        # contents directly (§5.3), it does not pay a rendezvous per packet
        while True:
            yield channel.get()
            consumed[0] += 1
            while True:
                item = channel.try_get()
                if item is None:
                    break
                consumed[0] += 1

    # a fleet of parked getters on a second channel: the seed also popped
    # waiting getters with list.pop(0)
    fan = engine.Channel(sim, name="fan")

    def fan_worker():
        while True:
            yield fan.get()
            consumed[0] += 1

    def fan_feeder():
        for _ in range(bursts):
            for _ in range(getters):
                fan.put(0)
            yield sim.timeout(10.0)

    sim.process(producer())
    sim.process(consumer())
    for _ in range(getters):
        sim.process(fan_worker())
    sim.process(fan_feeder())
    start = time.perf_counter()
    sim.run(until=bursts * 10.0 + 1.0)
    wall = time.perf_counter() - start
    assert consumed[0] == bursts * (burst + 1) + bursts * getters
    return consumed[0], wall


def timer_storm(
    engine,
    background: int = 40_000,
    timers: int = 400,
    iters: int = 60,
    fanout: int = 8,
) -> Tuple[int, float]:
    """Zero-delay delivery fanouts racing a heap full of armed timers.

    ``background`` timers stay armed for the whole run (retransmit timers
    at high load); ``timers`` periodic timers each fire ``iters`` times,
    and every fire succeeds an event with ``fanout`` parked waiters, each
    of which runs one follow-up microtask (the ack/requeue hop).
    """
    sim = engine.Simulator()
    for b in range(background):
        sim.schedule(10_000.0 + b * 0.01, _noop)
    fired = [0]
    delivered = [0]

    def finish():
        delivered[0] += 1

    def deliver(event):
        sim.schedule(0.0, finish)

    total = timers * (iters - 1)

    def make_timer(delay):
        def fire():
            fired[0] += 1
            if fired[0] <= total:
                event = engine.Event(sim, name="fan")
                for _ in range(fanout):
                    event.add_callback(deliver)
                sim.schedule(0.0, event.succeed, None)
                sim.schedule(delay, fire)

        return fire

    for k in range(timers):
        delay = 1.0 + (k % 7) * 0.5
        sim.schedule(delay, make_timer(delay))
    start = time.perf_counter()
    sim.run(until=9_999.0)  # stop before the background fleet fires
    wall = time.perf_counter() - start
    assert fired[0] == total + timers
    return fired[0] + delivered[0], wall


def _noop() -> None:
    return None


def rpc_pingpong(engine, clients: int = 32, calls: int = 200) -> Tuple[int, float]:
    """Request/response rendezvous over a channel + per-call waiter event,
    with a 14us simulated RTT — the skeleton of every store access."""
    sim = engine.Simulator()
    requests = engine.Channel(sim, name="rpc-req")
    done = [0]

    def server():
        while True:
            payload, reply = yield requests.get()
            yield sim.timeout(14.0)  # service + return latency
            reply.succeed(payload)

    def client(k: int):
        for i in range(calls):
            reply = engine.Event(sim, name="reply")
            requests.put((i, reply))
            yield reply
            done[0] += 1

    sim.process(server())
    for k in range(clients):
        sim.process(client(k))
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    assert done[0] == clients * calls
    return done[0], wall


def chain_pipeline(
    engine, packets: int = 3000, flows: int = 50, fastpath: bool = False
) -> Tuple[int, float]:
    """The full CHC dataplane on the *installed* engine (new only): the
    4-NF all-declarative chain (firewall -> NAT -> rate limiter -> LB)
    with store, root, NICs and duplicate filters.

    ``fastpath`` toggles the batched match-action fast path (§6 /
    DESIGN.md §10); ``run_comparison`` records both modes and their ratio,
    which is the PR-6 acceptance metric. Flows use one source host each so
    egress is byte-identical between modes (a shared rate-limiter bucket
    would make the admit decision depend on cross-flow probe order, which
    batching legally reorders — see DESIGN.md §10.4)."""
    from repro.core.chain_runtime import ChainRuntime, RuntimeParams
    from repro.core.dag import LogicalChain
    from repro.nfs.firewall import Firewall
    from repro.nfs.load_balancer import LoadBalancer
    from repro.nfs.nat import Nat
    from repro.nfs.rate_limiter import RateLimiter
    from repro.traffic.packet import ACK, SYN, FiveTuple, Packet

    sim = engine.Simulator()
    chain = LogicalChain("bench")
    chain.add_vertex("firewall", Firewall, entry=True)
    chain.add_vertex("nat", Nat)
    chain.add_vertex("ratelimiter", RateLimiter)
    chain.add_vertex("lb", LoadBalancer)
    chain.add_edge("firewall", "nat")
    chain.add_edge("nat", "ratelimiter")
    chain.add_edge("ratelimiter", "lb")
    runtime = ChainRuntime(
        sim, chain, params=RuntimeParams(fastpath_enabled=fastpath)
    )
    started: set = set()

    def source():
        for i in range(packets):
            f = i % flows
            ft = FiveTuple(f"10.0.{f % 4}.{1 + f}", "52.0.0.1", 5000 + f, 80, 6)
            flags = ACK if f in started else SYN
            started.add(f)
            runtime.inject(Packet(ft, payload=f"p{i}", flags=flags))
            yield sim.timeout(0.8)

    sim.process(source())
    start = time.perf_counter()
    sim.run(until=10_000_000)
    wall = time.perf_counter() - start
    processed = runtime.egress_meter.packets
    assert processed == packets, f"egress {processed} != injected {packets}"
    # events_processed already counts microtasks (it is heap + microtask)
    return sim.events_processed, wall


SCENARIOS: Dict[str, Callable] = {
    "channel_churn": channel_churn,
    "timer_storm": timer_storm,
    "rpc_pingpong": rpc_pingpong,
}

SMOKE_KWARGS: Dict[str, Dict[str, int]] = {
    "channel_churn": dict(bursts=4, burst=1024, getters=32),
    "timer_storm": dict(background=4000, timers=60, iters=20, fanout=4),
    "rpc_pingpong": dict(clients=8, calls=40),
    "chain_pipeline": dict(packets=200),
}


def _load_legacy():
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "legacy_engine.py")
    spec = importlib.util.spec_from_file_location("legacy_engine", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compare(fn: Callable, legacy, new_engine, kwargs: Dict, repeats: int) -> Tuple[float, float, int]:
    """Interleave legacy/new runs; best-of-``repeats`` run-phase wall each.

    Interleaving (L,N,L,N,...) instead of timing one engine then the other
    keeps slow-machine noise from landing entirely on one side.
    """
    best_legacy = best_new = float("inf")
    units = 0
    for _ in range(repeats):
        units, wall = fn(legacy, **kwargs)
        if wall < best_legacy:
            best_legacy = wall
        units, wall = fn(new_engine, **kwargs)
        if wall < best_new:
            best_new = wall
    return best_legacy, best_new, units


def _scenario_row(name: str, smoke: bool, repeats: int) -> Dict[str, Any]:
    """One legacy-vs-new scenario row, self-contained for pool workers."""
    import repro.simnet.engine as new_engine

    legacy = _load_legacy()
    kwargs = SMOKE_KWARGS[name] if smoke else {}
    legacy_s, new_s, units = _compare(
        SCENARIOS[name], legacy, new_engine, kwargs, repeats
    )
    return {
        "units": units,
        "legacy_wall_s": round(legacy_s, 4),
        "new_wall_s": round(new_s, 4),
        "legacy_units_per_s": round(units / legacy_s),
        "new_units_per_s": round(units / new_s),
        "speedup": round(legacy_s / new_s, 2),
    }


def _chain_pipeline_row(smoke: bool, repeats: int) -> Dict[str, Any]:
    """Full pipeline: new engine only (ChainRuntime is built on it).

    Interleave fastpath-off/on repeats (same reasoning as _compare) and
    record both modes; the off/on wall ratio is the PR-6 acceptance
    metric and — being same-machine, same-run — is stable across hosts
    in a way raw wall seconds are not.
    """
    import repro.simnet.engine as new_engine

    kwargs = SMOKE_KWARGS["chain_pipeline"] if smoke else {}
    best_off = best_on = float("inf")
    events_off = events_on = 0
    for _ in range(repeats):
        events_off, wall = chain_pipeline(new_engine, fastpath=False, **kwargs)
        if wall < best_off:
            best_off = wall
        events_on, wall = chain_pipeline(new_engine, fastpath=True, **kwargs)
        if wall < best_on:
            best_on = wall
    return {
        "engine_events": events_off,
        "new_wall_s": round(best_off, 4),
        "events_per_s": round(events_off / best_off),
        "fastpath": {
            "engine_events": events_on,
            "wall_s": round(best_on, 4),
            "events_per_s": round(events_on / best_on),
            "event_ratio": round(events_off / events_on, 2),
        },
        "speedup": round(best_off / best_on, 2),
    }


def comparison_work(item: Dict[str, Any]) -> Tuple[str, Dict[str, Any]]:
    """Pool work function: one scenario's full measurement.

    Each scenario's legacy/new (or off/on) repeats stay interleaved
    inside ONE worker, so the recorded ratios remain same-process
    comparisons even when scenarios fan out across cores. Raw wall
    seconds do pick up cross-worker scheduling noise under ``--jobs >
    1`` — use parallel mode for sweep breadth, serial for headline
    numbers (see ``tools/perf_report.py --jobs``).
    """
    name = item["name"]
    if name == "chain_pipeline":
        return (name, _chain_pipeline_row(item["smoke"], item["repeats"]))
    return (name, _scenario_row(name, item["smoke"], item["repeats"]))


def run_comparison(
    smoke: bool = False, repeats: int = 5, jobs: Any = 1
) -> Dict[str, Any]:
    """Run every scenario on both engines; returns the BENCH_engine payload.

    ``jobs > 1`` fans the scenarios across processes via
    :class:`repro.parallel.CampaignPool`; rows merge in the fixed
    scenario order, so the payload layout is identical either way.
    """
    names = list(SCENARIOS) + ["chain_pipeline"]
    items = [{"name": name, "smoke": smoke, "repeats": repeats} for name in names]
    from repro.parallel import CampaignPool

    pool = CampaignPool(jobs=jobs)
    pooled = pool.map(comparison_work, items)
    if pooled.infra_failures:
        details = "; ".join(f.detail for f in pooled.infra_failures)
        raise RuntimeError(f"benchmark worker(s) failed: {details}")
    results: Dict[str, Any] = {"scenarios": {}}
    for name, row in pooled.values():  # submission order == `names` order
        results["scenarios"][name] = row
    return results


# ---------------------------------------------------------------------------
# pytest entry points (smoke sizes so CI stays fast)
# ---------------------------------------------------------------------------


def test_engine_micro_smoke():
    """CI gate: the overhaul must beat the seed engine on the two scenarios
    named in the acceptance criteria, at any scale."""
    results = run_comparison(smoke=True, repeats=3)
    churn = results["scenarios"]["channel_churn"]["speedup"]
    storm = results["scenarios"]["timer_storm"]["speedup"]
    # smoke sizes keep queues and the heap shallow, which understates the
    # win; the full-size run recorded in BENCH_engine.json shows the >=2x
    # acceptance ratios.
    assert churn > 1.0, f"channel churn regressed vs seed engine ({churn}x)"
    assert storm > 1.0, f"timer storm regressed vs seed engine ({storm}x)"
    # the engine-event ratio is deterministic (no wall-clock noise), so it
    # can be gated even at smoke sizes: the fast path must strictly reduce
    # simulator work on the declarative chain.
    pipeline = results["scenarios"]["chain_pipeline"]
    ratio = pipeline["fastpath"]["event_ratio"]
    assert ratio > 1.5, f"fast path event reduction regressed ({ratio}x)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (CI)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--jobs",
        default="1",
        help="worker processes ('auto' = cpu count); >1 trades wall-second "
        "fidelity for sweep wall-clock — ratios stay same-process",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    results = run_comparison(smoke=args.smoke, repeats=args.repeats, jobs=args.jobs)
    json.dump(results, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
