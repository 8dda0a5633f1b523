"""Replay-storm throttling (PR-6 satellite).

Recovery replay used to ride the NIC ``never_drop`` exemption: every
replayed copy was force-enqueued past the ring bound, so a
correlated-failure replay burst could grow entry rings without limit and
starve live traffic. Now bulk replayed traffic flows through the same
bounded queues as live packets — the root parks between copies until the
entry ring has space (``Root.replay`` + ``ChainRuntime._entry_hop_wait``)
— and only genuine control items (markers, the replay-end barrier) keep
the exemption.
"""

from repro.core.chain_runtime import ChainRuntime, RuntimeParams, _is_control_item
from repro.core.dag import LogicalChain
from repro.simnet.engine import Simulator
from tests.conftest import make_packet
from tests.test_cloning import SinkCounterNF, SlowCounterNF

RING = 4


def build(sim, **overrides):
    chain = LogicalChain("storm")
    chain.add_vertex("slow", SlowCounterNF, entry=True)
    chain.add_vertex("sink", SinkCounterNF)
    chain.add_edge("slow", "sink")
    params = RuntimeParams(nic_queue_limit=RING, **overrides)
    return ChainRuntime(sim, chain, params=params)


class TestNeverDropPredicate:
    def test_bulk_replayed_packets_are_droppable(self):
        packet = make_packet(replayed=True)
        assert not _is_control_item(packet)

    def test_replay_end_barrier_keeps_exemption(self):
        packet = make_packet(replayed=True, replay_end=True)
        assert _is_control_item(packet)

    def test_handover_markers_keep_exemption(self):
        assert _is_control_item(make_packet(mark_first=True))


class TestReplayStormThrottle:
    N = 40

    def _storm(self, pace_us=0.0):
        """Replay a 40-entry log at full blast (the correlated-failure
        shape: the whole window replays at once, far faster than the
        chain drains)."""
        sim = Simulator()
        runtime = build(sim)
        root = runtime.roots[0]
        snapshot = {}
        for index in range(self.N):
            clock = root.clock.next()
            snapshot[f"log\x1f{clock}"] = make_packet(
                sport=1000 + index, clock=clock
            )
        assert root.restore_log(snapshot) == self.N

        replayed = {}

        def storm():
            replayed["clocks"] = yield from root.replay(
                "slow-0", pace_us=pace_us, mark_end=False
            )

        sim.process(storm())
        sim.run(until=30_000_000)
        return runtime, root, replayed

    def test_entry_ring_stays_bounded_during_storm(self):
        runtime, root, replayed = self._storm()
        assert replayed["clocks"], "storm replayed nothing — harness broken"
        assert root.stats.replayed == len(replayed["clocks"])
        # the regression this guards: force-puts pushed the ring far past
        # its bound; with throttling the peak respects the configured limit
        # (+1 headroom for a copy admitted while the drain is mid-packet)
        peak = runtime.instances["slow-0"].nic.txq_depth_peak
        assert peak <= RING + 1, f"entry ring peak {peak} > bound {RING}"

    def test_throttled_storm_loses_nothing(self):
        runtime, root, replayed = self._storm()
        # throttled replay waits for space instead of dropping: every
        # replayed copy is admitted and makes it through the chain
        assert runtime.instances["slow-0"].nic.drops == 0
        assert runtime.egress_meter.packets == self.N

    def test_storm_respects_pacing_and_bound_together(self):
        runtime, root, replayed = self._storm(pace_us=0.2)
        assert replayed["clocks"]
        assert runtime.instances["slow-0"].nic.txq_depth_peak <= RING + 1
