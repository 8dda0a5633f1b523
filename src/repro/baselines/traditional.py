"""Traditional NFs: all state NF-local, no framework (§7.1's "T").

The harness mirrors :class:`~repro.core.instance.NFInstance`'s thread
model (input NIC, flow-sharded workers, per-packet CPU cost) but serves
every state access from an in-process :class:`LocalStateAPI` at zero
simulated latency — the performance ceiling CHC is compared against, and
also the vulnerable configuration: a crash loses everything (exercised by
the R1/R6 comparisons).
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

from repro.core.nf_api import LocalStateAPI, NetworkFunction
from repro.simnet.engine import Channel, Process, Simulator
from repro.simnet.monitor import LatencyRecorder, ThroughputMeter
from repro.simnet.network import HOP_LINK_US
from repro.simnet.nic import NIC_OVERHEAD_BITS, NIC_RATE_GBPS, Nic
from repro.traffic.packet import Packet
from repro.util import stable_hash


class TraditionalNFHarness:
    """One standalone NF instance with local state."""

    def __init__(
        self,
        sim: Simulator,
        nf: NetworkFunction,
        name: str = "traditional",
        n_workers: int = 8,
        proc_time_us: float = 2.0,
        extra_delay: Optional[Callable[[], float]] = None,
        deliver: Optional[Callable[[Packet], None]] = None,
    ):
        self.sim = sim
        self.nf = nf
        self.name = name
        self.n_workers = n_workers
        self.proc_time_us = proc_time_us
        self.extra_delay = extra_delay
        self.deliver = deliver
        self.state = LocalStateAPI()
        for op_name, op_fn in nf.custom_operations().items():
            self.state.registry.register(op_name, op_fn, allow_replace=True)

        self.recorder = LatencyRecorder(name=name)
        self.sojourn = LatencyRecorder(name=f"{name}-sojourn")
        self.throughput = ThroughputMeter(name=name)
        self.processed = 0
        self._clock = 0  # stand-in clock so NFs relying on packet.clock work
        self._alive = True

        self._worker_queues = [
            Channel(sim, name=f"{name}-w{i}") for i in range(n_workers)
        ]
        self._processes: List[Process] = [
            sim.process(self._worker_loop(q), name=f"{name}-w{i}")
            for i, q in enumerate(self._worker_queues)
        ]
        self.nic = Nic(
            sim,
            NIC_RATE_GBPS,
            deliver=self._dispatch,
            name=f"{name}-nic",
            per_packet_overhead_bits=NIC_OVERHEAD_BITS,
        )

    @property
    def queue_depth(self) -> int:
        return sum(len(q) for q in self._worker_queues)

    def fail(self) -> None:
        """Fail-stop: with a traditional NF, all state is simply gone."""
        if not self._alive:
            return
        self._alive = False
        for process in self._processes:
            process.kill()
        self.nic.fail()
        self.state.data.clear()

    def inject(self, packet: Packet) -> None:
        """Offer a packet to the NF's input NIC."""
        if packet.ingress_time == 0.0:
            packet.ingress_time = self.sim.now
        self.nic.send(packet, packet.size_bits)

    def _dispatch(self, packet: Packet) -> None:
        packet.queued_at = self.sim.now
        shard = stable_hash(packet.five_tuple.canonical().key()) % self.n_workers
        if packet.clock == 0:
            self._clock += 1
            packet.clock = self._clock
        self._worker_queues[shard].put(packet)

    def _worker_loop(self, queue: Channel) -> Generator:
        while self._alive:
            packet: Packet = yield queue.get()
            yield from self._process_packet(packet)

    def _process_packet(self, packet: Packet) -> Generator:
        start = self.sim.now
        delay = self.proc_time_us
        if self.extra_delay is not None:
            delay += self.extra_delay()
        yield self.sim.timeout(delay)
        outputs = yield from self.nf.process(packet, self.state)
        if not self._alive:
            return
        self.recorder.record(self.sim.now - start, timestamp=self.sim.now)
        if packet.queued_at:
            self.sojourn.record(self.sim.now - packet.queued_at, timestamp=self.sim.now)
        self.throughput.add(packet.size_bits, self.sim.now)
        self.processed += 1
        if self.deliver is not None:
            for output in outputs or []:
                self.deliver(output.packet)


class TraditionalChain:
    """Several traditional NFs wired in sequence (for the §7.1 chain
    overhead comparison): packet hops cost ``HOP_LINK_US`` each, exactly
    as in the CHC runtime, so the measured difference is pure state
    management overhead."""

    def __init__(self, sim: Simulator, nfs: List[NetworkFunction]):
        self.sim = sim
        self.egress_recorder = LatencyRecorder(name="traditional-chain")
        self.egress_meter = ThroughputMeter(name="traditional-chain")
        self.stages = [
            TraditionalNFHarness(sim, nf, name=f"t{index}-{nf.name}")
            for index, nf in enumerate(nfs)
        ]
        for index, stage in enumerate(self.stages):
            if index + 1 < len(self.stages):
                nxt = self.stages[index + 1]
                stage.deliver = self._make_hop(nxt)
            else:
                stage.deliver = self._to_egress

    def _make_hop(self, nxt: TraditionalNFHarness):
        def hop(packet: Packet) -> None:
            self.sim.schedule(HOP_LINK_US, nxt.nic.send, packet, packet.size_bits)

        return hop

    def _to_egress(self, packet: Packet) -> None:
        self.egress_recorder.record(
            self.sim.now - packet.ingress_time, timestamp=self.sim.now
        )
        self.egress_meter.add(packet.size_bits, self.sim.now)

    def inject(self, packet: Packet) -> None:
        packet.ingress_time = self.sim.now
        self.sim.schedule(
            HOP_LINK_US, self.stages[0].nic.send, packet, packet.size_bits
        )
