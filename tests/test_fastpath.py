"""Batched, fused match-action fast path (DESIGN.md §10).

The headline property is the equivalence contract: for workloads whose
per-flow decisions do not depend on cross-flow interleaving, a seeded run
with batching ON produces byte-identical per-flow egress (content and
order) and identical per-flow state values as the same seed with batching
OFF — including across a mid-run handover and an NF crash + failover.
Allocation bindings (NAT ports, LB backend picks) are compared by *key*
only: which free port a flow draws depends on cross-flow allocation
order, which batching legally reserializes (§10.4).

Unit tests pin the mechanism underneath: the chain compiler's fusion
plan, ShadowState's local-serve/decline rules, eligibility gating, and
the speculative-journal discipline (a declined run-ahead leaves zero
visible side effects).
"""

import dataclasses
import json
import os

import pytest

from repro.analysis.determinism import (
    _declarative_chain,
    engine_counters_of,
    flow_egress_digest,
    observable_digest,
    per_flow_state,
    run_equivalence_once,
    seeded_workload,
)
from repro.core.chain_runtime import ChainRuntime, RuntimeParams
from repro.core.dag import LogicalChain
from repro.core.fastpath import FastPathExecutor, ShadowState, run_ahead
from repro.core.nf_api import NetworkFunction, NotFast, Output
from repro.simnet.engine import Simulator
from repro.store.spec import AccessPattern, Scope, StateObjectSpec
from repro.traffic.packet import ACK, RST, SYN, FiveTuple, Packet
from tests.conftest import make_packet

SEEDS = (11, 23)


def flow_tuple(f):
    """The same five-tuple construction as ``seeded_workload``."""
    return FiveTuple(f"10.0.{f % 4}.{1 + f}", f"52.0.0.{1 + (f % 5)}", 5000 + f, 80, 6)


def assert_equivalent(off, on, require_fast=True):
    # no worker, store thread or root loop died behind the digests' back
    assert off.sim.crashed == [] and on.sim.crashed == []
    assert flow_egress_digest(off) == flow_egress_digest(on)
    assert per_flow_state(off) == per_flow_state(on)
    if require_fast:
        fast = sum(
            i._fastpath.stats_fast
            for i in on.instances.values()
            if i._fastpath is not None
        )
        assert fast > 0, "batched run never took the fast path — vacuous"


class TestEquivalence:
    def test_batching_on_off_equivalence(self):
        # (seed, packets, flows): SEEDS at 300 x 10, and seeds 0 and 1 at
        # run_equivalence_once's default 400 x 12
        cases = [(seed, 300, 10) for seed in SEEDS] + [(0, 400, 12), (1, 400, 12)]
        for seed, packets, flows in cases:
            off = run_equivalence_once(seed, False, packets=packets, flows=flows)
            on = run_equivalence_once(seed, True, packets=packets, flows=flows)
            assert_equivalent(off, on)

    def test_equivalence_with_mid_batch_handover(self):
        """A Figure-4 move lands mid-run: the mark_last barrier must fence
        every queued packet in the batched worker loops too."""
        from repro.core.handover import move_flows

        def fault(sim, runtime):
            runtime.add_instance("nat", suffix="1")

            def mover():
                yield sim.timeout(100.0)
                splitter = runtime.splitter("nat")
                keys = []
                for f in range(10):
                    key = splitter.key_of(Packet(flow_tuple(f)))
                    if (
                        splitter.current_instance_for(key) == "nat-0"
                        and key not in keys
                    ):
                        keys.append(key)
                assert keys, "no flows on nat-0 — fault harness broken"
                yield from move_flows(runtime, "nat", keys[:4], "nat-1")

            sim.process(mover())

        for seed in SEEDS:
            off = run_equivalence_once(seed, False, packets=300, flows=10, fault=fault)
            on = run_equivalence_once(seed, True, packets=300, flows=10, fault=fault)
            assert_equivalent(off, on)

    def test_equivalence_with_nf_failure(self):
        """Crash + failover of a declarative NF mid-run: recovery replay
        (throttled through bounded queues) must converge both modes to the
        same per-flow egress and state."""
        from repro.core.recovery import fail_over_nf

        def fault(sim, runtime):
            def crasher():
                yield sim.timeout(150.0)
                runtime.instances["ratelimiter-0"].fail()
                yield from fail_over_nf(runtime, "ratelimiter-0")

            sim.process(crasher())

        for seed in SEEDS:
            off = run_equivalence_once(seed, False, packets=300, flows=10, fault=fault)
            on = run_equivalence_once(seed, True, packets=300, flows=10, fault=fault)
            assert_equivalent(off, on)

    def test_batch_size_one_degenerates_cleanly(self):
        off = run_equivalence_once(7, False, packets=150, flows=6)
        on = run_equivalence_once(7, True, packets=150, flows=6, batch=1)
        assert_equivalent(off, on)


def branch_workload():
    """``(inject time in µs, packet)`` for the branches ``seeded_workload``
    never reaches. One host per flow (the rate limiter's bucket is per
    host) and the three flows that compete for the NAT's two ports start
    200 µs apart, so injection order fixes who gets them (§10.4)."""
    flows = {
        # SYN-led, an RST in the middle, and over the limiter's 6 per window
        "limited": (0.0, "10.0.1.1", [SYN, ACK, ACK, RST | ACK] + [ACK] * 8),
        # a source no firewall rule allows
        "denied": (100.0, "192.168.9.9", [SYN, ACK, ACK, ACK]),
        # never sends a SYN: takes the second port, unbound at the LB
        "midflow": (200.0, "10.0.2.1", [ACK] * 4),
        # both ports are gone by now
        "portless": (400.0, "10.0.3.1", [SYN, ACK, ACK]),
    }
    timed = []
    for index, (name, (start, host, flags)) in enumerate(sorted(flows.items())):
        five_tuple = FiveTuple(host, "52.0.0.1", 6000 + index, 80, 6)
        for seq, flag in enumerate(flags):
            packet = Packet(five_tuple, flags=flag, payload=f"{name}-{seq}")
            timed.append((start + 30.0 * seq, packet))
    return sorted(timed, key=lambda item: item[0])


def run_branches(fastpath):
    from repro.nfs import Nat, RateLimiter

    sim = Simulator()
    chain = _declarative_chain()
    chain.vertices["nat"].nf_factory = lambda: Nat(port_range=(40_000, 40_002))
    chain.vertices["ratelimiter"].nf_factory = lambda: RateLimiter(limit=6, window=10_000)
    runtime = ChainRuntime(sim, chain, params=RuntimeParams(fastpath_enabled=fastpath))
    for when, packet in branch_workload():
        sim.schedule(when, runtime.inject, packet)
    sim.run(until=1_000_000.0)
    return runtime


class TestDroppingBranches:
    def test_equivalence_where_the_body_drops(self, monkeypatch):
        """Deny, rate-limit drop, port exhaustion, RST and an unbound
        mid-flow packet: same egress, state, drop counts and root log with
        the fast path off and on — and the fast path really took them."""
        fast = set()
        original = FastPathExecutor.execute

        def spying(self, packet):
            outputs = original(self, packet)
            if outputs is not None:
                fast.add((self.instance.vertex_name, packet.payload, len(outputs)))
            return outputs

        monkeypatch.setattr(FastPathExecutor, "execute", spying)
        off, on = run_branches(False), run_branches(True)
        assert_equivalent(off, on)
        # 4 denied, 3 without a port, 12 - 6 over the limit, none at the LB
        drops = {"firewall-0": 4, "nat-0": 3, "ratelimiter-0": 6, "lb-0": 0}
        for runtime in (off, on):
            assert {
                instance_id: instance.stats.dropped
                for instance_id, instance in runtime.instances.items()
            } == drops
            assert sum(root.stats.deleted for root in runtime.roots) == 23
            assert all(len(root.log) == 0 for root in runtime.roots)
            assert len(runtime.egress._items) == 23 - sum(drops.values())
        # each branch ran ahead at least once (the first packet of a flow
        # is cold and declines; payloads name the flow and its sequence)
        assert ("firewall", "denied-3", 0) in fast
        assert ("nat", "portless-2", 0) in fast
        assert ("ratelimiter", "limited-11", 0) in fast
        assert ("lb", "limited-3", 1) in fast  # the RST
        assert ("lb", "midflow-3", 1) in fast  # no SYN ever bound it


class TestCompiler:
    def _runtime(self, fastpath=True):
        sim = Simulator()
        runtime = ChainRuntime(
            sim,
            _declarative_chain(),
            params=RuntimeParams(fastpath_enabled=fastpath),
        )
        return sim, runtime

    def test_fusion_plan_covers_declarative_run(self):
        _, runtime = self._runtime()
        with_executor = sorted(
            i.vertex_name for i in runtime.instances.values() if i._fastpath is not None
        )
        assert with_executor == ["firewall", "lb", "nat", "ratelimiter"]
        run = ["firewall"]
        while runtime.fusion_successor(run[-1], "out") is not None:
            run.append(runtime.fusion_successor(run[-1], "out"))
        assert run == ["firewall", "nat", "ratelimiter", "lb"]

    def test_non_declarative_nf_gets_no_executor(self):
        from repro.nfs import Dpi, Ids, Nat, PortscanDetector, Scrubber, TrojanDetector

        for imperative in (Dpi, Ids, PortscanDetector, Scrubber, TrojanDetector):
            sim = Simulator()
            chain = LogicalChain("mixed")
            chain.add_vertex("nat", Nat, entry=True)
            chain.add_vertex("other", imperative)
            chain.add_edge("nat", "other")
            runtime = ChainRuntime(sim, chain, params=RuntimeParams(fastpath_enabled=True))
            assert runtime.instances["nat-0"]._fastpath is not None
            assert runtime.instances["other-0"]._fastpath is None
            # so the one fusable hop leads to an instance that cannot run
            # ahead: no fused run (a single declarative vertex)
            assert runtime.fusion_successor("nat", "out") == "other"

    def test_exactly_four_nfs_opt_in(self):
        import repro.nfs

        nfs = [
            cls
            for cls in map(repro.nfs.__dict__.get, repro.nfs.__all__)
            if issubclass(cls, NetworkFunction)
        ]
        assert len(nfs) == 9
        assert sorted(cls.__name__ for cls in nfs if cls.speculative) == [
            "Firewall", "LoadBalancer", "Nat", "RateLimiter",
        ]

    def test_fastpath_disabled_installs_nothing(self):
        _, runtime = self._runtime(fastpath=False)
        assert all(i._fastpath is None for i in runtime.instances.values())


def _drive(gen):
    """Run a state-access generator that must not yield (PR 6's helper)."""
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("a local state access yielded to the engine")


class Decliner(NetworkFunction):
    """A warm read and one journalled update, then a step only the general
    path can take — so every run-ahead is declined with work to discard."""

    speculative = True

    def __init__(self, sim):
        self.sim = sim

    def state_specs(self):
        return {
            "mark": StateObjectSpec(
                "mark", Scope.PER_FLOW, AccessPattern.READ_HEAVY, initial_value=False
            )
        }

    def process(self, packet, state):
        flow = packet.five_tuple.canonical().key()
        yield from state.read("mark", flow)
        yield from state.update("mark", flow, "set", True)
        yield from self.general_only(state)
        return [Output(packet)]


class YieldsToEngine(Decliner):
    name = "yielder"

    def general_only(self, state):
        yield self.sim.timeout(1.0)


class DrawsNondet(Decliner):
    name = "drawer"

    def general_only(self, state):
        yield from state.nondet("coin")


def decliner_runtime(nf_class, fastpath):
    sim = Simulator()
    chain = LogicalChain("decliner")
    chain.add_vertex("nf", lambda: nf_class(sim), entry=True)
    return ChainRuntime(sim, chain, params=RuntimeParams(fastpath_enabled=fastpath))


class TestShadowState:
    def _client(self):
        _, runtime = TestCompiler()._runtime()
        return runtime.instances["firewall-0"].client

    def test_shadow_is_a_state_api(self):
        """Same three signatures as every other adapter (mypy gates the
        module in CI; this is the part that runs offline)."""
        import inspect

        from repro.core.nf_api import StateAPI

        assert issubclass(ShadowState, StateAPI)
        for name in ("read", "update", "nondet"):
            assert inspect.signature(getattr(ShadowState, name)) == inspect.signature(
                getattr(StateAPI, name)
            )
            assert inspect.isgeneratorfunction(getattr(ShadowState, name))

    def test_unknown_object_declines(self):
        shadow = ShadowState(self._client())
        with pytest.raises(NotFast):
            _drive(shadow.read("nonexistent", None))

    def test_cold_per_flow_read_declines(self):
        shadow = ShadowState(self._client())
        with pytest.raises(NotFast):
            _drive(shadow.read("conn_allowed", ("10.0.0.9", "52.0.0.1", 9, 80, 6)))

    def test_overwrite_op_applies_on_cold_cache(self):
        client = self._client()
        shadow = ShadowState(client)
        flow = ("10.0.0.9", "52.0.0.1", 9, 80, 6)
        _drive(shadow.update("conn_allowed", flow, "set", True))
        assert _drive(shadow.read("conn_allowed", flow)) is True
        assert len(shadow.journal) == 1
        # speculative: nothing reached the client cache or the wire
        storage_key = client._key("conn_allowed", flow)
        assert storage_key not in client._cache

    def test_declined_action_leaves_no_side_effects(self):
        """A body that journals an update and then really yields, and one
        that draws a nondet value, are declined with zero residue — and
        complete on the general path exactly as with the fast path off."""

        def residue(instance, packet):
            return {
                **client_surface(instance.client, packet),
                "readheavy_cache": dict(instance.client._readheavy_cache),
                "seen_clocks": set(instance._seen_clocks),
                "instance_stats": dataclasses.asdict(instance.stats),
            }

        for nf_class in (YieldsToEngine, DrawsNondet):
            instance = decliner_runtime(nf_class, True).instances["nf-0"]
            executor, client = instance._fastpath, instance.client
            packet = Packet(flow_tuple(1), flags=ACK)
            packet.clock = (1 << 56) | 9001
            flow = packet.five_tuple.canonical().key()
            client._cache[client._key("mark", flow)] = False  # the read hits
            client.batch_begin()  # as the worker loop does before executing
            before = residue(instance, packet)
            # a cache hit, a speculative write, then the decline: the general
            # path re-runs the packet and counts that read itself
            assert executor.eligible(packet)
            assert executor.execute(packet) is None
            assert (executor.stats_fast, executor.stats_fallback) == (0, 1)
            assert residue(instance, packet) == before

            def run(fastpath):
                runtime = decliner_runtime(nf_class, fastpath)
                for injected in seeded_workload(3, 60, 4):
                    runtime.inject(injected)
                runtime.sim.run(until=1_000_000.0)
                return runtime

            off, on = run(False), run(True)
            assert_equivalent(off, on, require_fast=False)
            assert len(on.egress._items) == 60
            executor = on.instances["nf-0"]._fastpath
            assert (executor.stats_fast, executor.stats_fallback) == (0, 60)
            assert on.instances["nf-0"].client.stats == off.instances["nf-0"].client.stats


class RecordingShadow(ShadowState):
    """A ShadowState that also keeps the journal in its pre-commit form —
    ``(obj_name, flow_key, op, args, need_result)`` per update, counting
    cache hits as it goes — which is what the replay below consumes."""

    __slots__ = ("calls",)

    def __init__(self, client):
        super().__init__(client)
        self.calls = []

    def update(self, obj_name, flow_key, op, *args, need_result=False):
        value = yield from super().update(
            obj_name, flow_key, op, *args, need_result=need_result
        )
        local = self.journal[-1][-1]
        self.calls.append((obj_name, flow_key, op, args, need_result and local))
        return value


def replay_through_update(client, packet, shadow):
    """The parent commit's ``FastPathExecutor.execute`` body, verbatim:
    the reference :meth:`StoreClient.commit` must be indistinguishable from."""
    client.stats.cached_reads += shadow.cached_reads  # was bumped inside get()
    ctx = client.make_context(packet)
    for obj_name, flow_key, op, args, need_result in shadow.calls:
        _drive(
            client.update(obj_name, flow_key, op, *args, need_result=need_result, ctx=ctx)
        )


def client_surface(client, packet):
    """Everything a commit may touch, in comparable form."""
    return {
        "cache": dict(client._cache),
        "owned": dict(client._owned),
        "wal": list(client.wal.updates),
        "batch": [dataclasses.asdict(request) for request in client._batch],
        "stats": dataclasses.asdict(client.stats),
        "bitvector": packet.bitvector,
        "pending_acks": len(client._pending_acks),
    }


def new_flow(instance, flow, seed_obj=None):
    """A SYN of a flow the instance never saw. ``seed_obj``: the general
    path's read-through already cached that object's (empty) initial value
    for the flow — the state in which the NF's action writes it."""
    packet = Packet(flow_tuple(flow), flags=SYN, payload=f"f{flow}-0")
    if seed_obj is not None:
        client = instance.client
        client._cache[client._key(seed_obj, instance.nf.flow_key(packet))] = None
    return packet


def warm_flow(instance, obj_name):
    """An ACK addressed to the first key of ``obj_name`` the instance holds
    warm (downstream NFs see NAT-translated headers, so the packet is rebuilt
    from the key rather than from the injected five-tuple)."""
    from repro.store.keys import parse_storage_key

    parts = next(
        parse_storage_key(key)
        for key in sorted(instance.client._cache)
        if parse_storage_key(key)[1] == obj_name
    )[2].split("|")
    if len(parts) == 1:  # keyed by source host
        parts = [parts[0], "52.0.0.1", "5000", "80", "6"]
    src, dst, sport, dport, proto = parts
    return Packet(FiveTuple(src, dst, int(sport), int(dport), int(proto)), flags=ACK)


COMMIT_CASES = {
    # set + first-write claim on a key the read-through seeded empty
    "firewall-syn": ("firewall-0", lambda i: new_flow(i, 50, "conn_allowed")),
    # warm port_map read + the two NON_BLOCKING counters
    "nat-warm": ("nat-0", lambda i: warm_flow(i, "port_map")),
    # need_result pop (split-aware, exclusive) + "set" on a COLD key
    "nat-syn-cold-set": ("nat-0", lambda i: new_flow(i, 51)),
    # need_result rate_probe on a warm shared bucket
    "ratelimiter-warm": ("ratelimiter-0", lambda i: warm_flow(i, "bucket")),
    # warm conn_map read + NON_BLOCKING byte counter
    "lb-warm": ("lb-0", lambda i: warm_flow(i, "conn_map")),
    # need_result pick_least_loaded + set + claim
    "lb-syn": ("lb-0", lambda i: new_flow(i, 52, "conn_map")),
}


def via_commit(client, packet, shadow):
    client.commit(packet, shadow.journal, shadow.cached_reads)


class TestCommitIsTheOldReplay:
    """``StoreClient.commit`` applied to a resolved journal leaves the
    client exactly where replaying the journal through ``update()`` did."""

    def _warm_instance(self, instance_id):
        """An instance of the declarative chain after 120 packets on the
        *general* path (so nothing under test produced the warm state)."""
        sim = Simulator()
        runtime = ChainRuntime(
            sim, _declarative_chain(), params=RuntimeParams(fastpath_enabled=False)
        )
        for packet in seeded_workload(3, 120, 6):
            runtime.inject(packet)
        sim.run(until=1_000_000.0)
        assert sim.crashed == []
        return runtime.instances[instance_id]

    def _run(self, instance_id, make_packet, apply, script=None):
        instance = self._warm_instance(instance_id)
        client = instance.client
        packet = make_packet(instance)
        packet.clock = (1 << 56) | 9001  # root 1's clock space, like a live packet
        client.batch_begin()
        shadow = RecordingShadow(client)
        if script is None:
            # the executor's own helper, over the NF's one body
            assert run_ahead(instance.nf, packet, shadow) is not None
        else:
            script(shadow)
        assert shadow.journal, "vacuous: nothing to commit"
        apply(client, packet, shadow)
        return client_surface(client, packet), shadow

    def _assert_same(self, instance_id, make_packet, script=None):
        reference, ref_shadow = self._run(
            instance_id, make_packet, replay_through_update, script
        )
        committed, shadow = self._run(instance_id, make_packet, via_commit, script)
        assert ref_shadow.calls == shadow.calls
        assert len(committed["batch"]) == len(shadow.journal)
        # the fields the store and the root act on, one by one — then
        # everything (asdict covers every OpRequest field)
        for ours, theirs in zip(committed["batch"], reference["batch"]):
            for name in ("seq", "vector_tag", "claim_owner", "log_update", "blocking"):
                assert ours[name] == theirs[name], name
        assert committed == reference
        return committed, shadow

    @pytest.mark.parametrize("case", sorted(COMMIT_CASES))
    def test_same_client_state_as_the_replay(self, case):
        instance_id, make_packet = COMMIT_CASES[case]
        self._assert_same(instance_id, make_packet)

    def test_need_result_pop_lands_in_the_cold_set(self):
        """The NAT's SYN path consumes the popped port: the value the
        shadow handed the body is what the committed entries hold."""
        committed, shadow = self._assert_same(*COMMIT_CASES["nat-syn-cold-set"])
        by_obj = {entry[0].name: entry for entry in shadow.journal}
        assert by_obj["available_ports"][3] == "nat_pop_port"
        port_map = by_obj["port_map"]
        assert port_map[3] == "set" and port_map[5] == committed["cache"][port_map[2]]
        popped = port_map[5][1]
        assert popped not in committed["cache"][by_obj["available_ports"][2]]
        claimed = [r["key"] for r in committed["batch"] if r["claim_owner"]]
        assert claimed == [port_map[2]]  # first write of the per-flow key only

    def test_overwrite_on_a_cold_key(self):
        """No body of the four NFs reaches a cold ``set`` without a read
        first except the NAT's; the shadow allows it for any per-flow key."""
        cold = ("10.9.9.9", "52.0.0.1", 9, 80, 6)
        committed, shadow = self._assert_same(
            "firewall-0",
            lambda i: new_flow(i, 60),
            script=lambda shadow: _drive(
                shadow.update("conn_allowed", cold, "set", True)
            ),
        )
        storage_key = shadow.journal[0][2]
        assert committed["cache"][storage_key] is True
        assert committed["owned"][storage_key] == ("conn_allowed", cold)

    def test_two_updates_of_one_key_in_one_packet(self):
        flow = ("10.9.9.9", "52.0.0.1", 9, 80, 6)

        def script(shadow):
            _drive(shadow.update("conn_allowed", flow, "set", False))
            _drive(shadow.update("conn_allowed", flow, "set", True))

        committed, shadow = self._assert_same(
            "firewall-0", lambda i: new_flow(i, 61), script=script
        )
        assert [r["seq"] for r in committed["batch"]] == [0, 1]
        assert [r["claim_owner"] for r in committed["batch"]] == [True, False]
        assert committed["cache"][shadow.journal[0][2]] is True  # the final value


class TestEligibility:
    def _executor(self):
        _, runtime = TestCompiler()._runtime()
        return runtime.instances["firewall-0"]._fastpath

    def test_plain_packet_is_eligible(self):
        assert self._executor().eligible(make_packet())

    def test_control_and_recovery_traffic_declines(self):
        executor = self._executor()
        assert not executor.eligible(make_packet(replayed=True))
        assert not executor.eligible(make_packet(mark_first=True))
        assert not executor.eligible(make_packet(mark_last=True))
        assert not executor.eligible(make_packet(replay_target="firewall-1"))
        marked = make_packet()
        marked.control = object()
        assert not executor.eligible(marked)


class TestBatchedTransport:
    def test_fast_run_uses_batched_rpcs_and_fused_dispatch(self):
        on = run_equivalence_once(5, True, packets=300, flows=10)
        instances = [i for i in on.instances.values() if i._fastpath is not None]
        assert sum(i._fastpath.stats_fast for i in instances) > 0
        assert sum(i._fastpath.stats_fused_in for i in instances) > 0
        # the entry NF's client actually coalesced flushes into batches
        entry_client = on.instances["firewall-0"].client
        assert entry_client.stats_batches_sent > 0

    def test_commit_after_a_sibling_worker_closed_the_batch(self, monkeypatch):
        """Eight workers share one client: whenever one parks in ``emit`` a
        sibling may flush the batch they share, and the parked worker's next
        commit finds it closed. Those ops are sent on their own — the run
        still deletes every packet and matches the general path."""
        from repro.store.client import StoreClient

        closed = []
        original = StoreClient.commit

        def spying(self, packet, journal, cached_reads):
            if journal and self._batch is None:
                closed.append(self.instance_id)
            return original(self, packet, journal, cached_reads)

        monkeypatch.setattr(StoreClient, "commit", spying)
        on = run_equivalence_once(5, True, packets=2000, flows=24)
        assert closed, "no commit ever met a closed batch — vacuous"
        off = run_equivalence_once(5, False, packets=2000, flows=24)
        assert_equivalent(off, on)
        for runtime in (off, on):
            assert sum(r.stats.deleted for r in runtime.roots) == 2000
            assert all(not i.client._pending_acks for i in runtime.instances.values())

    def test_seen_clocks_are_forgotten_with_the_filters(self):
        """A drained run plus one grace window leaves no per-packet memory
        behind on either path (the instances' seen-clock sets used to grow
        by one int per packet for the life of the runtime)."""
        for fastpath in (False, True):
            runtime = run_equivalence_once(5, fastpath, packets=300, flows=10)
            assert sum(root.stats.deleted for root in runtime.roots) == 300
            for instance in runtime.instances.values():
                assert instance.stats.processed == 300
                assert len(instance._seen_clocks) == 0
            assert all(len(f) == 0 for f in runtime.filters.values())

    def test_off_run_is_untouched(self):
        off = run_equivalence_once(5, False, packets=150, flows=6)
        assert all(i._fastpath is None for i in off.instances.values())


# ----------------------------------------------------------------------
# nothing observable moved: runtime digests recorded at the parent, in two
# halves — what the run did (held byte-for-byte across engine changes) and
# what the engine spent on it (re-recorded by the PR that moves it)
# ----------------------------------------------------------------------

with open(
    os.path.join(os.path.dirname(__file__), "fixtures", "store_path_digests.json")
) as _fh:
    PARENT_DIGESTS = json.load(_fh)


def paper_chain_run(seed):
    """The §7.1 chain (imperative NFs, cross-flow state, blocking reads,
    half the visits off the fast path) over a small seeded Trace2."""
    from repro.bench import build_paper_chain
    from repro.traffic.trace import make_trace2
    from repro.traffic.workload import ReplaySource

    sim = Simulator()
    runtime = build_paper_chain(
        sim,
        params=RuntimeParams(fastpath_enabled=True),
        nat_parallelism=2,
        scan_parallelism=2,
    )
    packets = make_trace2(scale=0.0002, seed=seed).packets
    ReplaySource(sim, packets, runtime.inject, load_fraction=0.5)
    sim.run()
    return runtime


def store_path_digests():
    """Egress, sojourns, every stats object (``observable``) and the engine
    counters (``engine``) of the runs the store path carries — regenerate
    at a parent commit with ``PYTHONPATH=<parent>/src python -c "import
    tests.test_fastpath as t; print(t.store_path_digests())"``."""
    digests = {}

    def record(name, runtime):
        # (the attribute postdates the commit the fixture was recorded at)
        assert getattr(runtime.sim, "crashed", []) == []
        digests[name] = {
            "observable": observable_digest(runtime),
            "engine": engine_counters_of(runtime),
        }
        # ClientStats is not part of either half; the benchmark reads it
        digests[name + "/client_stats"] = {
            instance_id: dataclasses.asdict(instance.client.stats)
            for instance_id, instance in sorted(runtime.instances.items())
        }

    for seed in (1, 7):
        for fastpath in (False, True):
            record(
                f"chain4/fastpath={fastpath}/seed={seed}",
                run_equivalence_once(seed, fastpath, packets=600, flows=12),
            )
        record(f"paper/seed={seed}", paper_chain_run(seed))
    return digests


def test_runtime_digests_match_the_parent():
    assert store_path_digests() == PARENT_DIGESTS["digests"]
