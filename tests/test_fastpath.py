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
the speculative-journal discipline (a declined action leaves zero
visible side effects).
"""

import dataclasses
import json
import os

import pytest

from repro.analysis.determinism import (
    check_fastpath_equivalence,
    engine_counters_of,
    flow_egress_digest,
    observable_digest,
    per_flow_state,
    run_equivalence_once,
    seeded_workload,
)
from repro.core.chain_runtime import ChainRuntime, RuntimeParams
from repro.core.fastpath import ShadowState, compiled_plan
from repro.core.nf_api import NotFast
from repro.simnet.engine import Simulator
from repro.traffic.packet import ACK, SYN, FiveTuple, Packet
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
        report = check_fastpath_equivalence(SEEDS, packets=300, flows=10)
        assert report["ok"], report["mismatches"]

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


class TestCompiler:
    def _runtime(self, fastpath=True):
        from repro.analysis.determinism import _declarative_chain

        sim = Simulator()
        runtime = ChainRuntime(
            sim,
            _declarative_chain(),
            params=RuntimeParams(fastpath_enabled=fastpath),
        )
        return sim, runtime

    def test_fusion_plan_covers_declarative_run(self):
        _, runtime = self._runtime()
        plan = compiled_plan(runtime)
        assert plan["declarative"] == ["firewall", "lb", "nat", "ratelimiter"]
        assert plan["fused_runs"] == [["firewall", "nat", "ratelimiter", "lb"]]

    def test_non_declarative_nf_gets_no_executor(self):
        from repro.core.dag import LogicalChain
        from repro.nfs.nat import Nat
        from repro.nfs.portscan import PortscanDetector

        sim = Simulator()
        chain = LogicalChain("mixed")
        chain.add_vertex("nat", Nat, entry=True)
        chain.add_vertex("scan", PortscanDetector)
        chain.add_edge("nat", "scan")
        runtime = ChainRuntime(sim, chain, params=RuntimeParams(fastpath_enabled=True))
        assert runtime.instances["nat-0"]._fastpath is not None
        assert runtime.instances["scan-0"]._fastpath is None
        # and the plan shows no fusable run (a single declarative vertex)
        assert compiled_plan(runtime)["fused_runs"] == []

    def test_fastpath_disabled_installs_nothing(self):
        _, runtime = self._runtime(fastpath=False)
        assert all(i._fastpath is None for i in runtime.instances.values())


class TestShadowState:
    def _client(self):
        _, runtime = TestCompiler()._runtime()
        return runtime.instances["firewall-0"].client

    def test_undeclared_table_declines(self):
        shadow = ShadowState(self._client(), tables=("conn_allowed",))
        with pytest.raises(NotFast):
            shadow.get("denied_count", None)

    def test_unknown_object_declines(self):
        shadow = ShadowState(self._client(), tables=("nonexistent",))
        with pytest.raises(NotFast):
            shadow.get("nonexistent", None)

    def test_cold_per_flow_read_declines(self):
        shadow = ShadowState(self._client(), tables=("conn_allowed", "denied_count"))
        with pytest.raises(NotFast):
            shadow.get("conn_allowed", ("10.0.0.9", "52.0.0.1", 9, 80, 6))

    def test_overwrite_op_applies_on_cold_cache(self):
        client = self._client()
        shadow = ShadowState(client, tables=("conn_allowed", "denied_count"))
        flow = ("10.0.0.9", "52.0.0.1", 9, 80, 6)
        shadow.update("conn_allowed", flow, "set", True)
        assert shadow.get("conn_allowed", flow) is True
        assert len(shadow.journal) == 1
        # speculative: nothing reached the client cache or the wire
        storage_key = client._key("conn_allowed", flow)
        assert storage_key not in client._cache

    def test_declined_action_leaves_no_side_effects(self):
        client = self._client()
        shadow = ShadowState(client, tables=("conn_allowed",))
        flow = ("10.0.0.9", "52.0.0.1", 9, 80, 6)
        warm = ("10.0.0.8", "52.0.0.1", 8, 80, 6)
        client._cache[client._key("conn_allowed", warm)] = True
        stats_before = dataclasses.asdict(client.stats)
        cache_before = dict(client._cache)
        # a cache hit, a speculative write, then a decline: the general
        # path re-runs the packet and counts that read itself
        assert shadow.get("conn_allowed", warm) is True
        shadow.update("conn_allowed", flow, "set", True)
        with pytest.raises(NotFast):
            shadow.update("denied_count", None, "incr", 1)  # undeclared
        # the journal is simply dropped: nothing reached the client
        assert dataclasses.asdict(client.stats) == stats_before
        assert client._cache == cache_before
        assert client._owned == {} and client.wal.updates == []


def _drive(gen):
    """PR 6's helper: run a client generator that must not yield."""
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("fast-path journal replay blocked unexpectedly")


class RecordingShadow(ShadowState):
    """A ShadowState that also keeps the journal in its pre-commit form —
    ``(obj_name, flow_key, op, args, need_result)`` per update, counting
    cache hits as it goes — which is what the replay below consumes."""

    __slots__ = ("calls",)

    def __init__(self, client, tables):
        super().__init__(client, tables)
        self.calls = []

    def update(self, obj_name, flow_key, op, *args, need_result=False):
        value = super().update(obj_name, flow_key, op, *args, need_result=need_result)
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
        from repro.analysis.determinism import _declarative_chain

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
        form = instance.nf.match_action_form()
        packet = make_packet(instance)
        packet.clock = (1 << 56) | 9001  # root 1's clock space, like a live packet
        client.batch_begin()
        shadow = RecordingShadow(client, form.tables)
        if script is None:
            assert form.action(packet, shadow) is not None
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
        shadow handed the action is what the committed entries hold."""
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
        """No action of the four NFs reaches a cold ``set`` without a read
        first except the NAT's; the shadow allows it for any per-flow key."""
        cold = ("10.9.9.9", "52.0.0.1", 9, 80, 6)
        committed, shadow = self._assert_same(
            "firewall-0",
            lambda i: new_flow(i, 60),
            script=lambda shadow: shadow.update("conn_allowed", cold, "set", True),
        )
        storage_key = shadow.journal[0][2]
        assert committed["cache"][storage_key] is True
        assert committed["owned"][storage_key] == ("conn_allowed", cold)

    def test_two_updates_of_one_key_in_one_packet(self):
        flow = ("10.9.9.9", "52.0.0.1", 9, 80, 6)

        def script(shadow):
            shadow.update("conn_allowed", flow, "set", False)
            shadow.update("conn_allowed", flow, "set", True)

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
    from repro.traffic import ReplaySource, make_trace2

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
