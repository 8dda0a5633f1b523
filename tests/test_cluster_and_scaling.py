"""StoreCluster routing/replacement and operator-logic-driven scaling.

Satellites of the overload PR: the crc32 fallback-hash regression (a byte
sum collides on anagram vertex names), replace_instance routing, and the
default scaling / straggler logic driving a :class:`VertexManager` over a
real runtime end-to-end."""

import zlib

import pytest

from repro.chaos.campaign import build_runtime
from repro.core.vertex_manager import (
    VertexManager,
    default_scaling_logic,
    default_straggler_logic,
)
from repro.simnet.network import Link, Network
from repro.store.cluster import StoreCluster
from repro.store.datastore import DatastoreInstance
from repro.store.keys import StateKey
from tests.conftest import make_packet


def _cluster(sim, n=3):
    network = Network(sim, Link(latency_us=1.0), seed=1)
    return StoreCluster(
        [DatastoreInstance(sim, network, f"s{i}") for i in range(n)]
    )


class TestClusterRouting:
    # All byte-permutations of one name: a sum-based fallback hash maps
    # every one of them to the same store node.
    ANAGRAMS = ["nat1", "na1t", "1nat", "atn1"]

    def test_fallback_hash_spreads_anagram_vertices(self, sim):
        cluster = _cluster(sim, n=3)
        endpoints = {
            vertex: cluster.endpoint_for_key(
                StateKey(vertex, "obj").storage_key()
            )
            for vertex in self.ANAGRAMS
        }
        assert len(set(endpoints.values())) > 1, (
            f"anagram vertices all piled onto one node: {endpoints}"
        )
        # sanity: a byte sum WOULD have collided them all (the old bug)
        assert len({sum(v.encode()) % 3 for v in self.ANAGRAMS}) == 1

    def test_fallback_hash_is_crc32(self, sim):
        cluster = _cluster(sim, n=3)
        key = StateKey("nat1", "obj").storage_key()
        expected = f"s{zlib.crc32(b'nat1') % 3}"
        assert cluster.endpoint_for_key(key) == expected

    def test_assignment_overrides_hash(self, sim):
        cluster = _cluster(sim, n=3)
        cluster.assign_vertex("nat1", "s0")
        assert cluster.endpoint_for_key(
            StateKey("nat1", "obj").storage_key()
        ) == "s0"
        with pytest.raises(KeyError):
            cluster.assign_vertex("nat1", "nope")

    def test_bare_keys_hash_as_their_own_vertex(self, sim):
        cluster = _cluster(sim, n=3)
        assert cluster.endpoint_for_key("plainkey") == (
            f"s{zlib.crc32(b'plainkey') % 3}"
        )

    def test_replace_instance_keeps_routing(self, sim):
        cluster = _cluster(sim, n=3)
        cluster.assign_vertex("fw", "s1")
        network = Network(sim, Link(latency_us=1.0), seed=2)
        replacement = DatastoreInstance(sim, network, "s1r1")
        cluster.replace_instance("s1", replacement)
        # explicit assignment follows the replacement
        assert cluster.endpoint_for_key(
            StateKey("fw", "obj").storage_key()
        ) == "s1r1"
        # hash slots are positional: whatever hashed to slot 1 still does
        assert cluster.instance_named("s1r1") is replacement
        assert [i.name for i in cluster.instances] == ["s0", "s1r1", "s2"]
        with pytest.raises(KeyError):
            cluster.replace_instance("s1", replacement)  # old name is gone

    def test_add_replica_pins_without_touching_the_hash_ring(self, sim):
        cluster = _cluster(sim, n=3)
        before = {
            vertex: cluster.endpoint_for_key(
                StateKey(vertex, "obj").storage_key()
            )
            for vertex in self.ANAGRAMS
        }
        network = Network(sim, Link(latency_us=1.0), seed=3)
        replica = DatastoreInstance(sim, network, "s0el1")
        cluster.add_replica(replica, vertices=["nat1"])
        # the pinned vertex routes to the replica...
        assert cluster.endpoint_for_key(
            StateKey("nat1", "obj").storage_key()
        ) == "s0el1"
        # ...and every unpinned vertex keeps its pre-replica hash home
        # (the replica never joins the ring, so nothing else remapped)
        for vertex in self.ANAGRAMS:
            if vertex == "nat1":
                continue
            assert cluster.endpoint_for_key(
                StateKey(vertex, "obj").storage_key()
            ) == before[vertex]
        assert [i.name for i in cluster.instances] == [
            "s0", "s1", "s2", "s0el1"
        ]
        assert cluster.vertices_assigned_to("s0el1") == ["nat1"]
        with pytest.raises(ValueError):
            cluster.add_replica(replica)  # already registered


class TestScalingLogicEndToEnd:
    def test_manager_drives_scale_up_then_scale_down(self, sim):
        """§3's loop with the default scaling logic: burst -> scale_up
        decision; calm with >1 instance -> scale_down after hysteresis."""
        runtime = build_runtime(sim, seed=5, proc_time_overrides={"entry": 12.0})
        decisions = []
        manager = VertexManager(
            sim,
            "entry",
            instances_fn=lambda: runtime.instances_of("entry"),
            interval_us=50.0,
            scaling_logic=default_scaling_logic(
                queue_threshold=10, low_threshold=1, settle_intervals=3
            ),
        )
        manager.on_scale.append(decisions.append)

        def source():
            for index in range(120):
                runtime.inject(make_packet(sport=1000 + (index % 8)))
                yield sim.timeout(1.0)

        def react():
            # a second instance joins once the manager asks (what the
            # AutoscaleController automates; here we drive it by hand)
            while not decisions:
                yield sim.timeout(10.0)
            runtime.add_instance("entry", "b")

        sim.process(source())
        sim.process(react())
        sim.run(until=200_000.0)
        manager.stop()

        kinds = [d["action"] for d in decisions]
        assert "scale_up" in kinds
        assert decisions[0]["backlog"] > 10
        assert "scale_down" in kinds  # calm after the burst, 2 instances
        assert kinds.index("scale_up") < kinds.index("scale_down")

    def test_manager_flags_straggler_instance(self, sim):
        runtime = build_runtime(sim, seed=6)
        runtime.add_instance("entry", "b")
        # make instance b pathologically slow
        runtime.instances["entry-b"].extra_delay = lambda: 60.0
        flagged = []
        manager = VertexManager(
            sim,
            "entry",
            instances_fn=lambda: runtime.instances_of("entry"),
            interval_us=500.0,
            straggler_logic=default_straggler_logic(threshold=0.5),
        )
        manager.on_straggler.append(flagged.append)

        def source():
            for index in range(400):
                runtime.inject(make_packet(sport=1000 + (index % 16)))
                yield sim.timeout(2.0)

        sim.process(source())
        sim.run(until=100_000.0)
        manager.stop()
        assert "entry-b" in flagged
