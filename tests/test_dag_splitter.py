"""Unit tests for the logical DAG and the scope-aware splitter."""

import pytest

from repro.core.dag import LogicalChain
from repro.core.nf_api import NetworkFunction, Output
from repro.core.splitter import FIVE_TUPLE, Splitter
from repro.store.spec import AccessPattern, Scope, StateObjectSpec
from tests.conftest import make_packet


class _NoopNF(NetworkFunction):
    name = "noop"

    def process(self, packet, state):
        return [Output(packet)]
        yield


class TestLogicalChain:
    def _chain(self):
        chain = LogicalChain("c")
        chain.add_vertex("a", _NoopNF, entry=True)
        chain.add_vertex("b", _NoopNF)
        chain.add_vertex("c", _NoopNF)
        chain.add_edge("a", "b")
        chain.add_edge("b", "c")
        return chain

    def test_sinks(self):
        chain = self._chain()
        assert chain.sinks() == ["c"]

    def test_validate_ok(self):
        self._chain().validate()

    def test_unreachable_vertex_rejected(self):
        chain = self._chain()
        chain.add_vertex("island", _NoopNF)
        with pytest.raises(ValueError, match="unreachable"):
            chain.validate()

    def test_cycle_rejected(self):
        chain = self._chain()
        chain.add_edge("c", "a")
        with pytest.raises(ValueError, match="cycle"):
            chain.validate()

    def test_duplicate_vertex_rejected(self):
        chain = self._chain()
        with pytest.raises(ValueError):
            chain.add_vertex("a", _NoopNF)

    def test_edge_to_unknown_vertex_rejected(self):
        chain = self._chain()
        with pytest.raises(KeyError):
            chain.add_edge("a", "ghost")

    def test_parallelism_validated(self):
        chain = LogicalChain()
        with pytest.raises(ValueError):
            chain.add_vertex("bad", _NoopNF, parallelism=0)

    def test_first_vertex_is_default_entry(self):
        chain = LogicalChain()
        chain.add_vertex("x", _NoopNF)
        assert chain.entry == "x"


class TestSplitterRouting:
    def _splitter(self, n=3):
        return Splitter("v", [f"v-{i}" for i in range(n)])

    def test_deterministic(self):
        splitter = self._splitter()
        packet = make_packet()
        assert splitter.route(packet) == splitter.route(make_packet())

    def test_both_directions_same_instance(self):
        splitter = self._splitter()
        forward = make_packet(src="10.0.0.1", dst="52.0.0.9", sport=1111, dport=80)
        reverse = make_packet(src="52.0.0.9", dst="10.0.0.1", sport=80, dport=1111)
        assert splitter.route(forward) == splitter.route(reverse)

    def test_spreads_load(self):
        splitter = self._splitter(4)
        destinations = set()
        for port in range(200):
            destinations.update(splitter.route(make_packet(sport=1000 + port)))
        assert len(destinations) == 4

    def test_override_wins(self):
        splitter = self._splitter()
        packet = make_packet()
        key = splitter.key_of(packet)
        splitter.overrides[key] = "v-2"
        assert splitter.route(packet) == ["v-2"]

    def test_replay_target_routes_to_target(self):
        splitter = self._splitter()
        packet = make_packet()
        packet.replayed = True
        packet.replay_target = "v-2"
        assert splitter.route(packet) == ["v-2"]

    def test_replay_target_elsewhere_routes_normally(self):
        splitter = self._splitter()
        packet = make_packet()
        packet.replayed = True
        packet.replay_target = "other-vertex-5"
        assert splitter.route(packet)[0].startswith("v-")

    def test_replication_returns_both(self):
        splitter = self._splitter(1)
        splitter.replicate["v-0"] = "v-0c"
        assert splitter.route(make_packet()) == ["v-0", "v-0c"]

    def test_added_instance_gets_no_hash_traffic(self):
        splitter = self._splitter(2)
        splitter.add_instance("v-new")
        destinations = set()
        for port in range(300):
            destinations.update(splitter.route(make_packet(sport=port + 1)))
        assert "v-new" not in destinations

    def test_replace_instance_keeps_slot(self):
        splitter = self._splitter(2)
        packet = make_packet()
        old = splitter.route(packet)[0]
        splitter.replace_instance(old, "v-R")
        assert splitter.route(make_packet()) == ["v-R"]

    def test_a_successor_that_had_joined_is_listed_once_and_old_nowhere(self):
        splitter = self._splitter(2)
        splitter.add_instance("v-c")  # a clone joins, replicated to
        splitter.replicate["v-0"] = "v-c"
        splitter.overrides[("k",)] = "v-0"
        splitter.replace_instance("v-0", "v-c")
        assert splitter.instances == splitter.hash_members == ["v-c", "v-1"]
        assert splitter.overrides == {("k",): "v-c"} and splitter.replicate == {}
        splitter.replicate["v-1"] = "v-c"
        splitter.remove_instance("v-c")
        assert splitter.instances == ["v-1"] and splitter.replicate == {}


    def test_memoised_route_follows_membership_and_scope_changes(self):
        splitter = Splitter("v", ["v-0", "v-1", "v-2"], partition_fields=("src_ip",))
        ports = range(2000, 2040)

        def agrees_with_a_splitter_that_never_saw_these_flows():
            fresh = Splitter(
                "v", splitter.hash_members, partition_fields=splitter.partition_fields
            )
            for port in ports:
                packet, twin = make_packet(sport=port), make_packet(sport=port)
                assert splitter.key_of(packet) == fresh.key_of(twin)
                assert splitter.route(packet) == fresh.route(twin)

        agrees_with_a_splitter_that_never_saw_these_flows()  # and memoises them
        splitter.partition_fields = FIVE_TUPLE
        agrees_with_a_splitter_that_never_saw_these_flows()
        assert len({splitter.route(make_packet(sport=p))[0] for p in ports}) == 3
        splitter.remove_instance("v-1")
        agrees_with_a_splitter_that_never_saw_these_flows()
        splitter.add_instance("v-9", join_hash=True)
        agrees_with_a_splitter_that_never_saw_these_flows()
        splitter.replace_instance("v-0", "v-0r")
        agrees_with_a_splitter_that_never_saw_these_flows()


class TestSplitterScopes:
    def test_refine_walks_finer(self):
        splitter = Splitter(
            "v", ["v-0"], scopes=[FIVE_TUPLE, ("src_ip",)], partition_fields=("src_ip",)
        )
        assert splitter.partition_fields == ("src_ip",)
        assert splitter.refine() is True
        assert splitter.partition_fields == FIVE_TUPLE
        assert splitter.refine() is False

    def test_default_partition_is_coarsest_scope(self):
        splitter = Splitter("v", ["v-0"], scopes=[FIVE_TUPLE, ("src_ip",)])
        assert splitter.partition_fields == ("src_ip",)

    def _spec(self, fields):
        return StateObjectSpec("o", Scope.CROSS_FLOW, AccessPattern.READ_WRITE_OFTEN, fields)

    def test_single_instance_is_always_exclusive(self):
        splitter = Splitter("v", ["v-0"])
        assert splitter.grants_exclusive(self._spec(()))

    def test_partition_subset_of_scope_is_exclusive(self):
        splitter = Splitter("v", ["v-0", "v-1"], partition_fields=("src_ip",))
        assert splitter.grants_exclusive(self._spec(("src_ip",)))
        assert splitter.grants_exclusive(self._spec(("src_ip", "dst_ip")))

    def test_partition_finer_than_scope_not_exclusive(self):
        splitter = Splitter("v", ["v-0", "v-1"], partition_fields=FIVE_TUPLE)
        assert not splitter.grants_exclusive(self._spec(("src_ip",)))

    def test_replication_disables_single_instance_exclusivity(self):
        splitter = Splitter("v", ["v-0"])
        splitter.replicate["v-0"] = "v-0c"
        assert not splitter.grants_exclusive(self._spec(()))


class TestMoves:
    def test_begin_move_emits_marker_and_reroutes(self):
        splitter = Splitter("v", ["v-0", "v-1"])
        packet = make_packet()
        key = splitter.key_of(packet)
        old = splitter.route(make_packet())[0]
        new = "v-1" if old == "v-0" else "v-0"
        markers = splitter.begin_move([key], new)
        assert len(markers) == 1
        marker = markers[0].control
        assert marker.old_instance == old
        assert marker.new_instance == new
        assert key in marker.scope_keys
        # next matching packet routes to the new instance, marked first
        routed = make_packet()
        assert splitter.route(routed) == [new]
        assert routed.mark_first
        assert routed.control is marker
        # and the one after that is not marked
        second = make_packet()
        splitter.route(second)
        assert not second.mark_first

    def test_move_to_current_instance_is_noop(self):
        splitter = Splitter("v", ["v-0", "v-1"])
        key = splitter.key_of(make_packet())
        current = splitter.current_instance_for(key)
        assert splitter.begin_move([key], current) == []

    def test_batch_move_groups_by_old_instance(self):
        splitter = Splitter("v", ["v-0", "v-1", "v-2"])
        keys = [splitter.key_of(make_packet(sport=p)) for p in range(100, 140)]
        expected_moved = {
            k for k in keys if splitter.current_instance_for(k) != "v-0"
        }
        markers = splitter.begin_move(keys, "v-0")
        # one marker per old instance that held any of the keys
        assert 1 <= len(markers) <= 2
        moved = set()
        for control in markers:
            assert control.control.new_instance == "v-0"
            moved |= set(control.control.scope_keys)
        assert moved == expected_moved
        # every moved key now routes to the new instance
        assert all(splitter.current_instance_for(k) == "v-0" for k in keys)
