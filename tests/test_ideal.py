"""The ideal chain (:mod:`repro.analysis.ideal`): routing, state, limits.

Scenario-level equivalence with real runs — undisturbed runs equal to the
ideal, and a store-path bug it catches — lives in ``tests/test_chaos.py``.
"""

import pytest

from repro.analysis.ideal import ideal_run
from repro.core.dag import LogicalChain
from repro.core.nf_api import NetworkFunction, Output
from repro.store.keys import StateKey
from tests.conftest import make_packet


class ByParity(NetworkFunction):
    """Counts per flow with a custom op; sends even sports to ``even``,
    odd ones to ``odd``, and drops port 0."""

    name = "split"

    def custom_operations(self):
        return {"add2": lambda value, _arg: ((value or 0) + 2, None)}

    def process(self, packet, state):
        sport = packet.five_tuple.src_port
        yield from state.update("seen", (sport,), "add2", None)
        if sport == 0:
            return []
        return [Output(packet, edge="even" if sport % 2 == 0 else "odd")]


class Counter(NetworkFunction):
    name = "count"

    def process(self, packet, state):
        yield from state.update("n", None, "incr", 1)
        return [Output(packet)]


class Waiter(NetworkFunction):
    name = "wait"

    def process(self, packet, state):
        yield "something only a simulator could wait on"
        return [Output(packet)]


def _packet(sport):
    return make_packet(sport=sport, payload=f"p{sport}")


def _chain():
    chain = LogicalChain("ideal")
    chain.add_vertex("split", ByParity, entry=True)
    chain.add_vertex("left", Counter)
    chain.add_vertex("right", Counter)
    chain.add_edge("split", "left", label="even")
    chain.add_edge("split", "right", label="even", mirror=True)
    return chain


def test_outputs_follow_matching_edges_and_unmatched_ones_egress():
    snapshot = ideal_run(_chain(), [_packet(p) for p in (2, 3, 0, 4)])
    # even: both "even" edges get a copy, and each sink egresses it;
    # odd: no "odd" edge, so it egresses at split; port 0: dropped
    assert sorted(snapshot.egress) == [
        ("p2", 1), ("p2", 1), ("p3", 2), ("p4", 4), ("p4", 4),
    ]
    assert snapshot.state[StateKey("left", "n").storage_key()] == 2
    assert snapshot.state[StateKey("right", "n").storage_key()] == 2


def test_state_is_keyed_as_the_store_keys_it_with_custom_operations():
    snapshot = ideal_run(_chain(), [_packet(3), _packet(3), _packet(0)])
    assert snapshot.state == {
        StateKey("split", "seen", (3,)).storage_key(): 4,
        StateKey("split", "seen", (0,)).storage_key(): 2,
    }


def test_an_nf_that_waits_on_anything_but_state_is_refused():
    chain = LogicalChain("waits")
    chain.add_vertex("wait", Waiter, entry=True)
    with pytest.raises(TypeError, match="yielded outside the state API"):
        ideal_run(chain, [_packet(1)])
