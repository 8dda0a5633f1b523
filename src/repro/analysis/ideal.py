"""The ideal chain: the reference every checked run is compared with.

The paper's correctness condition is chain output equivalence (R1–R6): a
chain behaves like an ideal chain of infinite-capacity, always-available
NFs fed the same packets. :func:`ideal_run` executes that chain with no
simulator, store, root or network: one NF per vertex from its
``nf_factory`` and one :class:`~repro.core.nf_api.LocalStateAPI` with the
NF's ``custom_operations``; packets one at a time in the order given (the
injection order, which is root-clock order), each stamped with its 1-based
position as its clock; an output goes to every out-edge whose label
matches it and egresses if none does (the rule of
:meth:`~repro.core.chain_runtime.ChainRuntime.emit`); final state keyed
``StateKey(vertex, obj, flow_key).storage_key()``, as a store keys it.
It shares no code with the store path, so a bug there shows up as a
difference where a simulated reference run would repeat it.

The ideal is exact when state updates commute, as in every chain the
chaos, ops and dist campaigns run (they update state only through
``incr``). Order-dependent state — the §7 NAT and load balancer, whose
allocations depend on which flow came first — needs equivalence up to a
serial order, which this module does not attempt.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.chaos.invariants import RunSnapshot
from repro.core.dag import LogicalChain
from repro.core.nf_api import LocalStateAPI, NetworkFunction, Output
from repro.store.keys import StateKey
from repro.traffic.packet import Packet


def _outputs(nf: NetworkFunction, packet: Packet, state: LocalStateAPI) -> List[Output]:
    """Run one ``process`` body to completion: against local state every
    ``yield from state...`` returns at once, so one ``send`` finishes it."""
    body = nf.process(packet, state)
    try:
        body.send(None)
    except StopIteration as stop:
        return stop.value or []
    body.close()
    raise TypeError(
        f"NF {nf.name!r} yielded outside the state API; the ideal chain has "
        "nothing to wait on"
    )


def ideal_run(chain: LogicalChain, packets: Iterable[Packet]) -> RunSnapshot:
    """The ideal chain's final state and egress for ``packets``, in order."""
    nfs: Dict[str, NetworkFunction] = {}
    states: Dict[str, LocalStateAPI] = {}
    for name, vertex in chain.vertices.items():
        nf = nfs[name] = vertex.nf_factory()
        state = states[name] = LocalStateAPI()
        for op_name, op_fn in nf.custom_operations().items():
            state.registry.register(op_name, op_fn, allow_replace=True)
    out_edges = {name: chain.out_edges(name) for name in chain.vertices}

    egress: List[Tuple[Optional[str], int]] = []
    for clock, packet in enumerate(packets, 1):
        packet.clock = clock
        pending = [(chain.entry, packet)]
        while pending:
            vertex, copy = pending.pop()
            for output in _outputs(nfs[vertex], copy, states[vertex]):
                child = output.packet
                child.clock = clock
                matches = [e for e in out_edges[vertex] if e.label == output.edge]
                if not matches:
                    egress.append((child.payload, clock))
                for index, edge in enumerate(matches):
                    pending.append((edge.dst, child if index == 0 else child.copy()))

    final = {
        StateKey(vertex, obj, flow_key).storage_key(): value
        for vertex, state in states.items()
        for (obj, flow_key), value in state.data.items()
    }
    return RunSnapshot(state=final, egress=egress)
