"""The vertex programming model (§3): how NFs are written against CHC.

An NF author subclasses :class:`NetworkFunction`:

* declare state objects (:meth:`state_specs`) — each with a scope (which
  header fields key it) and an access pattern, which together select the
  Table 1 management strategy;
* implement :meth:`process` as a generator that reads/updates state via
  the :class:`StateAPI` (``yield from state.update(...)``) and returns the
  output packets;
* optionally declare custom store operations (:meth:`custom_operations`)
  which CHC loads into the datastore (§4.3).

The same NF code runs unchanged under CHC, under the baseline adapters
(:mod:`repro.baselines`) and on the batched fast path
(:mod:`repro.core.fastpath`), each of which substitutes a different
:class:`StateAPI` implementation — that is what makes the head-to-head
comparisons in the evaluation apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.store.operations import OperationFn, OperationRegistry, default_registry
from repro.store.spec import StateObjectSpec
from repro.traffic.packet import Packet


@dataclass
class Output:
    """One packet emitted by an NF.

    ``edge`` names the outgoing logical edge (``"out"`` is the default
    main path); NFs with multiple output edges (e.g. an IDS steering
    suspicious traffic to a DPI) label them explicitly.
    """

    packet: Packet
    edge: str = "out"


class StateAPI:
    """What ``process`` sees: state access bound to the current packet.

    All methods are generators (``yield from``); the CHC implementation
    defers to the store client, the traditional baseline answers from a
    local dict with zero simulated delay, and the fast path's
    :class:`~repro.core.fastpath.ShadowState` answers from the client's
    caches or declines.
    """

    def read(self, obj_name: str, flow_key: Optional[Tuple]) -> Generator:
        raise NotImplementedError

    def update(
        self,
        obj_name: str,
        flow_key: Optional[Tuple],
        op: str,
        *args: Any,
        need_result: bool = False,
    ) -> Generator:
        """Offload an update; ``need_result=True`` when the NF consumes the
        operation's return value (e.g. a popped port)."""
        raise NotImplementedError

    def nondet(self, purpose: str, kind: str = "random") -> Generator:
        """A non-deterministic value, deterministic under replay (App. A)."""
        raise NotImplementedError


class LocalStateAPI(StateAPI):
    """In-process state, the "traditional NF" discipline (no external store).

    Also reused by unit tests to drive NF logic without a simulation.
    """

    def __init__(self, registry: Optional[OperationRegistry] = None, seed: int = 0):
        self.registry = registry or default_registry()
        self.data: Dict[Tuple[str, Optional[Tuple]], Any] = {}
        self._nondet_counter = seed

    def read(self, obj_name: str, flow_key: Optional[Tuple]) -> Generator:
        return self.data.get((obj_name, flow_key))
        yield  # pragma: no cover - generator protocol

    def update(
        self,
        obj_name: str,
        flow_key: Optional[Tuple],
        op: str,
        *args: Any,
        need_result: bool = False,
    ) -> Generator:
        key = (obj_name, flow_key)
        new_value, return_value = self.registry.apply(op, self.data.get(key), args)
        self.data[key] = new_value
        return return_value
        yield  # pragma: no cover - generator protocol

    def nondet(self, purpose: str, kind: str = "random") -> Generator:
        # Deterministic counter-based source; a traditional NF has no
        # replay to stay consistent with, so any local source would do.
        self._nondet_counter += 1
        return (self._nondet_counter * 2654435761 % 2**32) / 2**32
        yield  # pragma: no cover - generator protocol


class NotFast(Exception):
    """A speculative state access cannot be served locally.

    Raised by :class:`~repro.core.fastpath.ShadowState` when the requested
    object is not warm in the local cache (or its strategy requires a
    blocking store round-trip). The fast-path executor catches it, discards
    every speculative effect of the run-ahead, and reruns the packet through
    the general path — so raising it mid-``process`` is always safe.
    """


class NetworkFunction:
    """Base class for vertex programs."""

    name: str = "nf"

    #: Opt in to the batched fast path (§6): ``process`` may be run ahead
    #: against a :class:`~repro.core.fastpath.ShadowState` and re-run on the
    #: general path when that declines, so everything it does before its
    #: last state access must be repeatable — no write to ``self`` that
    #: matters (chclint CHC005) or to the input packet (CHC006).
    speculative: bool = False

    def state_specs(self) -> Dict[str, StateObjectSpec]:
        """Declared state objects; keys are object names."""
        return {}

    def scope(self) -> List[Tuple[str, ...]]:
        """Partitioning scopes, most- to least-fine-grained (§4.1).

        Default: the scopes of the declared state objects, finest first.
        """
        scopes = {spec.scope_fields for spec in self.state_specs().values() if spec.scope_fields}
        return sorted(scopes, key=len, reverse=True)

    def custom_operations(self) -> Dict[str, OperationFn]:
        """Developer-loaded store operations (§4.3)."""
        return {}

    def process(self, packet: Packet, state: StateAPI) -> Generator:
        """Handle one packet; returns a list of :class:`Output`.

        Must be a generator (state access uses ``yield from``). Returning
        an empty list drops the packet.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<NF {self.name}>"
