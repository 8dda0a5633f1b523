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

The same NF code runs unchanged under CHC and under the baseline adapters
(:mod:`repro.baselines`), which substitute a different :class:`StateAPI`
implementation — that is what makes the head-to-head comparisons in the
evaluation apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.store.operations import OperationFn, OperationRegistry, default_registry
from repro.store.spec import StateObjectSpec
from repro.traffic.packet import Packet, scope_fields


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
    local dict with zero simulated delay.
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
    """A fast-path state access cannot be served locally.

    Raised by :class:`FastState` implementations when the requested object
    is not warm in the local cache (or its strategy requires a blocking
    store round-trip). The fast-path executor catches it, discards every
    speculative effect of the action, and reruns the packet through the
    general path — so raising it mid-action is always safe.
    """


class FastState:
    """Synchronous, local-only state access for declarative actions.

    The executor binds this to the NF instance's cached state. Accesses
    are **speculative**: updates are journalled against shadow copies and
    only committed to the real client (WAL, bit-vector tags, sequence
    numbers, flush batching) once the whole action has succeeded. Any
    access that would need a store round-trip raises :class:`NotFast`.
    """

    def get(self, obj_name: str, flow_key: Optional[Tuple]) -> Any:
        raise NotImplementedError

    def update(
        self,
        obj_name: str,
        flow_key: Optional[Tuple],
        op: str,
        *args: Any,
        need_result: bool = False,
    ) -> Any:
        """Apply an operation; returns the op's return value.

        ``need_result=True`` marks ops whose return value the action
        consumes — for strategies where delivering it would require a
        blocking store round-trip, the implementation raises
        :class:`NotFast` instead.
        """
        raise NotImplementedError


@dataclass
class MatchActionForm:
    """An NF's declarative match-action form (§6 "software P4").

    ``tables`` — the state objects the action is allowed to touch. This is
    the fast path's static contract: chclint rule CHC006 rejects actions
    that access (in particular cross-flow) state outside this set, and the
    executor enforces it dynamically by raising :class:`NotFast`.

    ``match`` — a pure predicate over packet **header fields** selecting
    the packets this form can handle (typically established-flow traffic).
    It must not touch state; packets failing it take the general path.

    ``action`` — ``action(packet, state) -> Optional[List[Output]]``.
    Runs synchronously against a :class:`FastState`; returns the outputs
    (``[]`` drops the packet), or ``None`` to decline and fall back. It
    must implement exactly the same per-packet semantics as ``process``
    for every packet that matches and whose state is locally available —
    the batching on/off equivalence tests hold NFs to that.
    """

    tables: Tuple[str, ...]
    match: Callable[[Packet], bool]
    action: Callable[[Packet, FastState], Optional[List[Output]]]


class NetworkFunction:
    """Base class for vertex programs."""

    name: str = "nf"

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

    def match_action_form(self) -> Optional[MatchActionForm]:
        """The NF's declarative fast-path form, if it has one (§6).

        Default None: the NF only has the general (generator) path. NFs
        that return a form are eligible for batched, fused dispatch; the
        generator path remains the source of truth for packets the form
        declines.
        """
        return None

    def process(self, packet: Packet, state: StateAPI) -> Generator:
        """Handle one packet; returns a list of :class:`Output`.

        Must be a generator (state access uses ``yield from``). Returning
        an empty list drops the packet.
        """
        raise NotImplementedError

    # Convenience for implementations -----------------------------------

    @staticmethod
    def key_for(packet: Packet, fields: Tuple[str, ...]) -> Tuple:
        """Project the packet onto a scope's fields."""
        return scope_fields(packet.five_tuple, fields)

    def coarsest_scope(self) -> Tuple[str, ...]:
        scopes = self.scope()
        if not scopes:
            return ()
        return scopes[-1]

    def __repr__(self) -> str:
        return f"<NF {self.name}>"
