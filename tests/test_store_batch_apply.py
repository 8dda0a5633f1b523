"""The store's one per-op body against the per-entry apply loop it replaced.

``ReferenceStore`` keeps, as they were before the batch loop and
``apply_operation`` came to share one per-op body, ``apply_operation``
(with its ``_result`` helper and the ``(key, clock, seq)`` form of
``_log_committed``) and the ``_BatchShard`` branch of ``_serve``. The same
sequence of batches, blocking ops, prunes, clone (de)registrations,
lame-duck entries and value watches drives a reference store and a real
one; every private container, ``StoreStats``, every message and reply in
order, every sanitizer hook in order and each blocking op's ``OpResult``
must come out equal.
"""

from __future__ import annotations

import copy
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import runtime as _sanitize
from repro.core.clock import make_clock
from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.store.datastore import DatastoreInstance, _BatchShard
from repro.store.keys import StateKey
from repro.store.protocol import (
    BatchedOpRequest,
    CloneRegistration,
    CommitSignal,
    OpRequest,
    OpResult,
    WatchRequest,
)


class ReferenceStore(DatastoreInstance):
    """A store whose batch loop calls the old ``apply_operation`` per entry."""

    def apply_operation(
        self,
        op: OpRequest,
        signal_sink: Optional[Dict[str, List[Tuple[int, int]]]] = None,
    ) -> OpResult:
        key = op.key
        owner = self._owners.get(key)
        suite = _sanitize.ACTIVE
        if op.claim_owner and owner is None:
            self._owners[key] = owner = next(
                (orig for orig, clone in self._clones.items() if clone == op.instance),
                op.instance,
            )
            if suite is not None:
                suite.note_store_transfer(self.sim, key, owner, "claim")
        if (
            owner is not None
            and op.instance
            and owner != op.instance
            and self._clones.get(owner) != op.instance
        ):
            self.stats.rejected += 1
            if suite is not None:
                suite.note_store_reject(self.sim, key, op.instance, owner)
            return self._result(op, None, False, None)

        logged = self.dedup_enabled and op.log_update and op.clock
        if logged:
            if op.clock in self._pruned_clocks:
                self.stats.ops_emulated += 1
                return self._result(op, None, True, self._data.get(key))
            committed = self._update_log.get((key, op.clock))
            if committed is not None and op.seq in committed:
                self.stats.ops_emulated += 1
                return self._result(op, committed[op.seq], True, self._data.get(key))

        if suite is not None:
            suite.note_store_apply(self.sim, key, op.instance)
        new_value, return_value = self.registry.apply(op.op, self._data.get(key), op.args)
        self._data[key] = new_value
        self.stats.ops_applied += 1
        if op.clock and op.instance:
            ts = self._ts.setdefault(key, {})
            if op.clock > ts.get(op.instance, 0):
                ts[op.instance] = op.clock
        if logged:
            self._reference_log_committed(key, op.clock, op.seq, return_value)
        if (
            op.vector_tag
            and op.clock
            and self.root_endpoint
            and not self._muted(key)
        ):
            destination = self._root_for(op.clock)
            if signal_sink is not None:
                signal_sink.setdefault(destination, []).append((op.clock, op.vector_tag))
            else:
                self.endpoint.send(destination, CommitSignal((op.clock,), (op.vector_tag,)))
            self.stats.commit_signals += 1
        if key in self._value_watchers:
            self._notify_value_watchers(key, new_value, exclude=op.instance)
        return self._result(op, return_value, False, new_value)

    def _result(self, op: OpRequest, value: Any, emulated: bool, state: Any) -> OpResult:
        if not op.blocking:
            return OpResult(value=None, emulated=emulated)
        return OpResult(
            value=value,
            ts=dict(self._ts.get(op.key, {})),
            emulated=emulated,
            state=copy.deepcopy(state) if op.return_state else None,
        )

    def _reference_log_committed(self, key: str, clock: int, seq: int, return_value: Any) -> None:
        log_key = (key, clock)
        entry = self._update_log.get(log_key)
        if entry is None:
            entry = self._update_log[log_key] = {}
            self._log_clocks.setdefault(clock, []).append(log_key)
        entry[seq] = return_value

    def _serve(self, payload, request):
        if isinstance(payload, _BatchShard):
            return self._reference_serve_shard(payload, request)
        return super()._serve(payload, request)

    def _reference_serve_shard(self, payload, request):
        if len(payload.entries) > 1:
            yield self.sim.timeout(self.op_service_us * (len(payload.entries) - 1))
        by_root: Dict[str, List[Tuple[int, int]]] = {}
        for entry in payload.entries:
            if self.apply_operation(entry, signal_sink=by_root).emulated:
                payload.state.emulated += 1
            if self.mirror is not None:
                mirror_ack = self._replicate(entry)
                if mirror_ack is not None:
                    yield mirror_ack
        for destination, sigs in by_root.items():
            clocks = tuple(clock for clock, _tag in sigs)
            tags = tuple(tag for _clock, tag in sigs)
            self.endpoint.send(destination, CommitSignal(clocks, tags))
        payload.state.remaining -= 1
        if payload.state.remaining == 0 and request is not None:
            self._respond(
                request,
                OpResult(value=None, emulated=payload.state.emulated > 0),
            )


class HookLog:
    """A sanitizer suite that records every ``note_*`` hook, in order."""

    def __init__(self) -> None:
        self.calls: List[Tuple[str, tuple]] = []

    def __getattr__(self, name: str):
        if not name.startswith("note_"):
            raise AttributeError(name)
        return lambda _sim, *args: self.calls.append((name, args))


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

KEYS = [
    StateKey(vertex, obj, flow).storage_key()
    for vertex, obj, flow in (
        ("v", "hits", ("a",)),
        ("v", "hits", ("b",)),
        ("v", "total", None),
        ("w", "hits", ("a",)),
        ("w", "total", None),
    )
]
INSTANCES = ["", "v-0", "v-1", "v-0c"]
# two roots: a clock's high bits name the root its commit signal goes to
CLOCKS = [0] + [make_clock(root, seq) for root in (0, 1) for seq in (1, 2, 3)]


def op_request(
    key: str,
    op: str,
    arg: int,
    instance: str,
    clock: int,
    seq: int,
    blocking: bool,
    vector_tag: int,
    log_update: bool,
    claim_owner: bool,
    return_state: bool,
) -> OpRequest:
    return OpRequest(
        key=key,
        op=op,
        args=(arg,),
        instance=instance,
        clock=clock,
        seq=seq,
        blocking=blocking,
        vector_tag=vector_tag,
        log_update=log_update,
        claim_owner=claim_owner,
        return_state=return_state,
    )


def ops(blocking: bool):
    return st.builds(
        op_request,
        key=st.sampled_from(KEYS),
        op=st.sampled_from(["incr", "set"]),
        arg=st.integers(0, 3),
        instance=st.sampled_from(INSTANCES),
        clock=st.sampled_from(CLOCKS),
        seq=st.integers(0, 1),
        blocking=st.just(blocking),
        vector_tag=st.sampled_from([0, 0x00010001, 0x00020003]),
        log_update=st.booleans(),
        claim_owner=st.booleans(),
        return_state=st.booleans() if blocking else st.just(False),
    )


steps = st.one_of(
    st.tuples(st.just("batch"), st.lists(ops(blocking=False), min_size=1, max_size=8)),
    st.tuples(st.just("op"), ops(blocking=True)),
    st.tuples(st.just("prune"), st.sampled_from(CLOCKS[1:])),
    st.tuples(
        st.just("clone"),
        st.sampled_from(["v-0", "v-1"]),
        st.sampled_from(["v-0c", "v-1"]),
        st.booleans(),
    ),
    st.tuples(st.just("lame"), st.sampled_from(["v", "w"])),
    st.tuples(st.just("watch"), st.sampled_from(KEYS), st.sampled_from(["v-0", "v-1", "x"])),
)

PRIVATES = (
    "_data", "_owners", "_clones", "_ts", "_update_log", "_log_clocks",
    "_pruned_clocks", "_value_watchers", "_owner_watchers", "_lame_duck",
)


def run(store_class, scenario) -> Dict[str, Any]:
    """Drive one fresh store through ``scenario``; everything observable."""
    sim = Simulator()
    store = store_class(sim, Network(sim), "store0", root_endpoint="root{root_id}")
    sent: List[Tuple[str, Any]] = []
    replies: List[Tuple[int, Any, bool]] = []
    store.endpoint.send = lambda dst, payload: sent.append((dst, payload))
    store.endpoint.respond = lambda request, value, ok=True: replies.append(
        (request.request_id, value, ok)
    )
    results: List[OpResult] = []
    hooks = HookLog()
    _sanitize.install(hooks)
    try:
        for index, step in enumerate(copy.deepcopy(scenario)):
            kind = step[0]
            if kind == "batch":
                payload = BatchedOpRequest(entries=tuple(step[1]), instance="v-0")
                store._on_request(SimpleNamespace(request_id=index, payload=payload))
                sim.run()
            elif kind == "op":
                results.append(store.apply_operation(step[1]))
            elif kind == "prune":
                store._prune(step[1])
            elif kind == "clone":
                _, original, clone, register = step
                store._on_request(SimpleNamespace(
                    request_id=index, payload=CloneRegistration(original, clone, register)
                ))
            elif kind == "lame":
                store.enter_lame_duck([step[1]])
            elif kind == "watch":
                store._on_request(SimpleNamespace(
                    request_id=index, payload=WatchRequest(key=step[1], endpoint=step[2])
                ))
    finally:
        _sanitize.uninstall()
    observed = {name: getattr(store, name) for name in PRIVATES}
    observed.update(
        stats=store.stats, sent=sent, replies=replies, results=results,
        hooks=hooks.calls, now=sim.now,
    )
    return observed


def run_both(scenario) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """The reference store and the real one through ``scenario``.

    The reference keeps its ``(key, clock) -> {seq -> value}`` dedup log; it
    is flattened into the real store's ``(key, clock, seq) -> value`` rows,
    every identity and value kept. ``_log_clocks`` compares each clock's
    identities sorted: the order one clock lists them in is not observable.
    """
    reference = run(ReferenceStore, scenario)
    nested = reference["_update_log"]
    reference["_update_log"] = {
        (key, clock, seq): value
        for (key, clock), seqs in nested.items()
        for seq, value in seqs.items()
    }
    reference["_log_clocks"] = {
        clock: sorted(
            (key, log_clock, seq)
            for key, log_clock in log_keys
            for seq in nested[(key, log_clock)]
        )
        for clock, log_keys in reference["_log_clocks"].items()
    }
    change = run(DatastoreInstance, scenario)
    change["_log_clocks"] = {
        clock: sorted(identities) for clock, identities in change["_log_clocks"].items()
    }
    return reference, change


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenario=st.lists(steps, min_size=1, max_size=14))
def test_batch_apply_matches_the_per_entry_loop(scenario):
    reference, change = run_both(scenario)
    for name in reference:
        assert change[name] == reference[name], name


def test_every_branch_of_the_body_is_compared():
    """One hand-built scenario that reaches each branch the fuzz aims at:
    a duplicate identity, a pruned clock, a rejected writer, a first-write
    claim (a registered clone's, for its original), a lame-duck vertex, a
    value watcher, signals to two roots, and shards answered with a
    one-entry and with a multi-entry ``CommitSignal``."""
    v_a, v_b, v_total, w_a, _w_total = KEYS
    r0c1, r0c2, r0c3, r1c1, r1c2, _r1c3 = CLOCKS[1:]
    tag = 0x00010001

    def nb(key, instance, clock, seq=0, claim=False):
        return op_request(key, "incr", 1, instance, clock, seq, False, tag, True, claim, False)

    scenario = [
        ("watch", v_total, "v-1"),
        ("batch", [
            nb(v_a, "v-0", r0c1, claim=True),
            nb(v_total, "v-0", r0c1),
            nb(v_total, "v-0", r1c1),
            nb(v_total, "v-0", r0c1),  # duplicate identity: emulated
            nb(w_a, "v-0", r1c2),
        ]),
        ("batch", [nb(v_a, "v-1", r0c2)]),  # rejected: v-0 owns it
        ("clone", "v-1", "v-0c", True),
        ("batch", [nb(v_b, "v-0c", r0c2, claim=True)]),  # claims for v-1
        ("prune", r0c1),
        ("batch", [nb(v_total, "v-0", r0c1, seq=1)]),  # pruned clock: emulated
        ("op", op_request(v_b, "incr", 2, "v-1", r0c3, 0, True, tag, True, False, True)),
        ("lame", "w"),
        ("batch", [nb(w_a, "v-0", r1c1)]),  # muted: no signal, no reply
    ]
    reference, change = run_both(scenario)
    for name in reference:
        assert change[name] == reference[name], name

    stats = change["stats"]
    assert (stats.ops_emulated, stats.rejected) == (2, 1)
    assert change["_owners"][v_b] == "v-1"
    assert (change["results"][0].value, change["results"][0].state) == (3, 3)
    kinds = {type(payload).__name__ for _dst, payload in change["sent"]}
    assert {"CommitSignal", "CallbackMessage"} <= kinds
    entries = {
        len(payload.clocks) for _dst, payload in change["sent"] if type(payload) is CommitSignal
    }
    assert 1 in entries and max(entries) > 1
    assert {dst for dst, _payload in change["sent"]} >= {"root0", "root1", "v-1"}
    replies = {request_id: value for request_id, value, _ok in change["replies"]}
    assert sorted(replies) == [0, 1, 2, 3, 4, 6]
    assert [replies[i].emulated for i in (1, 2, 4, 6)] == [True, False, False, True]
