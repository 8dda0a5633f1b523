"""Straggler mitigation: clone, replay, replicate, retain (§5.3).

To mitigate a straggler CHC:

1. deploys a **clone** instance of the same vertex, initialised from the
   straggler's latest externalized state (no copy needed — the state
   already lives in the store; the clone is registered as a co-owner of
   the straggler's per-flow objects);
2. **replays** all logged packets from the root, marked with the clone's
   ID — intervening instances recognise them, the store emulates their
   duplicate updates, and the clone processes them for real to pick up the
   updates of packets that were in transit when its state was read;
3. **replicates** live traffic at the upstream splitter to both the
   straggler and the clone, while the clone buffers live traffic until the
   replay-end marker is processed;
4. **retains** the faster instance, killing the other and re-associating
   state ownership if the clone wins.

All three duplicate forms this creates (outputs, state updates, upstream
processing) are suppressed by the duplicate filters and the store's
clock-keyed update log (Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.core.recovery import metadata_call, replay_all_roots
from repro.store.protocol import CloneRegistration, TakeoverRequest


@dataclass
class CloneSession:
    """An active straggler-mitigation episode."""

    vertex: str
    straggler_id: str
    clone_id: str
    started_at: float
    replayed: int = 0
    resolved: Optional[str] = None  # retained instance id


class CloneController:
    """Drives §5.3 against a running :class:`ChainRuntime`."""

    def __init__(self, runtime):
        self.runtime = runtime
        self.sessions = []

    def mitigate(self, straggler_id: str, clone_suffix: Optional[str] = None) -> Generator:
        """Launch a clone for ``straggler_id`` (process body; returns the
        :class:`CloneSession` once replay has been issued)."""
        runtime = self.runtime
        straggler = runtime.instance(straggler_id)
        vertex = straggler.vertex_name
        suffix = clone_suffix or f"{straggler_id.split('-', 1)[1]}c"
        clone = runtime.add_instance(vertex, suffix, start_buffering=True)
        session = CloneSession(
            vertex=vertex,
            straggler_id=straggler_id,
            clone_id=clone.instance_id,
            started_at=runtime.sim.now,
        )
        self.sessions.append(session)

        # Let the clone update the straggler's per-flow state (one metadata
        # message; the clone reads actual values lazily from the store —
        # "CHC initializes the clone with the straggler's latest state from
        # the datastore").
        yield from metadata_call(
            runtime, clone, CloneRegistration(original=straggler_id, clone=clone.instance_id)
        )

        # Replicate incoming traffic to straggler + clone from now on; the
        # clone buffers it until replay completes.
        runtime.splitter(vertex).replicate[straggler_id] = clone.instance_id

        # Replay all logged packets from the root(s), targeted at the clone.
        session.replayed = yield from replay_all_roots(runtime, clone)
        return session

    def retain(self, session: CloneSession, keep: str) -> Generator:
        """End the episode keeping ``keep`` ("straggler" or "clone").

        Routing changes and the loser's kill happen *atomically first*:
        were the reroute delayed behind the (one-RTT) metadata update,
        packets arriving in that window would be sent only to an instance
        about to die, with no surviving replica — a lost-update window.
        The metadata catch-up runs after; the clone remains a registered
        co-owner throughout, so no update is ever rejected meanwhile.
        """
        runtime = self.runtime
        clone = runtime.instance(session.clone_id)
        straggler = runtime.instance(session.straggler_id)

        if keep == "clone":
            # 1. atomic switchover: the straggler dies and the clone takes
            #    its routing slot. Packets already delivered while
            #    replication was on have live clone copies.
            straggler.fail()
            runtime.replace_instance(session.straggler_id, session.clone_id)
            session.resolved = session.clone_id
            # 2. ownership moves wholesale to the clone (background RTT).
            yield from metadata_call(
                runtime,
                clone,
                TakeoverRequest(
                    old_instance=session.straggler_id, new_instance=session.clone_id
                ),
            )
        else:
            clone.fail()
            runtime.retire_instance(session.clone_id)
            session.resolved = session.straggler_id
            yield from metadata_call(
                runtime,
                straggler,
                CloneRegistration(
                    original=session.straggler_id,
                    clone=session.clone_id,
                    register=False,
                ),
            )
        return session

    def pick_faster(self, session: CloneSession, window: int = 200) -> str:
        """Retention heuristic: compare recent per-packet processing times.

        "CHC retains the faster instance, killing the other" — measured
        over the most recent packets so the clone's catch-up phase does
        not bias the comparison.
        """
        straggler = self.runtime.instance(session.straggler_id)
        clone = self.runtime.instance(session.clone_id)
        straggler_recent = straggler.recorder.values[-window:]
        clone_recent = clone.recorder.values[-window:]
        if not clone_recent:
            return "straggler"
        if not straggler_recent:
            return "clone"
        straggler_mean = sum(straggler_recent) / len(straggler_recent)
        clone_mean = sum(clone_recent) / len(clone_recent)
        return "clone" if clone_mean <= straggler_mean else "straggler"
