"""Closed-loop elastic autoscaler (§3, §8).

The paper's vertex managers run operator-supplied scaling logic and emit
decisions; CHC's job is to make the resulting reconfiguration safe. The
seed repo stopped at the decision — this controller closes the loop: it
consumes :class:`~repro.core.vertex_manager.VertexManager` scale events
and *actually* adds or retires instances, moving per-flow state through
the Figure-4 handover so the action is loss-free and order-preserving.

Routing discipline: the controller NEVER mutates ``splitter.hash_members``.
Flipping the hash ring mid-traffic silently remaps flows that are queued
but not yet claimed — their updates would later be rejected by the store's
ownership check (state loss without a crash). Instead, autoscaled
instances join only ``splitter.instances`` and receive traffic exclusively
via the per-key overrides that :func:`~repro.core.handover.move_flows`
installs, which is exactly the splitter's documented contract.

Scale-in is :func:`~repro.core.handover.evacuate` with the hash home as
every key's destination. If the drain budget expires the retirement is
aborted (the instance keeps running) rather than risk dropping state — an
autoscaler must degrade to "too many instances", never to "lost flows".
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.core.handover import (
    evacuate, move_flows, notify_split_changed, routed_scope_keys,
)
from repro.store.datastore import DatastoreInstance
from repro.store.rehome import Rehoming

#: How often a store scale-out's lame duck is polled for its catch-up gate.
STORE_DRAIN_POLL_US = 200.0


@dataclass
class ScaleAction:
    """One completed (or aborted) elastic action, for the timeline."""

    kind: str  # "scale_out" | "scale_in"
    vertex: str
    instance: str
    started_at: float
    finished_at: float = 0.0
    keys_moved: int = 0
    ok: bool = True
    note: str = ""


@dataclass
class AutoscaleStats:
    scale_outs: int = 0
    scale_ins: int = 0
    aborted: int = 0
    skipped_cooldown: int = 0
    skipped_busy: int = 0
    skipped_limit: int = 0
    store_scale_outs: int = 0
    store_skipped: int = 0


class AutoscaleController:
    """Subscribes to vertex-manager scale events and executes them."""

    def __init__(
        self,
        runtime,
        min_instances: int = 1,
        max_instances: int = 4,
        cooldown_us: float = 5_000.0,
        drain_budget_us: float = 50_000.0,
    ):
        self.runtime = runtime
        self.sim = runtime.sim
        self.min_instances = min_instances
        self.max_instances = max_instances
        self.cooldown_us = cooldown_us
        self.drain_budget_us = drain_budget_us
        self.stats = AutoscaleStats()
        self.actions: List[ScaleAction] = []
        self._busy: set = set()  # vertex names with an action in flight
        self._last_done: Dict[str, float] = {}
        self._spawned: Dict[str, List[str]] = {}  # vertex -> autoscaled ids
        self._seq = 0
        self._store_seq = 0
        for vertex_name, manager in runtime.managers.items():
            self.attach(vertex_name, manager)

    def attach(self, vertex_name: str, manager) -> None:
        """Subscribe to one vertex manager (also called from ctor)."""
        manager.on_scale.append(
            lambda decision, _v=vertex_name: self._on_scale(_v, decision)
        )

    # ------------------------------------------------------------------
    # decision intake
    # ------------------------------------------------------------------

    def _alive_instances(self, vertex_name: str) -> List:
        return [i for i in self.runtime.instances_of(vertex_name) if i.alive]

    def _on_scale(self, vertex_name: str, decision: Any) -> None:
        action = decision.get("action") if isinstance(decision, dict) else decision
        if action not in ("scale_up", "scale_down"):
            return
        if vertex_name in self._busy:
            self.stats.skipped_busy += 1
            return
        if self.sim.now - self._last_done.get(vertex_name, -1e18) < self.cooldown_us:
            self.stats.skipped_cooldown += 1
            return
        n_alive = len(self._alive_instances(vertex_name))
        if action == "scale_up":
            if n_alive >= self.max_instances:
                self.stats.skipped_limit += 1
                return
            self._busy.add(vertex_name)
            self.sim.process(
                self._scale_out(vertex_name), name=f"scale-out-{vertex_name}"
            )
        else:
            victims = [
                i for i in self._spawned.get(vertex_name, [])
                if i in self.runtime.instances
            ]
            if n_alive <= self.min_instances or not victims:
                self.stats.skipped_limit += 1
                return
            self._busy.add(vertex_name)
            self.sim.process(
                self._scale_in(vertex_name, victims[-1]),
                name=f"scale-in-{vertex_name}",
            )

    # ------------------------------------------------------------------
    # scale-out: add an instance, move a fair share of hot flows to it
    # ------------------------------------------------------------------

    def _snapshot_holders(
        self, vertex_name: str
    ) -> Tuple[Dict[Tuple, str], Dict[str, int]]:
        """Current scope-key -> holder map plus per-holder queue depth."""
        holders: Dict[Tuple, str] = {}
        load: Dict[str, int] = {}
        for instance in self._alive_instances(vertex_name):
            load[instance.instance_id] = instance.queue_depth
            for scope_key in routed_scope_keys(self.runtime, vertex_name, instance):
                holders[scope_key] = instance.instance_id
        return holders, load

    def _scale_out(self, vertex_name: str) -> Generator:
        self._seq += 1
        started = self.sim.now
        action = ScaleAction("scale_out", vertex_name, "", started)
        try:
            new = self.runtime.add_instance(vertex_name, suffix=f"as{self._seq}")
            action.instance = new.instance_id
            self._spawned.setdefault(vertex_name, []).append(new.instance_id)
            holders, load = self._snapshot_holders(vertex_name)
            n_after = len(self._alive_instances(vertex_name))
            share = len(holders) // n_after if n_after else 0
            if share:
                # heaviest holders shed first; key tiebreak keeps runs
                # deterministic under one seed
                ranked = sorted(
                    holders.items(),
                    key=lambda kv: (-load.get(kv[1], 0), kv[0]),
                )[:share]
                result = yield from move_flows(
                    self.runtime,
                    vertex_name,
                    [scope_key for scope_key, _holder in ranked],
                    new.instance_id,
                )
                action.keys_moved = result.n_keys
            yield from notify_split_changed(self.runtime, vertex_name)
            self.stats.scale_outs += 1
        finally:
            action.finished_at = self.sim.now
            self.actions.append(action)
            self._busy.discard(vertex_name)
            self._last_done[vertex_name] = self.sim.now

    # ------------------------------------------------------------------
    # scale-in: evacuate the victim towards the hash homes
    # ------------------------------------------------------------------

    def _scale_in(self, vertex_name: str, victim_id: str) -> Generator:
        started = self.sim.now
        action = ScaleAction("scale_in", vertex_name, victim_id, started)
        try:
            # The victim never sat in hash_members, so every key it owns
            # has another instance for a hash home — no self-moves.
            action.keys_moved, stuck = yield from evacuate(
                self.runtime,
                self.runtime.instances[victim_id],
                self.runtime.splitter(vertex_name).hash_home,
                deadline=started + self.drain_budget_us,
            )
            if stuck:
                action.ok = False
                action.note = f"{stuck}; retirement aborted"
                self.stats.aborted += 1
                return
            self._spawned[vertex_name].remove(victim_id)
            self.stats.scale_ins += 1
        finally:
            action.finished_at = self.sim.now
            self.actions.append(action)
            self._busy.discard(vertex_name)
            self._last_done[vertex_name] = self.sim.now

    # ------------------------------------------------------------------
    # store-side elasticity: add a datastore replica under overload
    # ------------------------------------------------------------------

    def enable_store_elasticity(
        self,
        rejection_threshold: int = 10,
        window_us: float = 200.0,
        windows_over: int = 3,
        max_stores: int = 2,
    ) -> None:
        """Watch admission-control rejections; scale the store tier out.

        NF-side scaling reacts to queue backlog; the store tier's overload
        signal is different — ``overload_rejections`` from the §8 admission
        budget. Every ``window_us`` the controller samples the cluster-wide
        rejection total; ``windows_over`` consecutive windows each adding
        at least ``rejection_threshold`` rejections (hysteresis: one bursty
        window must not trigger a migration) re-home the hottest vertex of
        the hottest store onto a fresh replica, up to ``max_stores`` store
        instances in total.
        """
        self.sim.process(
            self._store_watch(
                rejection_threshold, window_us, windows_over, max_stores
            ),
            name="store-elasticity",
        )

    def _store_watch(
        self,
        rejection_threshold: int,
        window_us: float,
        windows_over: int,
        max_stores: int,
    ) -> Generator:
        last_total = 0
        streak = 0
        while True:
            yield self.sim.timeout(window_us)
            stores = [s for s in self.runtime.stores if s.alive]
            total = sum(s.stats.overload_rejections for s in stores)
            delta, last_total = total - last_total, total
            streak = streak + 1 if delta >= rejection_threshold else 0
            if streak < windows_over:
                continue
            streak = 0
            if len(stores) >= max_stores:
                self.stats.store_skipped += 1
                continue
            yield from self._store_scale_out()

    def _hot_store(self) -> Optional[DatastoreInstance]:
        alive = [s for s in self.runtime.stores if s.alive]
        if not alive:
            return None
        return max(alive, key=lambda s: (s.stats.overload_rejections, s.name))

    def _store_scale_out(self) -> Generator:
        """Re-home the hottest vertex of the hottest store onto a replica.

        The one-vertex case of :class:`repro.store.rehome.Rehoming`: the
        hot store keeps serving its remaining vertices at full speed while
        un-ACK'd clients of the moved one retransmit onto the replica.
        """
        hot = self._hot_store()
        if hot is None:
            return
        candidates = self.runtime.store.vertices_assigned_to(hot.name)
        if len(candidates) < 2:
            # a single-tenant store cannot be split: moving its only
            # vertex just relocates the hotspot
            self.stats.store_skipped += 1
            return
        vertex = max(candidates, key=lambda v: (hot.vertex_write_load(v), v))
        self._store_seq += 1
        name = f"{hot.name}el{self._store_seq}"
        action = ScaleAction("store_scale_out", vertex, name, self.sim.now)
        move = Rehoming(
            self.runtime,
            hot,
            name,
            vertices=[vertex],
            seed=self.runtime.params.seed + 7_000 + self._store_seq,
        )
        action.keys_moved = len(move.dst.keys())
        self.stats.store_scale_outs += 1
        # Global idleness never comes (the other vertices are still under
        # load), so the gate watches the moved vertex only. The stale
        # copies go either way, so audits folding all stores into one map
        # see only the replica's: the permanent per-vertex mute keeps a
        # later straggler invisible, which makes an overrun cosmetic.
        stuck = yield from move.drain(STORE_DRAIN_POLL_US, self.drain_budget_us)
        if stuck:
            action.ok = False
            action.note = f"{stuck}; stale copies GC'd anyway"
        move.finish()
        action.finished_at = self.sim.now
        self.actions.append(action)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        return {
            "scale_outs": self.stats.scale_outs,
            "scale_ins": self.stats.scale_ins,
            "store_scale_outs": self.stats.store_scale_outs,
            "store_skipped": self.stats.store_skipped,
            "aborted": self.stats.aborted,
            "skipped": {
                "cooldown": self.stats.skipped_cooldown,
                "busy": self.stats.skipped_busy,
                "limit": self.stats.skipped_limit,
            },
            "actions": [asdict(action) for action in self.actions],
        }
