"""Module -> layer map and profile attribution for the traced run.

A *layer* is a group of ``src/repro`` modules that one later PR is likely
to optimise as a unit. The traced run wraps the timed region in
``cProfile`` (the interpreter's profiler hook) and charges every
function's **self** time to a layer by the path of the file that defines
it. Time spent in builtins, C extensions, the standard library and the
repo's own leaf utilities (``CALLER`` below) is charged to whichever layer
called them, through the profile's caller edges, so ``dict`` lookups made
by the store client count as store-client time rather than vanishing into
an "interpreter" bucket.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, FrozenSet, Optional, Tuple

from _env import HERE, SRC_DIR

#: Pseudo-layer: the function's self time is charged to its callers.
CALLER = "<caller>"
#: Everything no rule places: the harness's own loops and profile roots.
OTHER = "other"

#: Layers that get a ``<layer>.self_us_per_pkt`` metric.
LAYERS = (
    "simnet.engine",
    "simnet.net",
    "store.client",
    "store.datastore",
    "store.other",
    "core.root",
    "core.instance",
    "core.fastpath",
    "nfs",
    "traffic",
)

# Path under src/repro -> layer. Hot packages are listed file by file so a
# new module fails test_layer_map_covers_every_module until someone decides
# where its time belongs; packages that are off the packet path (campaign
# harnesses, linters, baselines) are mapped by directory.
_FILES: Dict[str, str] = {
    "simnet/engine.py": "simnet.engine",
    "simnet/network.py": "simnet.net",
    "simnet/rpc.py": "simnet.net",
    "simnet/nic.py": "simnet.net",
    "simnet/monitor.py": CALLER,  # recorders: charged to whoever records
    "simnet/failures.py": OTHER,
    "store/client.py": "store.client",
    "store/datastore.py": "store.datastore",
    "store/keys.py": "store.other",
    "store/operations.py": "store.other",
    "store/protocol.py": "store.other",
    "store/cluster.py": "store.other",
    "store/wal.py": "store.other",
    "store/breaker.py": "store.other",
    "store/spec.py": "store.other",
    "store/store_recovery.py": "store.other",
    "core/root.py": "core.root",
    "core/clock.py": "core.root",
    "core/instance.py": "core.instance",
    "core/splitter.py": "core.instance",
    "core/duplicates.py": "core.instance",
    "core/chain_runtime.py": "core.instance",
    "core/handover.py": "core.instance",
    "core/dag.py": "core.instance",
    "core/bitvector.py": CALLER,
    "core/fastpath.py": "core.fastpath",
    "core/nf_api.py": "nfs",
    # control plane: never runs on a fault-free benchmark workload
    "core/autoscaler.py": OTHER,
    "core/cloning.py": OTHER,
    "core/recovery.py": OTHER,
    "core/supervisor.py": OTHER,
    "core/vertex_manager.py": OTHER,
    "dist/transport.py": "dist.transport",
    "dist/shard.py": "dist.shard",
    "dist/node.py": "dist.shard",
    "dist/store_node.py": "dist.store_node",
    "dist/fabric.py": "dist.fabric",
    "dist/campaign.py": "dist.fabric",
    "util.py": CALLER,
}
_DIRS: Dict[str, str] = {
    "nfs": "nfs",
    "traffic": "traffic",
    "analysis": OTHER,
    "baselines": OTHER,
    "bench": OTHER,
    "chaos": OTHER,
    "ops": OTHER,
    "parallel": OTHER,
}

_REPRO_DIR = os.path.join(SRC_DIR, "repro") + os.sep


def layer_of_module(relpath: str) -> Optional[str]:
    """Layer of ``relpath`` (posix path under ``src/repro``), else None."""
    if relpath in _FILES:
        return _FILES[relpath]
    if os.path.basename(relpath) == "__init__.py":
        return OTHER  # import-time only
    return _DIRS.get(relpath.split("/", 1)[0]) if "/" in relpath else None


def _layer_of_function(func: Tuple[str, int, str]) -> str:
    filename = func[0]
    if filename.startswith(_REPRO_DIR):
        relpath = filename[len(_REPRO_DIR):].replace(os.sep, "/")
        return layer_of_module(relpath) or OTHER
    if filename.startswith(HERE + os.sep):
        return OTHER  # the harness's own source and driver loops
    return CALLER  # builtins ("~"), C extensions, the standard library


def attribute(profile) -> Tuple[Dict[str, float], float]:
    """Seconds of self time per layer for a finished ``cProfile.Profile``,
    and the profile's total self time.

    The layer values must sum to that total: every function's ``tottime``
    is split over layers and nothing is dropped (time that resolves to no
    layer lands in ``other``).
    """
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    memo: Dict[Tuple, Dict[str, float]] = {}

    def shares(func: Tuple, stack: FrozenSet[Tuple]) -> Tuple[Dict[str, float], bool]:
        """Layer fractions of ``func``'s self time, and whether the answer
        is free of recursion back-edges (only those are memoised)."""
        layer = _layer_of_function(func)
        if layer != CALLER:
            return {layer: 1.0}, True
        if func in memo:
            return memo[func], True
        if func in stack:
            return {}, False  # back-edge: the outer frame resolves it
        callers = stats[func][4]
        # weight each caller by the self time this function spent on its
        # behalf; fall back to call counts when the timer read 0 throughout
        weights = {c: edge[2] for c, edge in callers.items()}
        if sum(weights.values()) <= 0.0:
            weights = {c: float(edge[0]) for c, edge in callers.items()}
        out: Dict[str, float] = {}
        clean = True
        inner = stack | {func}
        for caller, weight in weights.items():
            if weight <= 0.0:
                continue
            fractions, caller_clean = shares(caller, inner)
            clean = clean and caller_clean
            for name, fraction in fractions.items():
                out[name] = out.get(name, 0.0) + weight * fraction
        total = sum(out.values())
        if total > 0.0:
            out = {k: v / total for k, v in out.items()}
        elif stack:
            return {}, False  # reachable only through back-edges from here
        else:
            out = {OTHER: 1.0}  # a profile root: nobody to charge
        if clean:
            memo[func] = out
        return out, clean

    seconds: Dict[str, float] = {}
    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        for name, fraction in shares(func, frozenset())[0].items():
            seconds[name] = seconds.get(name, 0.0) + tottime * fraction
    return seconds, sum(stat[2] for stat in stats.values())
