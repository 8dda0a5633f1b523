"""chclint — AST lint rules for the CHC reproduction's house invariants.

Every guarantee this repo reproduces (loss-free Figure-4 handover, XOR
bit-vector log draining, TS-selection recovery, seed-reproducible
campaigns) rests on conventions the language does not enforce. chclint
turns them into machine-checked rules:

====== =================================================================
Code   Rule
====== =================================================================
CHC001 Unseeded / module-level randomness: ``random.*`` calls (other
       than constructing a ``random.Random``), ``from random import
       ...``, or any use of ``numpy.random`` inside ``src/repro``. All
       nondeterminism must flow through seeded ``random.Random``
       instances.
CHC002 Wall-clock reads (``time.time``, ``perf_counter``, ``monotonic``,
       ``datetime.now`` …) outside ``tools/`` / benchmark code / the
       ``repro/parallel`` campaign fabric. The simulator is the only
       clock; wall-clock reads break seed-reproducibility and
       virtual-time accounting.
CHC003 Iterating a ``set``/``frozenset`` or ``dict.values()`` where the
       loop body schedules or emits (``put``, ``send``, ``emit``,
       ``process``, …) without ``sorted(...)``. Set order depends on
       PYTHONHASHSEED; it is the classic silent nondeterminism leak.
CHC004 ``id(obj)`` used as a persisted key (dict subscript,
       ``get``/``setdefault``/``pop``/``add``/``discard``/``remove``,
       or membership tests). A GC'd object's id is reused, so a later
       object can silently collide with a dead one's entry.
CHC005 NF code (``repro/nfs/``) writing state outside the store API:
       ``self.<attr>`` assignment outside ``__init__``, ``global``
       statements, or reaching into store internals (``_data``,
       ``_cache``, ``_owners``). Per-flow/shared state must go through
       the scope API or it is invisible to handover and recovery.
CHC006 Speculative NF (``repro/nfs/``, ``speculative = True``) writing
       to its input packet: ``process`` assigning to an attribute or item
       of its ``packet`` parameter. The fast path (DESIGN.md §10) runs
       the body ahead against a shadow of the store and, when that
       declines, runs it again from the top on the general path — the
       journal is dropped, but a field written on the packet would
       survive into the second run and downstream. Copy first
       (``out = packet.copy()``), as the NAT and the load balancer do.
CHC007 Instance membership written outside ``core/chain_runtime.py``
       (and the splitter it drives): assigning to, through, or calling a
       mutating method on ``.hash_members``, or calling a splitter's
       ``add_instance`` / ``remove_instance`` / ``replace_instance``.
       Which instances exist and where their traffic goes is five
       containers with one postcondition (DESIGN.md "Instance
       membership"); ``ChainRuntime.add_instance`` /
       ``.replace_instance`` / ``.retire_instance`` are the only writers,
       and every hand-edited subset has left a corpse or a doubled slot
       behind. Also ``.retire_instance(...)`` called
       anywhere but ``core/handover.py`` and ``core/cloning.py``: a live
       instance leaves service through ``handover.evacuate`` (the
       autoscaler and the maintenance director call it like anyone
       else) — a hand-written drain strands owned state or the packet
       its probe could not see.
CHC008 ``import socket`` / ``import pickle`` anywhere but
       ``repro/dist/transport.py``. The transport module is the single
       place raw sockets and wire encoding live: it frames messages,
       uses an explicit registered-class codec (never bare pickle,
       which executes arbitrary constructors on decode), and counts
       faults. Any other module opening sockets would bypass the
       reconnect/backoff/fault-counter machinery the distributed-fabric
       evidence checks rely on.
CHC009 A ``CampaignPool`` constructed anywhere but ``repro/parallel/``
       (the pool and the one shared campaign runner). A scenario family
       — the determinism gate's same-seed double runs included — declares
       itself to ``repro.parallel.campaign`` instead of fanning out its
       own items: a second runner means a second copy of the work
       function, merge order, failure taxonomy and payload envelope to
       keep byte-identical.
CHC010 ``DatastoreInstance`` private state mutated outside
       ``repro/store/``: assignment, ``|=``, ``del`` or a mutating
       method on another object's ``._data`` / ``._owners`` / ``._ts`` /
       ``._clones`` / ``._update_log`` / ``._pruned_clocks`` / watcher
       maps, or a ``._log_committed(...)`` call. What travels with a key
       when it changes node is decided once, in ``repro.store.rehome``;
       the two hand-rolled copies it replaced had already drifted.
CHC011 ``Simulator._heap`` / ``._micro`` touched outside
       ``repro/simnet/engine.py``. The engine's inline tail
       continuation (DESIGN.md §5) asks "is anything else due at this
       instant?" of those two queues, and is only equivalent to
       enqueueing because the asking site is the caller's last act
       before returning to the run loop; copied anywhere else it
       reorders same-instant work. Monitors read ``Simulator.heap_size``
       / ``next_event_time()`` instead.
CHC012 A relay process: ``<sim>.process(f(...))`` where every ``yield`` of
       ``f`` (defined in the same module) is ``<expr>.get()`` and there
       is no ``yield from``. Such a loop only moves items from a mailbox
       to a handler; it adds no simulated time and costs an event, a
       ``Channel.get`` and a generator resume per item. A relay is a
       handler, not a process (DESIGN.md §5): give the producer the
       handler (``RpcEndpoint(on_request=..., on_message=...)``). A
       process is for code that *waits or serves* — a second kind of
       ``yield`` (a timeout, an RPC) makes it one. Benchmark code is
       exempt: ``benchmarks/perf/direct.py`` times exactly that loop.
CHC013 Import-time weight on a chain process (``repro/`` only): a
       module-level ``import numpy`` anywhere, or a module-level import
       of the campaign layer (``repro.parallel``, ``repro.*.campaign``,
       ``repro.chaos.overload``) from a dataplane package (``core``,
       ``simnet``, ``store``, ``nfs``, ``traffic``, ``dist`` — but not
       ``dist/campaign.py``). A shard, a store node and a failover
       instance start as fresh processes, and whatever their import
       graph loads is start-up time and resident memory they pay
       before the first packet (DESIGN.md §9.1). Import inside the
       function that needs it, or move what the dataplane needs into a
       module without campaign imports (``repro.chaos.counters``).
CHC014 A package ``__init__`` under ``repro/`` importing a submodule at
       module level (``from repro.core.root import Root``, ``from . import
       x``). Every ``python -m repro.dist.<x>`` imports each package on
       its path first, so an eager re-export makes a store node load the
       chain (DESIGN.md §9.1). Callers name the submodule; a PEP 562
       ``__getattr__`` that imports on first access (``repro.traffic``'s
       lazy table) passes. ``repro.nfs`` and ``repro.bench`` are exempt:
       no dataplane process imports them.
====== =================================================================

Suppression: append ``# chclint: disable=CHC003`` (comma-separate for
several codes, or ``disable=all``) to the offending line.

Run as ``python -m repro.analysis.lint [paths ...]``; add ``--json`` for
a machine-readable report. Exit status: 0 clean, 1 findings, 2 bad
input/syntax errors.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import re
import sys
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

ALL_RULES: Dict[str, str] = {
    "CHC001": "unseeded or module-level randomness",
    "CHC002": "wall-clock read outside tools/benchmarks",
    "CHC003": "unsorted set/dict.values() iteration feeding scheduling or emission",
    "CHC004": "id(obj) used as a persisted key",
    "CHC005": "NF state write bypassing the store API",
    "CHC006": "speculative NF writing to its input packet",
    "CHC007": "instance membership written outside chain_runtime, or a hand-rolled retirement",
    "CHC008": "raw socket/pickle import outside repro.dist.transport",
    "CHC009": "CampaignPool constructed outside the shared campaign runner",
    "CHC010": "DatastoreInstance private state mutated outside repro.store",
    "CHC011": "Simulator scheduling queues touched outside repro.simnet.engine",
    "CHC012": "relay process: a generator that only forwards what it get()s",
    "CHC013": "numpy, or the campaign layer on the dataplane, imported at module level",
    "CHC014": "package __init__ importing a submodule at module level",
}

#: Path fragments whose files may read the wall clock (CHC002 exempt):
#: host-side drivers, benchmark harnesses, the parallel campaign fabric
#: (``repro/parallel`` — worker timeouts and per-run wall accounting are
#: host-side measurements, never simulation clocks), and the distributed
#: shard fabric (``repro/dist`` — real processes paced against real
#: wall-clock time is the whole point).
WALL_CLOCK_EXEMPT_PARTS = ("tools", "benchmarks", "bench", "parallel", "dist")

#: Modules whose import is confined to ``repro/dist/transport.py``
#: (CHC008): raw sockets and ambient-authority serialization.
RAW_TRANSPORT_MODULES = ("socket", "pickle")

#: Packages a chain process runs (CHC013): their module-level imports are
#: loaded by every shard, store node and failover instance at start-up.
DATAPLANE_PACKAGES = {"core", "simnet", "store", "nfs", "traffic", "dist"}

#: Packages whose ``__init__`` may re-export (CHC014 exempt): the NFs and
#: the figure helpers, which no dataplane process imports.
REEXPORTING_PACKAGES = {"nfs", "bench"}

#: The writers of instance membership (CHC007 exempt): the chain runtime
#: and the splitter whose lists it drives.
MEMBERSHIP_EXEMPT_FILES = {"splitter.py", "chain_runtime.py"}
#: Who else may call ``ChainRuntime.retire_instance``: the drain-then-retire
#: primitive (``handover.evacuate``) and §5.3's retain, which kills first.
RETIREMENT_CALLERS = {"handover.py", "cloning.py"}
#: The membership lists CHC007 guards, and a splitter's own writers.
MEMBERSHIP_ATTRS = {"hash_members"}
SPLITTER_MEMBERSHIP_METHODS = {"add_instance", "remove_instance", "replace_instance"}

#: ``DatastoreInstance`` private containers (CHC010): mutable only from
#: ``repro/store/`` — everyone else goes through ``repro.store.rehome``.
STORE_PRIVATE_ATTRS = {
    "_data", "_owners", "_ts", "_clones", "_update_log", "_pruned_clocks",
    "_value_watchers", "_owner_watchers",
}
STORE_MUTATORS = {"add", "discard", "remove", "pop", "popitem", "clear", "update", "setdefault"}

#: The simulator's two scheduling queues (CHC011): private to the engine.
ENGINE_PRIVATE_ATTRS = {"_heap", "_micro"}

#: Mutating method names: calling any of these on (an item of) a
#: membership container rewrites it in place.
MUTATING_LIST_METHODS = {
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "clear",
    "sort",
    "reverse",
    "__setitem__",
    "update",
    "setdefault",
}

WALL_CLOCK_TIME_ATTRS = {
    "time",
    "time_ns",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
}
WALL_CLOCK_DATETIME_ATTRS = {"now", "utcnow", "today"}

#: Call names that mean "this loop feeds the scheduler or the wire".
EMIT_NAMES = {
    "put",
    "put_forced",
    "put_front",
    "send",
    "emit",
    "inject",
    "enqueue",
    "dispatch",
    "schedule",
    "process",
    "succeed",
    "fail",
    "respond",
    "call_soon",
}

#: Container methods whose first argument becomes a persisted key.
ID_KEY_METHODS = {"get", "setdefault", "pop", "add", "discard", "remove", "append"}

#: numpy.random names that *construct seeded generators* — these are the
#: sanctioned way to use numpy randomness, not the process-global state.
NUMPY_SEEDED_CTORS = {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox", "MT19937"}

_SUPPRESS_RE = re.compile(r"chclint:\s*disable=([A-Za-z0-9, ]+)")


@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


def _suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number → set of suppressed codes (``{"all"}`` for all)."""
    out: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match is None:
                continue
            codes = {part.strip() for part in match.group(1).split(",") if part.strip()}
            out.setdefault(tok.start[0], set()).update(
                {"all"} if "all" in {c.lower() for c in codes} else codes
            )
    except tokenize.TokenError:
        pass
    return out


def _exempt_codes(path: Path) -> Set[str]:
    parts = set(path.parts)
    exempt: Set[str] = set()
    if parts & set(WALL_CLOCK_EXEMPT_PARTS):
        exempt.add("CHC002")
    if "nfs" not in parts:
        exempt.add("CHC005")
        exempt.add("CHC006")
    if path.name in MEMBERSHIP_EXEMPT_FILES:
        exempt.add("CHC007")
    if path.name == "transport.py" and "dist" in parts:
        exempt.add("CHC008")
    if "parallel" in parts:
        exempt.add("CHC009")
    if "store" in parts:
        exempt.add("CHC010")
    if path.name == "engine.py" and "simnet" in parts:
        exempt.add("CHC011")
    if "benchmarks" in parts:
        exempt.add("CHC012")
    package = _repro_package(path)
    if package is None:
        exempt.add("CHC013")
    if package is None or path.name != "__init__.py" or package in REEXPORTING_PACKAGES:
        exempt.add("CHC014")
    return exempt


def _repro_package(path: Path) -> Optional[str]:
    """The package under ``repro/`` that ``path`` belongs to (``""`` for a
    top-level module), or None for a file outside ``repro/``."""
    dirs = path.parts[:-1]
    if "repro" not in dirs:
        return None
    below = dirs[len(dirs) - dirs[::-1].index("repro"):]
    return below[0] if below else ""


def _campaign_layer(module: str) -> bool:
    """``repro.parallel[.*]``, ``repro.<package>.campaign`` or
    ``repro.chaos.overload`` (CHC013)."""
    parts = module.split(".")
    return parts[0] == "repro" and (
        parts[1:2] == ["parallel"]
        or parts[2:3] == ["campaign"]
        or parts[1:3] == ["chaos", "overload"]
    )


def _store_private(node: ast.AST) -> bool:
    """``x._data`` / ``x._data[...]`` — but not a class's own ``self._data``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return (
        isinstance(node, ast.Attribute)
        and node.attr in STORE_PRIVATE_ATTRS
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    )


def _membership_attr(node: ast.AST) -> Optional[str]:
    """``x.hash_members`` / ``x.hash_members[i]`` -> the attribute name."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in MEMBERSHIP_ATTRS:
        return node.attr
    return None


def _is_splitter(node: ast.AST) -> bool:
    """Receiver heuristic: ``splitter`` / ``rt.splitter(v)`` / ``rt.splitters[v]``."""
    while isinstance(node, (ast.Call, ast.Subscript)):
        node = node.func if isinstance(node, ast.Call) else node.value
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return "splitter" in name.lower()


_MEMBERSHIP_ADVICE = (
    "membership has one writer: ChainRuntime.add_instance / "
    ".replace_instance / .retire_instance (DESIGN.md \"Instance membership\")"
)


def _is_id_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
        and len(node.args) == 1
    )


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _own_nodes(function: ast.AST) -> Iterable[ast.AST]:
    """Nodes of a function body, not descending into nested definitions."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            stack.extend(ast.iter_child_nodes(node))


def _write_targets(node: ast.AST) -> List[ast.AST]:
    """What an assignment / ``del`` statement writes to ([] for other nodes)."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        return node.targets
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


def _is_relay(function: ast.AST) -> bool:
    """A generator whose every ``yield`` is ``<expr>.get()`` (CHC012)."""
    yields = 0
    for node in _own_nodes(function):
        if isinstance(node, (ast.YieldFrom, ast.Await)):
            return False
        if isinstance(node, ast.Yield):
            value = node.value
            if not (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "get"
            ):
                return False
            yields += 1
    return yields > 0


class _Checker(ast.NodeVisitor):
    def __init__(self, path: Path, rel: str):
        self.path = path
        self.rel = rel
        self.findings: List[Finding] = []
        self.disabled = _exempt_codes(path)
        # CHC001 alias tracking
        self.random_modules: Set[str] = set()
        self.random_funcs: Set[str] = set()
        self.numpy_modules: Set[str] = set()
        # CHC002 alias tracking
        self.time_modules: Set[str] = set()
        self.datetime_names: Set[str] = set()  # names bound to the datetime class/module
        # CHC003 set inference: per-scope known-set names; class-level set attrs
        self.scope_sets: List[Set[str]] = [set()]
        self.self_set_attrs: Set[str] = set()
        # CHC005 context
        self.function_stack: List[str] = []
        # CHC012: names of this module's relay generators
        self.relays: Set[str] = set()
        # CHC013: does this file run in a chain process?
        package = _repro_package(path)
        self.dataplane = package in DATAPLANE_PACKAGES and not (
            package == "dist" and path.name == "campaign.py"
        )

    # ------------------------------------------------------------------

    def visit_Module(self, node: ast.Module) -> None:
        self.relays = {
            function.name
            for function in ast.walk(node)
            if isinstance(function, ast.FunctionDef) and _is_relay(function)
        }
        self.generic_visit(node)

    def report(self, node: ast.AST, code: str, message: str) -> None:
        if code in self.disabled:
            return
        self.findings.append(
            Finding(
                path=self.rel,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                code=code,
                message=message,
            )
        )

    # ------------------------------------------------------------------
    # imports (alias bookkeeping + CHC001/CHC002 from-imports)
    # ------------------------------------------------------------------

    def _check_chc013(self, node: ast.AST, modules: Sequence[str]) -> None:
        """A module-level import of numpy, or of the campaign layer from a
        dataplane package."""
        if self.function_stack:
            return  # paid only by the caller of that function
        if modules[0].split(".")[0] == "numpy":
            self.report(
                node,
                "CHC013",
                f"module-level import of {modules[0]}: every process that imports "
                "this module loads numpy at start-up; import it inside the "
                "function that needs it (DESIGN.md §9.1)",
            )
            return
        campaign = next((m for m in modules if _campaign_layer(m)), None)
        if self.dataplane and campaign is not None:
            self.report(
                node,
                "CHC013",
                f"module-level import of {campaign} from a dataplane package: "
                "every shard, store node and failover instance would load the "
                "campaign layer at start-up; import from a module without "
                "campaign imports, or inside the function (DESIGN.md §9.1)",
            )

    def _check_chc014(self, node: ast.AST, module: str, level: int = 0) -> None:
        """A package ``__init__`` importing a repro module at module level."""
        if self.function_stack or not (level or module.split(".")[0] == "repro"):
            return
        self.report(
            node,
            "CHC014",
            f"package __init__ imports {'.' * level + module} at module level: "
            "every process that imports anything in this package loads it; "
            "re-export nothing and let callers name the submodule "
            "(DESIGN.md §9.1)",
        )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_chc013(node, [alias.name])
            self._check_chc014(node, alias.name)
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self.random_modules.add(bound)
            elif alias.name in ("numpy", "numpy.random"):
                self.numpy_modules.add(bound)
                if alias.name == "numpy.random":
                    self.report(
                        node,
                        "CHC001",
                        "numpy.random is process-global state; use a seeded "
                        "random.Random (or numpy Generator) instance",
                    )
            elif alias.name == "time":
                self.time_modules.add(bound)
            elif alias.name == "datetime":
                self.datetime_names.add(bound)
            if alias.name.split(".")[0] in RAW_TRANSPORT_MODULES:
                self.report(
                    node,
                    "CHC008",
                    f"import {alias.name}: raw sockets/pickle are confined to "
                    "repro.dist.transport — use its framed connections and "
                    "registered-class codec instead",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self._check_chc014(node, node.module or "", node.level)
        if node.module and not node.level:
            self._check_chc013(
                node, [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            )
        if node.module and node.module.split(".")[0] in RAW_TRANSPORT_MODULES:
            self.report(
                node,
                "CHC008",
                f"from {node.module} import ...: raw sockets/pickle are "
                "confined to repro.dist.transport — use its framed "
                "connections and registered-class codec instead",
            )
        if node.module == "random":
            for alias in node.names:
                if alias.name in ("Random", "SystemRandom"):
                    continue
                self.random_funcs.add(alias.asname or alias.name)
                self.report(
                    node,
                    "CHC001",
                    f"'from random import {alias.name}' binds the module-level "
                    "(unseeded) generator; use a seeded random.Random instance",
                )
        elif node.module == "time":
            for alias in node.names:
                if alias.name in WALL_CLOCK_TIME_ATTRS:
                    self.report(
                        node,
                        "CHC002",
                        f"'from time import {alias.name}' reads the wall clock; "
                        "simulation code must use sim.now",
                    )
        elif node.module == "datetime":
            for alias in node.names:
                if alias.name == "datetime":
                    self.datetime_names.add(alias.asname or alias.name)
        elif node.module in ("numpy", "numpy.random"):
            for alias in node.names:
                if node.module == "numpy" and alias.name == "random":
                    self.numpy_modules.add("numpy")
                    self.report(
                        node,
                        "CHC001",
                        "numpy.random is process-global state; use a seeded "
                        "random.Random (or numpy Generator) instance",
                    )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # calls: CHC001, CHC002, CHC004 (method-key forms)
    # ------------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            owner = func.value.id
            if owner in self.random_modules and func.attr not in ("Random", "SystemRandom"):
                self.report(
                    node,
                    "CHC001",
                    f"random.{func.attr}() uses the module-level (unseeded) "
                    "generator; use a seeded random.Random instance",
                )
            if owner in self.time_modules and func.attr in WALL_CLOCK_TIME_ATTRS:
                self.report(
                    node,
                    "CHC002",
                    f"time.{func.attr}() reads the wall clock; simulation code "
                    "must use sim.now",
                )
            if owner in self.datetime_names and func.attr in WALL_CLOCK_DATETIME_ATTRS:
                self.report(
                    node,
                    "CHC002",
                    f"datetime.{func.attr}() reads the wall clock; simulation "
                    "code must use sim.now",
                )
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute):
            inner = func.value
            if (
                isinstance(inner.value, ast.Name)
                and inner.value.id in self.datetime_names
                and func.attr in WALL_CLOCK_DATETIME_ATTRS
            ):
                self.report(
                    node,
                    "CHC002",
                    f"datetime.datetime.{func.attr}() reads the wall clock; "
                    "simulation code must use sim.now",
                )
        if isinstance(func, ast.Name) and func.id in self.random_funcs:
            self.report(
                node,
                "CHC001",
                f"{func.id}() is the module-level (unseeded) random generator; "
                "use a seeded random.Random instance",
            )
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ID_KEY_METHODS
            and node.args
            and _is_id_call(node.args[0])
        ):
            self.report(
                node,
                "CHC004",
                f".{func.attr}(id(...)) persists an object id as a key; ids are "
                "reused after GC — key on a monotonic id field instead",
            )
        # CHC007: membership mutators, splitter joins/exits, .retire_instance(...)
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_LIST_METHODS:
            attr = _membership_attr(func.value)
            if attr is not None:
                self.report(
                    node,
                    "CHC007",
                    f".{attr}.{func.attr}(...) edits instance membership in "
                    f"place — {_MEMBERSHIP_ADVICE}",
                )
        if (
            isinstance(func, ast.Attribute)
            and func.attr in SPLITTER_MEMBERSHIP_METHODS
            and _is_splitter(func.value)
        ):
            self.report(
                node,
                "CHC007",
                f"Splitter.{func.attr}(...) called directly edits half the "
                f"books — {_MEMBERSHIP_ADVICE}",
            )
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "retire_instance"
            and self.path.name not in RETIREMENT_CALLERS
        ):
            self.report(
                node,
                "CHC007",
                ".retire_instance(...) called directly — retirement must go "
                "through handover.evacuate, which moves owned state via the "
                "Figure-4 handover and retires in the instant nothing is in flight",
            )
        self._check_chc010(
            node,
            isinstance(func, ast.Attribute)
            and (
                func.attr == "_log_committed"
                or (func.attr in STORE_MUTATORS and _store_private(func.value))
            ),
        )
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "process"
            and node.args
            and isinstance(node.args[0], ast.Call)
            and _call_name(node.args[0]) in self.relays
        ):
            self.report(
                node,
                "CHC012",
                f"{_call_name(node.args[0])}() only forwards what it get()s — "
                "a relay is a handler, not a process (DESIGN.md §5): hand the "
                "producer a callback instead of a mailbox and a loop",
            )
        if _call_name(node) == "CampaignPool":
            self.report(
                node,
                "CHC009",
                "CampaignPool constructed outside repro.parallel — declare "
                "a CampaignFamily and sweep it with "
                "repro.parallel.campaign.run_campaign instead of growing "
                "another harness",
            )
        self.generic_visit(node)

    # CHC001: attribute access on numpy's `random` submodule. Seeded
    # generator constructors (np.random.default_rng(seed), …) are the
    # sanctioned idiom and pass; everything else is process-global state.
    def visit_Attribute(self, node: ast.Attribute) -> None:
        value = node.value
        # CHC011: another object's ._heap / ._micro (a class's own
        # ``self._heap`` is not the simulator's).
        if node.attr in ENGINE_PRIVATE_ATTRS and not (
            isinstance(value, ast.Name) and value.id == "self"
        ):
            self.report(
                node,
                "CHC011",
                f"Simulator.{node.attr} is private to repro.simnet.engine — "
                "use Simulator.heap_size / next_event_time(), and leave "
                "\"is anything else due now?\" to the engine's tail calls",
            )
        if (
            isinstance(value, ast.Attribute)
            and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and value.value.id in self.numpy_modules
        ):
            if node.attr not in NUMPY_SEEDED_CTORS:
                self.report(
                    node,
                    "CHC001",
                    f"numpy.random.{node.attr} is process-global state; use a "
                    "seeded random.Random (or np.random.default_rng) instance",
                )
            return  # don't re-flag the inner np.random access
        if (
            node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in self.numpy_modules
        ):
            self.report(
                node,
                "CHC001",
                "numpy.random is process-global state; use a seeded "
                "random.Random (or np.random.default_rng) instance",
            )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # CHC004: subscript / membership forms
    # ------------------------------------------------------------------

    def visit_Subscript(self, node: ast.Subscript) -> None:
        key = node.slice
        if isinstance(key, ast.Index):  # pragma: no cover - py<3.9 AST shape
            key = key.value  # type: ignore[attr-defined]
        if _is_id_call(key):
            self.report(
                node,
                "CHC004",
                "subscripting with id(...) persists an object id as a key; ids "
                "are reused after GC — key on a monotonic id field instead",
            )
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        if (
            _is_id_call(node.left)
            and len(node.ops) == 1
            and isinstance(node.ops[0], (ast.In, ast.NotIn))
        ):
            self.report(
                node,
                "CHC004",
                "membership test on stored id(...) keys; ids are reused after "
                "GC — key on a monotonic id field instead",
            )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # CHC003: set / dict.values() iteration feeding emission
    # ------------------------------------------------------------------

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return True
        if isinstance(node, ast.Name):
            return any(node.id in scope for scope in self.scope_sets)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr in self.self_set_attrs
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    @staticmethod
    def _is_values_call(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "values"
            and not node.args
        )

    @staticmethod
    def _annotation_is_set(annotation: Optional[ast.AST]) -> bool:
        if annotation is None:
            return False
        if isinstance(annotation, ast.Name):
            return annotation.id in ("set", "frozenset", "Set", "FrozenSet")
        if isinstance(annotation, ast.Subscript) and isinstance(annotation.value, ast.Name):
            return annotation.value.id in ("set", "frozenset", "Set", "FrozenSet")
        return False

    def _note_assignment(self, target: ast.AST, value: Optional[ast.AST]) -> None:
        is_set = value is not None and self._is_set_expr(value)
        if isinstance(target, ast.Name):
            if is_set:
                self.scope_sets[-1].add(target.id)
            else:
                self.scope_sets[-1].discard(target.id)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and is_set
        ):
            self.self_set_attrs.add(target.attr)

    def _body_emits(self, body: Sequence[ast.stmt]) -> Optional[ast.Call]:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    name = _call_name(node)
                    if name in EMIT_NAMES:
                        return node
        return None

    def _check_chc007_assign(
        self, targets: Iterable[ast.AST], node: ast.AST, verb: str = "assignment to"
    ) -> None:
        if "CHC007" in self.disabled:
            return
        for target in targets:
            attr = _membership_attr(target)
            if attr is not None:
                self.report(
                    node,
                    "CHC007",
                    f"{verb} .{attr} rewrites instance membership — {_MEMBERSHIP_ADVICE}",
                )

    def _check_chc010(self, node: ast.AST, mutates: bool) -> None:
        if mutates:
            self.report(
                node,
                "CHC010",
                "DatastoreInstance private state mutated outside repro.store "
                "— moving or rebuilding store state goes through "
                "repro.store.rehome (successor / transfer / Rehoming)",
            )

    def visit_Delete(self, node: ast.Delete) -> None:
        self._check_chc010(node, any(map(_store_private, node.targets)))
        self._check_chc007_assign(node.targets, node, "del on")
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._note_assignment(target, node.value)
        self.generic_visit(node)
        self._check_chc005_assign(node.targets, node)
        self._check_chc007_assign(node.targets, node)
        self._check_chc010(node, any(map(_store_private, node.targets)))

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if self._annotation_is_set(node.annotation) and isinstance(node.target, ast.Name):
            self.scope_sets[-1].add(node.target.id)
        elif (
            self._annotation_is_set(node.annotation)
            and isinstance(node.target, ast.Attribute)
            and isinstance(node.target.value, ast.Name)
            and node.target.value.id == "self"
        ):
            self.self_set_attrs.add(node.target.attr)
        else:
            self._note_assignment(node.target, node.value)
        self.generic_visit(node)
        self._check_chc005_assign([node.target], node)
        self._check_chc007_assign([node.target], node)
        self._check_chc010(node, _store_private(node.target))

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.generic_visit(node)
        self._check_chc005_assign([node.target], node)
        self._check_chc007_assign([node.target], node)
        self._check_chc010(node, _store_private(node.target))

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, node.body, node)
        self.generic_visit(node)

    def _check_iteration(self, iter_node: ast.AST, body: Sequence[ast.stmt], where: ast.AST) -> None:
        if self._is_set_expr(iter_node):
            emit = self._body_emits(body)
            if emit is not None:
                self.report(
                    where,
                    "CHC003",
                    "iterating a set in a loop that emits/schedules "
                    f"(.{_call_name(emit)}) — set order depends on the hash "
                    "seed; wrap the iterable in sorted(...)",
                )
        elif self._is_values_call(iter_node):
            emit = self._body_emits(body)
            if emit is not None:
                self.report(
                    where,
                    "CHC003",
                    "iterating dict.values() in a loop that emits/schedules "
                    f"(.{_call_name(emit)}) — make the order explicit with "
                    "sorted(...) over keys or items",
                )

    def _visit_comprehension(self, node) -> None:
        for gen in node.generators:
            if self._is_set_expr(gen.iter) or self._is_values_call(gen.iter):
                elt = getattr(node, "elt", None) or getattr(node, "value", None)
                emit = self._body_emits([ast.Expr(value=elt)]) if elt is not None else None
                if emit is not None:
                    self.report(
                        node,
                        "CHC003",
                        "comprehension over a set/dict.values() whose element "
                        f"expression emits/schedules (.{_call_name(emit)}); wrap "
                        "the iterable in sorted(...)",
                    )
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    # ------------------------------------------------------------------
    # CHC005: NF state discipline (only active under repro/nfs/)
    # ------------------------------------------------------------------

    def _check_chc005_assign(self, targets: Iterable[ast.AST], node: ast.AST) -> None:
        if "CHC005" in self.disabled:
            return
        if not self.function_stack or self.function_stack[-1] in ("__init__", "state_specs"):
            return
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                self.report(
                    node,
                    "CHC005",
                    f"NF writes self.{target.attr} outside __init__ — per-flow/"
                    "shared state must go through the store scope API or it is "
                    "invisible to handover and recovery",
                )

    def visit_Global(self, node: ast.Global) -> None:
        if "CHC005" not in self.disabled and self.function_stack:
            self.report(
                node,
                "CHC005",
                "NF mutates module globals — state must go through the store "
                "scope API or it is invisible to handover and recovery",
            )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # CHC006: a speculative body leaves its input packet alone
    # (only active under repro/nfs/)
    # ------------------------------------------------------------------

    def _check_chc006(self, cls: ast.ClassDef) -> None:
        if "CHC006" in self.disabled or not any(
            isinstance(item, ast.Assign)
            and isinstance(item.value, ast.Constant)
            and item.value.value is True
            and any(isinstance(t, ast.Name) and t.id == "speculative" for t in item.targets)
            for item in cls.body
        ):
            return  # the class does not set ``speculative = True``
        for item in cls.body:
            # process(self, packet, state): the packet is the second argument
            if not (
                isinstance(item, ast.FunctionDef)
                and item.name == "process"
                and len(item.args.args) >= 2
            ):
                continue
            packet = item.args.args[1].arg
            for node in _own_nodes(item):
                for target in _write_targets(node):
                    base = target
                    while isinstance(base, (ast.Attribute, ast.Subscript)):
                        base = base.value
                    if (
                        base is not target
                        and isinstance(base, ast.Name)
                        and base.id == packet
                    ):
                        self.report(
                            node,
                            "CHC006",
                            f"speculative process() writes to its input "
                            f"{packet!r} — a declined run-ahead reruns the "
                            "body, and the write would survive the decline; "
                            f"copy first (out = {packet}.copy())",
                        )

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._check_chc006(node)
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # scope bookkeeping
    # ------------------------------------------------------------------

    def _visit_function(self, node) -> None:
        self.function_stack.append(node.name)
        self.scope_sets.append(set())
        for arg in list(node.args.args) + list(getattr(node.args, "kwonlyargs", ())):
            if self._annotation_is_set(arg.annotation):
                self.scope_sets[-1].add(arg.arg)
        self.generic_visit(node)
        self.scope_sets.pop()
        self.function_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function


def check_source(source: str, path: Path, root: Optional[Path] = None) -> List[Finding]:
    """Lint one file's source; returns suppression-filtered findings."""
    rel = str(path)
    if root is not None:
        try:
            rel = str(path.relative_to(root))
        except ValueError:
            rel = str(path)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Finding(
                path=rel,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                code="CHC000",
                message=f"syntax error: {exc.msg}",
            )
        ]
    checker = _Checker(path, rel)
    checker.visit(tree)
    suppressed = _suppressions(source)
    out = []
    for finding in checker.findings:
        codes = suppressed.get(finding.line, ())
        if "all" in codes or finding.code in codes:
            continue
        out.append(finding)
    return sorted(out, key=lambda f: (f.path, f.line, f.col, f.code))


def check_file(path: Path, root: Optional[Path] = None) -> List[Finding]:
    return check_source(path.read_text(encoding="utf-8"), path, root=root)


def iter_python_files(paths: Iterable[Path]) -> Iterable[Path]:
    for path in paths:
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if "__pycache__" in sub.parts or any(
                    part.startswith(".") for part in sub.parts
                ):
                    continue
                yield sub
        elif path.suffix == ".py":
            yield path


def run_paths(
    paths: Sequence[Path],
    select: Optional[Set[str]] = None,
    root: Optional[Path] = None,
) -> List[Finding]:
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(check_file(path, root=root))
    if select:
        findings = [f for f in findings if f.code in select or f.code == "CHC000"]
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="chclint", description="CHC repo-invariant linter (see DESIGN.md §9.1)"
    )
    parser.add_argument("paths", nargs="+", help="files or directories to lint")
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument(
        "--select",
        default="",
        help="comma-separated rule codes to enable (default: all)",
    )
    args = parser.parse_args(argv)

    select = {code.strip() for code in args.select.split(",") if code.strip()} or None
    if select and not select <= set(ALL_RULES):
        parser.error(f"unknown rule codes: {sorted(select - set(ALL_RULES))}")

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        parser.error(f"no such path: {missing[0]}")

    findings = run_paths(paths, select=select)
    if args.json:
        report = {
            "tool": "chclint",
            "rules": ALL_RULES,
            "findings": [f.as_dict() for f in findings],
            "count": len(findings),
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(finding.format())
        if findings:
            print(f"chclint: {len(findings)} finding(s)")
    if any(f.code == "CHC000" for f in findings):
        return 2
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
