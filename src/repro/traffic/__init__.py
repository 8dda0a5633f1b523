"""Traffic substrate: packets, flows, and synthetic traces.

The paper evaluates with two packet traces captured between a campus and
AWS EC2 (Trace1: 3.8M packets / 1.7K connections, median 368B; Trace2:
6.4M packets / 199K connections, median 1434B). Those traces are not
public, so this package generates **synthetic analogues** with matching
summary statistics — flow counts, packet-size medians, TCP/UDP mix, and
heavy-tailed flow lengths — under a seeded RNG so every experiment is
deterministic. Experiments in the paper depend only on these statistics
and on controllable event ordering (e.g. where trojan signatures sit in
the stream), all of which the generators reproduce.

The package re-exports nothing but the two names
``benchmarks/perf/simbench.py`` imports from it, and those only on first
access (PEP 562): every :mod:`repro.dist` process imports
:mod:`repro.traffic.packet`, and must not pay for the trace generators on
the way (DESIGN.md §9.1).
"""

#: Lazily re-exported names -> the submodule that defines them.
_LAZY = {
    "ReplaySource": "repro.traffic.workload",
    "make_trace2": "repro.traffic.trace",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(module), name)
