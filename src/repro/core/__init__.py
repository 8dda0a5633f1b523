"""CHC core: the chain framework and its correctness machinery (§3–§5).

This package is the paper's primary contribution:

* :mod:`~repro.core.clock` / :mod:`~repro.core.bitvector` — per-packet
  logical clocks (root instance ID in the high bits) and the 32-bit XOR
  bit-vector identifiers (§5, §5.4).
* :mod:`~repro.core.nf_api` — the vertex programming model: NFs declare
  state objects (scope + access pattern) and implement ``process``.
* :mod:`~repro.core.dag` — logical chains (DAG API, §3) compiled into
  physical chains with per-vertex parallelism.
* :mod:`~repro.core.root` — the entry splitter: clock stamping, packet
  logging, the delete/XOR protocol, replay (§5).
* :mod:`~repro.core.splitter` — scope-aware traffic partitioning (§4.1).
* :mod:`~repro.core.instance` — the NF instance runtime: worker threads,
  framework-managed queues, measurement (§4.2).
* :mod:`~repro.core.chain_runtime` — wires root, instances, splitters,
  store clients, and the egress sink into a running chain.
* :mod:`~repro.core.handover` — cross-instance state handover (Figure 4).
* :mod:`~repro.core.cloning` — straggler mitigation with clone + replay
  and duplicate suppression (§5.3).
* :mod:`~repro.core.recovery` — NF and root failover (§5.4).
* :mod:`~repro.core.supervisor` — failure-notification handling: ordered
  (root → store → NF) recovery dispatch with dependency probing and a
  per-component recovery timeline.
* :mod:`~repro.core.vertex_manager` — statistics aggregation feeding
  operator-supplied scaling/straggler logic (§3).
"""
