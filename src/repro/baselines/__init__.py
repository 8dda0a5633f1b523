"""Comparator systems reimplemented for head-to-head evaluation (§2.2, §7).

* :mod:`~repro.baselines.traditional` — "traditional" NFs: state lives
  inside the NF process (no externalization, no fault tolerance). The
  performance baseline every Figure 8/10 experiment is measured against.
* :mod:`~repro.baselines.ftmb` — FTMB-style rollback recovery [28]:
  periodic checkpoints stall packet processing (the paper emulates FTMB
  with a 5000µs queuing delay every 200ms; we do the same), inputs are
  logged and replayed on recovery.
* :mod:`~repro.baselines.opennf` — OpenNF [16]: a controller serializes
  strongly-consistent shared-state updates by forwarding each packet to
  every instance and awaiting ACKs; loss-free moves extract, transfer and
  install per-flow state through the controller.
* :mod:`~repro.baselines.statelessnf` — StatelessNF-style [17] remote
  state: every access is a blocking store round trip, shared objects are
  protected by store-side locks (lock+read, then write+unlock — the
  "naive approach" of §7.1's operation-offloading comparison).

All baselines run the *same* vertex programs (:class:`NetworkFunction`)
as CHC — only the state-management discipline differs.
"""
