"""External state store and its client-side library (§4.3).

CHC externalizes all NF state into an in-memory, sharded key-value store.
This package implements:

* :mod:`~repro.store.keys` — state-object keys with vertex/instance
  metadata (ownership and concurrency control, §4.3 "State metadata").
* :mod:`~repro.store.operations` — the offloaded operation set (Table 2)
  plus a registry for developer-loaded custom operations.
* :mod:`~repro.store.datastore` — a store instance: multi-threaded, one
  thread per key partition (no locks), update logging keyed by packet
  logical clock for duplicate suppression (§5.3), checkpointing with TS
  metadata (§5.4).
* :mod:`~repro.store.client` — the client-side library NFs link against:
  Table 1's caching strategies, non-blocking updates, ACK-free updates
  with framework retransmission, callbacks for read-heavy shared state.
* :mod:`~repro.store.wal` — NF-side write-ahead logs of shared-state
  operations and read snapshots (datastore recovery, §5.4).
* :mod:`~repro.store.store_recovery` — Figure 7's TS-selection recovery.
* :mod:`~repro.store.rehome` — moving vertices' keys to another store
  node under traffic (planned replacement, store scale-out).

Appendix A's store-computed non-deterministic values have no module of
their own: a store instance computes and remembers them per packet clock
(``DatastoreInstance._nondet_value``).
"""
