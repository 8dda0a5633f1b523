"""repro.dist — real-process shard fabric over real sockets (DESIGN.md §13).

The in-process simulator (everything under ``repro.core`` / ``repro.simnet``)
proves the chain-correctness protocols against *simulated* failures. This
package re-hosts the same engine, unchanged, across OS process boundaries:

* :mod:`repro.dist.transport` — length-prefixed frames over localhost TCP
  with an explicit tagged-union codec and seeded-backoff reconnect. The
  **only** module in the repo allowed to touch raw sockets (chclint CHC008).
* :mod:`repro.dist.shard` — a worker process hosting one chain replica's
  engine loop; its store-client traffic is bridged onto the transport, so
  the RPC retransmission / ``RpcGaveUp`` path and the store's dedup log
  absorb real socket loss exactly as they absorb simulated loss.
* :mod:`repro.dist.store_node` — the shared store-cluster process: a
  :class:`~repro.store.datastore.DatastoreInstance` behind a listening
  socket, with a frame write-ahead log replayed on restart.
* :mod:`repro.dist.fabric` — the coordinator: spawns the processes, injects
  real faults (SIGKILL, severed/refused connections, half-open stalls),
  restarts victims, and runs the PR-3 invariant checkers across process
  boundaries at quiescence.

* :mod:`repro.dist.campaign` — the campaign family: ``tools/campaign.py
  dist`` sweeps seeds x scenarios on the one shared harness
  (:mod:`repro.parallel.campaign`, DESIGN.md §11.1) and writes
  ``BENCH_dist.json``.
"""

from repro.dist.transport import (  # noqa: F401
    CodecError,
    Connection,
    FrameDecoder,
    Listener,
    TransportCounters,
    decode_body,
    encode_frame,
    encode_value,
)

__all__ = [
    "CodecError",
    "Connection",
    "FrameDecoder",
    "Listener",
    "TransportCounters",
    "decode_body",
    "encode_frame",
    "encode_value",
]
