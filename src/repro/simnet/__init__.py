"""Discrete-event simulation substrate for the CHC reproduction.

This package replaces the paper's hardware testbed (CloudLab servers, 10G
NICs, kernel-bypass networking) with a deterministic discrete-event
simulator. Virtual time is measured in **microseconds** throughout, matching
the units the paper reports.

Public surface:

* :class:`~repro.simnet.engine.Simulator` — the event loop; processes are
  plain Python generators that ``yield`` events.
* :class:`~repro.simnet.engine.Channel` — a FIFO message channel between
  processes (the paper's per-downstream-instance message queues map onto
  these).
* :class:`~repro.simnet.network.Link` / :class:`~repro.simnet.network.Network`
  — latency/loss/reorder-modelled links between named endpoints.
* :class:`~repro.simnet.rpc.RpcEndpoint` — request/response messaging with
  timeouts and retransmission, used for NF <-> datastore traffic.
* :class:`~repro.simnet.nic.Nic` — a bandwidth-limited egress queue used to
  model line-rate limits in throughput experiments.
* :mod:`~repro.simnet.monitor` — latency recorders / throughput meters.
* :mod:`~repro.simnet.failures` — fail-stop failure injection.
"""
