"""§7.2 — metadata overheads: clocks, packet logging, XOR/delete.

Paper numbers being reproduced:

* clock persistence: +29us/packet when written to the store every packet,
  amortised to ~3.5us (n=10) and ~0.4us (n=100) by batching;
* packet logging: local at the root +1us/packet, vs in the store +34.2us
  (more fault tolerant);
* the XOR bit-vector checks are asynchronous/background (no latency);
  making the last NF's "delete" synchronous before releasing output adds
  ~7.9us median.
"""

import pytest

from conftest import run_once
from repro.bench.report import ResultTable, write_result
from repro.core.chain_runtime import ChainRuntime, RuntimeParams
from repro.core.dag import LogicalChain
from repro.nfs import Nat
from repro.simnet.engine import Simulator
from repro.traffic.trace import make_trace2
from repro.traffic.workload import ReplaySource

N_PACKETS = 3_000


def run_chain(**params):
    sim = Simulator()
    chain = LogicalChain("meta")
    chain.add_vertex("nat", Nat, entry=True)
    runtime = ChainRuntime(sim, chain, params=RuntimeParams(**params))
    trace = make_trace2(scale=0.0005)
    ReplaySource(sim, trace.packets[:N_PACKETS], runtime.inject, load_fraction=0.3)
    sim.run(until=300_000_000)
    return runtime


def test_clock_persistence_batching(benchmark):
    def experiment():
        return {n: run_chain(clock_persist_every=n, local_log_cost_us=0.0)
                for n in (1, 10, 100)}

    runtimes = run_once(benchmark, experiment)
    table = ResultTable(
        title="Clock persistence overhead vs batching interval",
        headers=["persist every", "mean root latency/pkt (us)", "paper"],
    )
    paper = {1: "29", 10: "3.5", 100: "0.4"}
    means = {}
    for n, runtime in runtimes.items():
        means[n] = runtime.root.inject_recorder.mean()
        table.add(f"n={n}", f"{means[n]:.2f}", paper[n])
    write_result("meta_clock", [table])
    assert means[1] > 8 * means[10] > 8 * means[100] / 8
    assert means[1] > 20.0
    assert means[100] < 1.0


def test_packet_logging_location(benchmark):
    def experiment():
        local = run_chain(log_in_store=False, local_log_cost_us=1.0,
                          clock_persist_every=10**9)
        in_store = run_chain(log_in_store=True, clock_persist_every=10**9)
        return local, in_store

    local, in_store = run_once(benchmark, experiment)
    table = ResultTable(
        title="Packet logging: locally at the root vs in the datastore",
        headers=["mode", "mean added latency/pkt (us)", "paper"],
    )
    local_mean = local.root.inject_recorder.mean()
    store_mean = in_store.root.inject_recorder.mean()
    table.add("local", f"{local_mean:.2f}", "1.0")
    table.add("datastore", f"{store_mean:.2f}", "34.2")
    table.note("the store-kept log survives simultaneous root+NF failure (Table 3)")
    write_result("meta_logging", [table])
    assert local_mean == pytest.approx(1.0, abs=0.3)
    assert store_mean > 25.0


def test_sync_delete_overhead(benchmark):
    def experiment():
        async_delete = run_chain(sync_delete=False, clock_persist_every=10**9)
        sync_delete = run_chain(sync_delete=True, clock_persist_every=10**9)
        return async_delete, sync_delete

    async_rt, sync_rt = run_once(benchmark, experiment)
    table = ResultTable(
        title="Last-NF delete request: asynchronous vs synchronous",
        headers=["mode", "median e2e latency (us)", "paper delta"],
    )
    async_median = async_rt.egress_recorder.median()
    sync_median = sync_rt.egress_recorder.median()
    table.add("asynchronous", f"{async_median:.2f}", "-")
    table.add("synchronous", f"{sync_median:.2f}", "+7.9us median")
    table.add("delta", f"{sync_median - async_median:.2f}", "")
    table.note(
        "async risks duplicate output to the end host only if the last NF "
        "fails in the window (§7.2); XOR checks themselves are background"
    )
    write_result("meta_delete", [table])
    delta = sync_median - async_median
    assert 4.0 < delta < 20.0  # ~one root RTT
