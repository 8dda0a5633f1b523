"""Cold start: a process loads only the layer it runs (DESIGN.md §9.1).

A shard, a store node and a failover instance each start as a fresh
process. Running a chain and reading its latency percentiles needs neither
numpy (only trace generation and figures do) nor the campaign layer (the
shared runner, the scenario families, the maintenance director), and a
store node needs none of the chain. These gates import what such a process
imports and check what ended up in ``sys.modules`` — each in a fresh
subprocess, because the pytest process itself has long since imported it
all.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

NOT_LOADED = (
    "numpy", "repro.parallel", "repro.chaos.campaign", "repro.chaos.overload", "repro.ops"
)

PROBE = """
import json
import sys

import repro
import repro.analysis.determinism
import repro.chaos.invariants
import repro.dist.fabric
import repro.dist.shard
import repro.dist.store_node
from repro.analysis.determinism import run_equivalence_once

runtime = run_equivalence_once(seed=0, fastpath=False, packets=24, flows=4)
print(json.dumps({
    "egress": len(runtime.egress_recorder),
    "p50": runtime.egress_recorder.percentile(50),
    "loaded": sorted(name for name in %r if name in sys.modules),
}))
""" % (NOT_LOADED,)


#: What a store node runs none of: the chain, the client library, the trace
#: generators, the NFs and the figure and baseline harnesses.
NOT_IN_A_STORE_NODE = (
    "repro.core.chain_runtime", "repro.core.instance", "repro.core.handover",
    "repro.core.root", "repro.core.splitter", "repro.store.client",
    "repro.store.cluster", "repro.traffic.trace", "repro.traffic.workload",
    "repro.nfs", "repro.bench", "repro.baselines",
)


def _probe(source):
    done = subprocess.run(
        [sys.executable, "-c", source],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _loaded_after(statement):
    """The ``repro`` modules in ``sys.modules`` after ``statement`` alone."""
    return _probe(
        "import json, sys\n%s\nprint(json.dumps(sorted(name for name in sys.modules"
        " if name.split('.')[0] == 'repro')))" % statement
    )


def test_a_chain_process_loads_no_numpy_and_no_campaign_layer():
    report = _probe(PROBE)
    assert report["egress"] == 24 and report["p50"] > 0
    assert report["loaded"] == []


def test_the_package_re_exports_nothing():
    assert _loaded_after("import repro") == ["repro"]


def test_a_store_node_loads_the_store_not_the_chain():
    loaded = _loaded_after("import repro.dist.store_node")
    assert "repro.store.datastore" in loaded and "repro.dist.transport" in loaded
    assert [name for name in loaded if name.startswith(NOT_IN_A_STORE_NODE)] == []
