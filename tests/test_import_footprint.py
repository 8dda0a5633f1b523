"""Cold start: a chain process loads only what it runs (DESIGN.md §9.1).

A shard, a store node and a failover instance each start as a fresh
process. Running a chain and reading its latency percentiles needs neither
numpy (only trace generation and figures do) nor the campaign layer (the
shared runner, the scenario families, the maintenance director). This gate
imports every module such a process imports, runs a 4-NF chain, and checks
what ended up in ``sys.modules`` — in a subprocess, because the pytest
process itself has long since imported both.
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


def test_a_chain_process_loads_no_numpy_and_no_campaign_layer():
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["egress"] == 24 and report["p50"] > 0
    assert report["loaded"] == []
