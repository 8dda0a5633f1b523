"""Parallel campaign fabric (DESIGN.md §11).

Every campaign this repo runs — chaos, overload, ops and dist seeds,
same-seed determinism double-runs, perf-sweep scenarios — is a bag of fully
independent (seed, scenario) work items. The determinism checker
(DESIGN.md §9.3) proves each item is a pure function of its inputs, so
fanning the bag across cores and merging the results in submission order
is *provably* equivalent to the serial loop. This package is that
fan-out: a :class:`CampaignPool` built on ``ProcessPoolExecutor`` with
explicit worker-lifecycle handling (per-run timeouts, crashed workers,
bounded retry), a deterministic merge layer that keeps BENCH payloads
byte-identical regardless of job count or completion order, and — in
:mod:`repro.parallel.campaign` — the one harness (work item, work
function, runner, report envelope, CLI) the four scenario families
declare themselves to instead of each carrying a copy.

Failure taxonomy (the distinction every campaign payload now carries):

* **violation** — the run completed and an invariant checker flagged it.
  The system under test is wrong.
* **failed run** — the run itself raised; recorded by the campaign layer
  as a :class:`RunFailure` and the remaining items keep running. The
  harness (or the system) is wrong.
* **infra failure** — the *worker* executing the run crashed, hung past
  its timeout, or was lost with the pool; recorded by the pool as an
  :class:`InfraFailure` after bounded retry. The fabric is wrong.

All three fail the campaign exit code; only violations indict the
dataplane.
"""

from repro.parallel.pool import (
    CampaignPool,
    InfraFailure,
    PoolOutcome,
    WorkResult,
    resolve_jobs,
)
from repro.parallel.merge import (
    RunFailure,
    merge_sanitizer_reports,
    payloads_equal_modulo_meta,
)

__all__ = [
    "CampaignPool",
    "InfraFailure",
    "PoolOutcome",
    "RunFailure",
    "WorkResult",
    "merge_sanitizer_reports",
    "payloads_equal_modulo_meta",
    "resolve_jobs",
]
