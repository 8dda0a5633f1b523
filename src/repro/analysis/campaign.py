"""The same-seed determinism gate as a campaign family (DESIGN.md §9.3).

Every BENCH_* number and every "0 violations" verdict assumes a scenario
run is a pure function of its seed. This family checks it. One item runs
one chaos, ops or overload scenario :data:`RUNS` times under one seed, inside
one worker, and digests each run with
:func:`~repro.analysis.determinism.checked_digest` (a run in which a
simulation process crashed raises instead, naming the process). Digests
that disagree are a ``same-seed-digest`` violation: a stray ``set``
iteration, a wall-clock read, a process-global counter leaking into
routing. Each scenario's row also records its digest per seed and
whether different seeds digest differently (``seed_sensitive``): a
scenario that ignores its seed is one experiment however many seeds it
is run under.

:data:`FAMILY` declares the family to the shared harness
(:mod:`repro.parallel.campaign`, ``tools/campaign.py determinism``),
which writes ``BENCH_determinism.json``. Its scenarios are the chaos
family's as ``chaos:<name>``, the overload family's as
``overload:<name>`` (autoscaler off) and the planned-operations family's
as ``ops:<name>`` — the runs that reallocate flows through Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List

from repro.analysis.determinism import checked_digest
from repro.chaos import campaign as chaos
from repro.chaos import overload
from repro.chaos.invariants import InvariantViolation
from repro.ops import campaign as ops
from repro.parallel.campaign import CampaignFamily, CampaignReport, WorkItem

#: Same-seed executions per (scenario, seed).
RUNS = 2


def chaos_digest(spec: chaos.ScenarioSpec, seed: int) -> str:
    """Digest one chaos or ops run of ``spec`` under ``seed``: the
    disturbed run alone — no clean reference run, no invariant check."""
    return checked_digest(chaos.disturbed_run(spec, seed).runtime)


def overload_digest(spec: overload.OverloadSpec, seed: int) -> str:
    """Digest one overload run of ``spec`` under ``seed``, autoscaler off."""
    captured: List[str] = []
    overload.run_overload_scenario(
        spec, seed, collect_runtime=lambda runtime: captured.append(checked_digest(runtime))
    )
    return captured[0]


@dataclass
class DeterminismOutcome:
    """The :data:`RUNS` digests of one (scenario, seed)."""

    scenario: str
    seed: int
    digests: List[str]
    violations: List[InvariantViolation]

    @property
    def ok(self) -> bool:
        return not self.violations


class DeterminismFamily(CampaignFamily):
    """Determinism gate: N seeds x the chaos, overload and ops scenarios, each
    run twice under its seed in one worker; any two same-seed runs whose digests
    (ordered egress, drops, every stats object, engine counters) differ are a
    same-seed-digest violation, and a run in which a simulation process
    crashed is a failed run naming it. Records each scenario's digest per seed
    and whether it is seed-sensitive in BENCH_determinism.json."""

    name = "determinism"
    output = "BENCH_determinism.json"
    default_seeds = 2
    scenarios = {
        **{f"chaos:{name}": spec for name, spec in chaos.SCENARIOS.items()},
        **{f"overload:{name}": spec for name, spec in overload.SCENARIOS.items()},
        **{f"ops:{name}": spec for name, spec in ops.SCENARIOS.items()},
    }

    def run(self, item: WorkItem, reference: Any) -> DeterminismOutcome:
        spec = self.scenarios[item.scenario]
        if isinstance(spec, chaos.ScenarioSpec):
            digest = partial(chaos_digest, spec, item.seed)
        else:
            digest = partial(overload_digest, spec, item.seed)
        digests = [digest() for _ in range(RUNS)]
        violations = []
        if len(set(digests)) > 1:
            violations.append(
                InvariantViolation(
                    "same-seed-digest",
                    f"{RUNS} runs under seed {item.seed} digested "
                    + " / ".join(d[:16] for d in digests),
                )
            )
        return DeterminismOutcome(item.scenario, item.seed, digests, violations)

    def aggregate(self, report: CampaignReport) -> Dict[str, Any]:
        rows: Dict[str, Any] = {}
        for scenario, (outcomes, row) in report.by_scenario().items():
            row["digests"] = {
                str(o.seed): o.digests[0] if o.ok else None for o in outcomes
            }
            agreed = [d for d in row["digests"].values() if d is not None]
            # one seed cannot tell whether the seed reaches the run
            row["seed_sensitive"] = len(set(agreed)) > 1 if len(agreed) > 1 else None
            rows[scenario] = row
        return {"scenarios": rows}

    def render(self, payload: Dict[str, Any]) -> str:
        lines = [
            "determinism campaign (digest = sha256 of a run's observable stream)",
            f"{'scenario':<30} {'runs':>5} {'fail':>5} {'viol':>5} {'sensitive':>9}"
            "  seed:digest",
        ]
        for name, row in payload["scenarios"].items():
            sensitive = {True: "yes", False: "no", None: "-"}[row["seed_sensitive"]]
            digests = " ".join(
                f"{seed}:{(digest or 'MISMATCH')[:16]}"
                for seed, digest in row["digests"].items()
            )
            lines.append(
                f"{name:<30} {row['runs']:>5} {row['failed_runs']:>5}"
                f" {row['violations']:>5} {sensitive:>9}  {digests}"
            )
        return "\n".join(lines)


FAMILY = DeterminismFamily()
