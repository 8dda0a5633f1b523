"""The one campaign harness every scenario family rides (DESIGN.md §11.1).

A campaign sweeps independent ``(scenario, seed)`` runs, checks each,
merges the outcomes in submission order and serializes a BENCH payload.
This module owns what the five families — chaos, overload, ops, dist,
determinism — have in common: the picklable :class:`WorkItem`, the never-raise work
function, the :class:`~repro.parallel.pool.CampaignPool` fan-out, the
:class:`CampaignReport` and its payload envelope (``campaign``,
``violations``, ``failures``, ``infra_failures``), and the CLI behind
``tools/campaign.py <family>`` (shared flags, ``meta``, the JSON write,
stderr reporting, the exit code). A family is a :class:`CampaignFamily`
instance named ``FAMILY`` in its own module, declaring the rest.
Outcomes follow a protocol, not a base class: ``.scenario``, ``.seed``,
``.violations`` and ``.ok``.

This module imports no family: :data:`FAMILIES` maps a name to the
declaring module, resolved lazily by :func:`load_family` (in the CLI and
inside each pool worker), so ``repro.chaos`` importing ``repro.parallel``
stays light and acyclic.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.runtime import maybe_sanitized
from repro.parallel.merge import RunFailure, merge_sanitizer_reports
from repro.parallel.pool import CampaignPool, InfraFailure, WorkResult

__all__ = [
    "FAMILIES",
    "CampaignFamily",
    "CampaignReport",
    "WorkItem",
    "load_family",
    "main",
    "run_campaign",
]

#: Family name -> the module whose ``FAMILY`` attribute declares it.
FAMILIES: Dict[str, str] = {
    "chaos": "repro.chaos.campaign",
    "overload": "repro.chaos.overload",
    "ops": "repro.ops.campaign",
    "dist": "repro.dist.campaign",
    "determinism": "repro.analysis.campaign",
}


@dataclass(frozen=True)
class WorkItem:
    """One unit of campaign work shipped to a pool worker."""

    family: str
    scenario: str
    seed: int
    #: family-interpreted: whatever beyond (scenario, seed) picks this run
    variant: Any = None
    #: ``"run"`` items are the campaign's runs. Any other kind is a side
    #: measurement: executed and checked like a run, collected under
    #: :attr:`CampaignReport.measurements`, but neither counted in the
    #: ``campaign`` summary nor given a scenario row.
    kind: str = "run"
    #: extra fields recorded on the item's :class:`RunFailure` if it raises
    context: Dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def __repr__(self) -> str:  # shows up in InfraFailure payload entries
        return self.label or f"{self.family}:{self.scenario}/seed={self.seed}"


class CampaignFamily:
    """What one scenario family declares; the runner owns the rest.

    A concrete family's class docstring is its subcommand's ``--help``.
    """

    #: subcommand, work-item prefix, and ``meta.benchmark`` stem
    name: str
    #: default payload file name (under the CLI's output directory)
    output: str
    default_seeds: int = 10
    #: name -> spec; iteration order is the default sweep order
    scenarios: Mapping[str, Any]
    #: False drops ``--sanitize``: the suite only sees this process
    sanitizable: bool = True
    #: default ``--run-timeout``
    run_timeout_s: Optional[float] = None
    #: the family's own flags: option string -> ``add_argument`` keywords
    flags: Mapping[str, Dict[str, Any]] = {}

    def options(self, args: Any) -> Tuple[Any, Dict[str, Any]]:
        """Parsed flags -> (sweep ``variant``, the family's ``meta`` keys).

        May cap ``args.seeds`` (a ``--quick`` smoke mode).
        """
        return None, {}

    def items(
        self, names: Sequence[str], seeds: Sequence[int], variant: Any
    ) -> List[WorkItem]:
        """The sweep, in submission (= serial, = payload) order."""
        return [
            WorkItem(self.name, name, seed, variant)
            for name in names
            for seed in seeds
        ]

    def run(self, item: WorkItem) -> Any:
        """Execute ``item``; return its outcome (the outcome protocol)."""
        raise NotImplementedError

    def aggregate(self, report: "CampaignReport") -> Dict[str, Any]:
        """The family's payload sections (``scenarios`` rows and the like)."""
        raise NotImplementedError

    def render(self, payload: Dict[str, Any]) -> str:
        """The human-readable table for a finished payload."""
        raise NotImplementedError

    def status(self, outcome: Any) -> str:
        """One run's verdict for the progress log."""
        return "ok" if outcome.ok else f"{len(outcome.violations)} VIOLATIONS"

    def qualifiers(self, outcome: Any) -> Dict[str, Any]:
        """Fields that, with scenario and seed, identify ``outcome`` in a
        ``violations`` row."""
        return {}


def load_family(name: str) -> CampaignFamily:
    """Resolve a family by name (imports its module on first use)."""
    return importlib.import_module(FAMILIES[name]).FAMILY


@dataclass
class CampaignReport:
    """Merged results of one sweep (what a BENCH payload holds).

    Three distinct failure populations (see :mod:`repro.parallel`):
    violations (a run finished and an invariant broke), ``failures`` (the
    run itself raised — recorded, remaining items kept running), and
    ``infra_failures`` (the worker executing the run was lost). All
    three make :attr:`ok` false; only violations indict the dataplane.
    """

    family: CampaignFamily
    outcomes: List[Any] = field(default_factory=list)
    measurements: List[Any] = field(default_factory=list)
    failures: List[RunFailure] = field(default_factory=list)
    infra_failures: List[InfraFailure] = field(default_factory=list)
    pool_stats: Dict[str, Any] = field(default_factory=dict)  # meta, not payload
    sanitizers: Optional[Dict[str, Any]] = None  # merged per-run reports

    @property
    def total_violations(self) -> int:
        return sum(len(o.violations) for o in self.outcomes + self.measurements)

    @property
    def ok(self) -> bool:
        return (
            all(o.ok for o in self.outcomes + self.measurements)
            and not self.failures
            and not self.infra_failures
        )

    def by_scenario(self) -> Dict[str, Tuple[List[Any], Dict[str, Any]]]:
        """scenario -> (its outcomes, the counts every row starts with).

        Name-sorted, and every scenario that *attempted* a run gets an
        entry, including one whose every run crashed (``runs: 0``).
        """
        names = {o.scenario for o in self.outcomes}
        names |= {f.scenario for f in self.failures}
        grouped: Dict[str, Tuple[List[Any], Dict[str, Any]]] = {}
        for name in sorted(names):
            outcomes = [o for o in self.outcomes if o.scenario == name]
            row = {
                "runs": len(outcomes),
                "failed_runs": sum(f.scenario == name for f in self.failures),
                "violations": sum(len(o.violations) for o in outcomes),
            }
            grouped[name] = (outcomes, row)
        return grouped

    def as_dict(self) -> Dict[str, Any]:
        return {
            "campaign": {
                "runs": len(self.outcomes) + len(self.failures),
                "completed": len(self.outcomes),
                "failed_runs": len(self.failures),
                "infra_failures": len(self.infra_failures),
                "violations": self.total_violations,
                "ok": self.ok,
            },
            **self.family.aggregate(self),
            "violations": [
                {
                    "scenario": outcome.scenario,
                    "seed": outcome.seed,
                    **self.family.qualifiers(outcome),
                    **violation.as_dict(),
                }
                for outcome in self.outcomes
                for violation in outcome.violations
            ],
            "failures": [failure.as_dict() for failure in self.failures],
            "infra_failures": [f.as_dict() for f in self.infra_failures],
        }


def run_item(
    item: WorkItem, sanitize: bool = False
) -> Tuple[Any, Optional[Dict[str, Any]]]:
    """Pool work function: run one item, never raise.

    Returns ``(outcome | RunFailure, sanitizer report | None)``. A run
    that raises becomes a :class:`RunFailure` instead of aborting the
    campaign — the per-run isolation the serial loop needs anyway and
    the pool requires (a raising work function reads as an infra
    failure, which this is not). The sanitizer report is taken on the
    way out either way: the run a sanitizer aborted is the one whose
    counters matter most.
    """
    sanitizer_report: Optional[Dict[str, Any]] = None
    try:
        declared = load_family(item.family)
        with maybe_sanitized(sanitize) as suite:
            try:
                outcome = declared.run(item)
            finally:
                if suite is not None:
                    sanitizer_report = suite.report()
        return outcome, sanitizer_report
    except Exception as exc:
        failure = RunFailure(
            scenario=item.scenario,
            seed=item.seed,
            error=f"{type(exc).__name__}: {exc}",
            context=dict(item.context),
        )
        return failure, sanitizer_report


def run_campaign(
    family_name: str,
    seeds: Sequence[int],
    scenario_names: Optional[Sequence[str]] = None,
    variant: Any = None,
    progress: Optional[Callable[[str], None]] = None,
    jobs: Union[int, str, None] = 1,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    sanitize: bool = False,
) -> CampaignReport:
    """Sweep ``seeds`` x the named scenarios (default: all) of one family.

    ``jobs`` fans the independent items across worker processes via
    :class:`~repro.parallel.pool.CampaignPool`; the report — and
    therefore the BENCH payload — is byte-identical for any job count
    because results are merged in submission order (the serial loop's
    order). A run that raises is recorded as a :class:`RunFailure`; a
    worker that crashes or hangs past ``timeout_s`` as an
    :class:`~repro.parallel.pool.InfraFailure`. Either makes the report
    not ``ok`` without stopping the sweep. ``variant`` is the family's
    own sweep parameter (see its :meth:`CampaignFamily.options`);
    ``progress`` is called with one line per outcome, in completion order.
    """
    declared = load_family(family_name)
    names = list(scenario_names or declared.scenarios)
    unknown = [name for name in names if name not in declared.scenarios]
    if unknown:
        raise ValueError(
            f"unknown {family_name} scenario(s) {unknown}; "
            f"valid choices: {sorted(declared.scenarios)}"
        )
    items = declared.items(names, list(seeds), variant)

    def on_result(result: WorkResult) -> None:
        done = result.value[0]
        if progress is not None and not isinstance(done, RunFailure):
            progress(f"  {done.scenario:<22} seed={done.seed:<3} {declared.status(done)}")

    pool = CampaignPool(jobs=jobs, timeout_s=timeout_s, retries=retries)
    pooled = pool.map(partial(run_item, sanitize=sanitize), items, progress=on_result)
    report = CampaignReport(
        family=declared,
        infra_failures=list(pooled.infra_failures),
        pool_stats=pooled.stats(),
        sanitizers=merge_sanitizer_reports(r.value[1] for r in pooled.results),
    )
    for result in pooled.results:  # submission order == serial order
        value = result.value[0]
        if isinstance(value, RunFailure):
            report.failures.append(value)
        elif items[result.index].kind == "run":
            report.outcomes.append(value)
        else:
            report.measurements.append(value)
    return report


def main(argv: Optional[Sequence[str]] = None, output_dir: str = ".") -> int:
    """``campaign.py <family> [flags]``: sweep, write the payload, report.

    Exit status is non-zero if any invariant was violated, any run was
    not ok, any run raised, or any worker was lost — the correctness
    gate the CI smoke jobs enforce. The payload is written either way.
    """
    import argparse
    import inspect
    import json
    import os
    import platform
    import sys
    import time

    parser = argparse.ArgumentParser(
        description="Run one scenario family's campaign and record its BENCH payload."
    )
    subparsers = parser.add_subparsers(dest="family", required=True)
    for name in FAMILIES:
        declared = load_family(name)
        description = inspect.getdoc(declared) or ""
        sub = subparsers.add_parser(
            name,
            help=description.partition("\n")[0],
            description=description,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        sub.add_argument(
            "--seeds", type=int, default=declared.default_seeds, help="seeds per scenario"
        )
        sub.add_argument(
            "--scenarios",
            nargs="+",
            choices=sorted(declared.scenarios),
            default=None,
            help="subset of scenarios (default: all)",
        )
        sub.add_argument(
            "-o",
            "--output",
            default=os.path.join(output_dir, declared.output),
            help=f"output path (default: {declared.output} at the repo root)",
        )
        sub.add_argument(
            "-q", "--quiet", action="store_true", help="suppress per-run progress"
        )
        if declared.sanitizable:
            sub.add_argument(
                "--sanitize",
                action="store_true",
                help="run with the runtime sanitizer suite installed (ownership races,"
                " clock monotonicity, backpressure deadlock cycles raise loudly)",
            )
        sub.add_argument(
            "--jobs",
            default="1",
            help="worker processes for the fan-out"
            " ('auto' = cpu count; default 1 = serial)",
        )
        sub.add_argument(
            "--run-timeout",
            type=float,
            default=declared.run_timeout_s,
            metavar="S",
            help="per-run wall budget in seconds; a hung run is recorded as an"
            " infra failure instead of wedging the campaign (default %(default)s)",
        )
        sub.add_argument(
            "--retries",
            type=int,
            default=1,
            help="requeue budget for runs lost to a worker crash (default 1)",
        )
        for flag, keywords in declared.flags.items():
            sub.add_argument(flag, **keywords)
    args = parser.parse_args(argv)
    declared = load_family(args.family)
    variant, family_meta = declared.options(args)
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")

    t0 = time.perf_counter()
    report = run_campaign(
        args.family,
        range(args.seeds),
        scenario_names=args.scenarios,
        variant=variant,
        progress=None if args.quiet else partial(print, flush=True),
        jobs=args.jobs,
        timeout_s=args.run_timeout,
        retries=args.retries,
        sanitize=getattr(args, "sanitize", False),
    )
    wall_s = time.perf_counter() - t0

    payload = report.as_dict()
    payload["meta"] = {
        "benchmark": f"{declared.name}_campaign",
        "seeds": args.seeds,
        "scenarios": args.scenarios or sorted(declared.scenarios),
        **family_meta,
        "wall_s": round(wall_s, 1),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "jobs": report.pool_stats["jobs"],
        "wall_s_serial_est": report.pool_stats["wall_s_serial_est"],
    }
    if report.sanitizers is not None:
        payload["meta"]["sanitizers"] = report.sanitizers
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    print(declared.render(payload))
    attempted = len(report.outcomes) + len(report.failures)
    print(f"\nwrote {args.output} ({attempted} runs, {wall_s:.1f}s)")
    if report.ok:
        print("all invariants held")
        return 0
    # a run can be not-ok without a violation (dist: the fabric itself
    # failed under it); those have no payload list of their own
    not_ok = [
        f"{o.scenario}/seed={o.seed}: {declared.status(o)}"
        for o in report.outcomes
        if not o.ok and not o.violations
    ]
    for heading, count, entries in (
        ("INVARIANT VIOLATIONS", report.total_violations, payload["violations"]),
        ("RUNS NOT OK", len(not_ok), not_ok),
        ("FAILED RUNS", len(report.failures), payload["failures"]),
        ("INFRA FAILURES", len(report.infra_failures), payload["infra_failures"]),
    ):
        if count:
            print(f"{heading}: {count}", file=sys.stderr)
            for entry in entries:
                print(f"  {entry}", file=sys.stderr)
    return 1
