"""Chaos campaigns: scripted and randomized fault injection (§5.4).

The paper proves CHC's recovery protocols correct under the fail-stop
model; this package *stresses* the implementation of those protocols
against harsher conditions — detection latency, message loss, partitions,
correlated crashes — and checks the outcomes against machine-checkable
invariants derived from the paper's theorems (loss-free state, Theorem
B.5.1; exactly-once externalization, Theorem B.4.4; per-flow ordering,
Theorem B.2.1).

Layers:

* :mod:`repro.chaos.schedule` — fault actions and seeded random schedules;
* :mod:`repro.chaos.counters` — the counter NFs of every chain the
  campaigns disturb and of each :mod:`repro.dist` shard;
* :mod:`repro.chaos.director` — :class:`ChaosDirector`, a
  :class:`~repro.simnet.failures.FailureInjector` with a configurable
  failure-detection model, executing schedules against a runtime;
* :mod:`repro.chaos.invariants` — the post-run checkers and the one
  battery, :func:`check_invariants`, that chaos, ops and overload runs
  are all checked with;
* :mod:`repro.chaos.campaign` — named fault scenarios, the one
  disturbed-run driver :func:`run_scenario` (a :class:`ScenarioSpec` is a
  fault schedule, a maintenance plan — :mod:`repro.ops.campaign`'s
  scenarios — or both), and the chaos campaign family;
* :mod:`repro.chaos.overload` — overload scenarios (§8): bursts, slow
  stores and flash crowds, with shed accounting and the autoscaler loop,
  and the overload campaign family.

Sweeps run on the one shared harness, :mod:`repro.parallel.campaign`
(``tools/campaign.py chaos`` / ``tools/campaign.py overload``).

The package re-exports nothing: callers name the submodule, so a process
that imports only :mod:`repro.chaos.invariants` (a shard, the benchmark)
does not load the campaign runner (DESIGN.md §9.1).
"""
