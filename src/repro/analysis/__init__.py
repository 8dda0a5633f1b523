"""Correctness tooling for the CHC reproduction (DESIGN.md §9).

Four layers, all optional at runtime:

- :mod:`repro.analysis.lint` — **chclint**, an AST lint pass enforcing the
  house rules every CHC guarantee rests on (seeded randomness, virtual
  time, no ``id()`` keys, store-mediated NF state). Run as
  ``python -m repro.analysis.lint src/repro``.
- :mod:`repro.analysis.sanitizers` — opt-in runtime sanitizers (ownership
  races, logical-clock monotonicity, backpressure deadlock cycles),
  installed via :func:`repro.analysis.runtime.sanitized`. Product code
  carries ``if ACTIVE is not None`` hooks that cost one global read when
  the suite is off.
- :mod:`repro.analysis.determinism` — run digests, the direct guard for
  BENCH_* trustworthiness; :mod:`repro.analysis.campaign` runs every
  chaos and overload scenario twice per seed and compares them
  (``tools/campaign.py determinism``).
- :mod:`repro.analysis.ideal` — the ideal chain of the paper's chain
  output equivalence, executed directly: the reference chaos, ops and
  dist runs are checked against.

Only :mod:`repro.analysis.runtime` is imported by product modules; it is
stdlib-only, so the hooks add no import weight and no cycles.
"""
