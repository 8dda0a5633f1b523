#!/usr/bin/env python
"""Run one scenario family's campaign and record its BENCH payload.

One harness (``repro.parallel.campaign``, DESIGN.md §11.1) serves every
family; the subcommand picks which:

    chaos        fault injection and recovery     -> BENCH_recovery.json
    overload     saturation, shedding, elasticity -> BENCH_overload.json
    ops          planned day-2 operations         -> BENCH_operations.json
    dist         real processes over real sockets -> BENCH_dist.json
    determinism  same-seed runs digest alike      -> BENCH_determinism.json

Usage::

    PYTHONPATH=src python tools/campaign.py chaos --seeds 20 --jobs auto
    PYTHONPATH=src python tools/campaign.py chaos --seeds 5 \
        --detection-us 50 --detection-misses 2           # heartbeat detector
    PYTHONPATH=src python tools/campaign.py overload --seeds 3 \
        --scenarios overload-burst --no-sweep --jobs 2   # CI smoke
    PYTHONPATH=src python tools/campaign.py ops --quick --jobs 2
    PYTHONPATH=src python tools/campaign.py dist --seeds 3 \
        --scenarios shard-kill store-kill
    PYTHONPATH=src python tools/campaign.py determinism --seeds 2 \
        --scenarios chaos:nf-crash overload:overload-burst --jobs 2

``<family> --help`` says what the family's runs are checked for and lists
its flags. ``--jobs N|auto`` fans the independent runs across worker
processes (``repro.parallel``, DESIGN.md §11); the payload is
byte-identical to the serial run for any job count, modulo the ``meta``
wall-clock/jobs fields. Exit status is non-zero if any invariant was
violated, any run raised, or any worker was lost — the correctness gate
the CI ``*-smoke`` jobs enforce. The payload is written either way.
"""

from __future__ import annotations

import _bootstrap

_bootstrap.ensure_repro_importable()


def main(argv=None) -> int:
    from repro.parallel.campaign import main as campaign_main

    return campaign_main(argv, output_dir=_bootstrap.REPO_ROOT)


if __name__ == "__main__":
    raise SystemExit(main())
