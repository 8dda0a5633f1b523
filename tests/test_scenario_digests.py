"""Behaviour preserved: the chaos and ops runs no other fixture pins.

A chaos scenario and an ops scenario are both a
:class:`repro.chaos.campaign.ScenarioSpec` run by the one shared runner,
:func:`repro.chaos.campaign.run_scenario`. Its process-creation order feeds
the engine-counter half of every digest, so each run here is pinned in two
halves (see tests/test_fastpath.py) as recorded at the commit before the
two runners became one. The other scenarios are pinned elsewhere:
``handover_digests.json`` (six ops scenarios), ``rehome_digests.json`` (ops
``store-replace``) and ``campaign_golden/determinism.json`` (chaos
``nf-crash``, ``lossy-link``).
"""

import json
import os

import pytest

from repro.chaos import campaign as chaos
from repro.ops import campaign as ops
from tests.test_store_rehome import _halves

with open(
    os.path.join(os.path.dirname(__file__), "fixtures", "scenario_digests.json")
) as _fh:
    PINNED_DIGESTS = json.load(_fh)

SCENARIOS = {
    "chaos": chaos.SCENARIOS,
    "ops": ops.SCENARIOS,
}
PINNED = [key.split("/") for key in PINNED_DIGESTS if key != "recorded_at"]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "family, name", PINNED, ids=[f"{family}:{name}" for family, name in PINNED]
)
def test_scenario_digest_is_pinned(family, name, seed):
    spec = SCENARIOS[family][name]
    captured = []
    outcome = chaos.run_scenario(
        spec, seed,
        collect_runtime=lambda rt: captured.append(_halves(rt)),
    )
    assert outcome.ok, [v.as_dict() for v in outcome.violations]
    assert captured[0] == PINNED_DIGESTS[f"{family}/{name}"][str(seed)]
