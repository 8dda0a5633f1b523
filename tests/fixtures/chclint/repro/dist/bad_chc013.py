"""A dataplane module that loads numpy and the campaign layer at import (CHC013)."""

import numpy as np
from numpy import percentile
from repro.parallel.campaign import CampaignFamily
from repro.chaos import overload
import repro.ops.campaign
from repro.chaos.counters import EntryCounterNF  # no campaign imports: fine
from repro.chaos.invariants import check_invariants  # fine


class Family(CampaignFamily):
    pass


def summary(samples):
    import numpy  # paid only by whoever asks for a summary

    from repro.chaos.campaign import fig8_percentiles

    return numpy.mean(samples), fig8_percentiles(samples), np, percentile


def chain(entry=EntryCounterNF, check=check_invariants, scenarios=overload):
    return entry, check, scenarios, repro.ops.campaign
