"""Grows a private campaign harness instead of declaring a family (CHC009)."""

from repro import parallel
from repro.parallel.pool import CampaignPool


def fifth_harness(work, items):
    return CampaignPool(jobs=2).map(work, items)


def sixth_harness(work, items):
    pool = parallel.CampaignPool(jobs="auto", timeout_s=30.0)
    return pool.map(work, items)
