"""Shared fixtures: a simulator, a network, a store, and client factories."""

from __future__ import annotations

import importlib.util
import signal
import threading

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.network import Link, Network
from repro.store.client import StoreClient
from repro.store.cluster import StoreCluster
from repro.store.datastore import DatastoreInstance
from repro.store.spec import AccessPattern, Scope, StateObjectSpec
from repro.traffic.packet import FiveTuple, Packet

# pytest-timeout is in the [test] extra but not in the dev container. When
# it is missing, honour pyproject's ``timeout`` ini key here, so a hung
# backpressure wait or drain loop fails its one test instead of wedging
# the suite. With the plugin importable this is all skipped.
if importlib.util.find_spec("pytest_timeout") is None:

    def pytest_addoption(parser):
        parser.addini(
            "timeout",
            "per-test wall budget in seconds (SIGALRM stand-in for pytest-timeout)",
            default="0",
        )

    @pytest.fixture(autouse=True)
    def _per_test_timeout(request):
        budget = float(request.config.getini("timeout") or 0)
        if (
            budget <= 0
            or not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()
        ):
            yield
            return

        def on_alarm(_signum, _frame):
            pytest.fail(f"test exceeded the {budget:g}s timeout (tests/conftest.py)")

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def network(sim):
    return Network(sim, Link(latency_us=14.0), seed=7)


@pytest.fixture
def store(sim, network):
    return DatastoreInstance(sim, network, "store0", n_threads=4)


@pytest.fixture
def cluster(store):
    return StoreCluster([store])


def default_specs():
    """A representative spec set covering all four Table 1 strategies."""
    return {
        "counter": StateObjectSpec(
            "counter", Scope.CROSS_FLOW, AccessPattern.WRITE_MOSTLY, (), initial_value=0
        ),
        "flow_state": StateObjectSpec(
            "flow_state", Scope.PER_FLOW, AccessPattern.READ_WRITE_OFTEN, initial_value=0
        ),
        "config": StateObjectSpec(
            "config", Scope.CROSS_FLOW, AccessPattern.READ_HEAVY, (), initial_value=None
        ),
        "shared": StateObjectSpec(
            "shared",
            Scope.CROSS_FLOW,
            AccessPattern.READ_WRITE_OFTEN,
            ("src_ip",),
            initial_value=0,
        ),
    }


@pytest.fixture
def client_factory(sim, network, cluster):
    def make(instance_id="nf-0", vertex="nf", **kwargs):
        return StoreClient(
            sim,
            network,
            cluster,
            vertex_id=vertex,
            instance_id=instance_id,
            specs=default_specs(),
            **kwargs,
        )

    return make


@pytest.fixture
def client(client_factory):
    return client_factory()


def make_packet(
    src="10.0.0.1", dst="52.0.0.1", sport=1234, dport=80, proto=6, clock=0, **kwargs
):
    packet = Packet(FiveTuple(src, dst, sport, dport, proto), **kwargs)
    packet.clock = clock
    return packet
