"""One set of books: an instance joins, is succeeded and leaves through
``ChainRuntime`` alone (DESIGN.md "Instance membership").

Which instances exist and where their traffic goes is five containers —
``ChainRuntime.instances`` (each instance carries its own NIC and
duplicate filter) and ``Splitter.instances`` (the vertex's ordered member
list) / ``.hash_members`` / ``.overrides`` / ``.replicate``. Five protocols
take an instance out (failover, upgrade cutover, scale-in, and the two
arms of a §5.3 ``retain``); after each the loser must be in none of them,
its NIC failed, and the survivor exactly once in every list it belongs
to. When the runtime still kept a second member list and NIC / filter
tables beside these, four of the five protocols left the books wrong,
each its own way:

* ``fail_over_nf`` — the replacement listed twice in the runtime's list,
  the corpse still in ``instances`` and the NIC / filter tables;
* ``evacuate(replace_with=)`` and ``retain("clone")`` — the survivor twice
  in ``Splitter.instances``, so a sole instance never regained §4.3
  exclusivity (and the clone arm kept the corpse as well);
* ``retain("straggler")`` — the dead clone still in the runtime's list,
  ``instances`` and the NIC / filter tables.
"""

import pytest

from repro.chaos.invariants import check_membership, check_operation_converged
from repro.core.cloning import CloneController
from repro.core.handover import evacuate
from repro.core.recovery import fail_over_nf
from repro.core.supervisor import Supervisor
from repro.ops.campaign import build_runtime, inject_workload
from repro.simnet.engine import Simulator

AT_US = 90.0


def _fail_over(runtime):
    runtime.instances["entry-1"].fail()
    result = yield from fail_over_nf(runtime, "entry-1")
    return "entry-1", result.new_id


def _upgrade_cutover(runtime):
    spare = runtime.add_instance("entry", "x").instance_id
    outcome = yield from evacuate(
        runtime, runtime.instances["entry-1"], lambda _key: spare,
        runtime.sim.now + 5_000.0, replace_with=spare,
    )
    assert outcome[1] is None, outcome
    return "entry-1", spare


def _scale_in(runtime):
    outcome = yield from evacuate(
        runtime, runtime.instances["entry-1"], lambda _key: "entry-0",
        runtime.sim.now + 5_000.0,
    )
    assert outcome[1] is None, outcome
    return "entry-1", None


def _retain(keep):
    def protocol(runtime):
        controller = CloneController(runtime)
        session = yield from controller.mitigate("entry-1")
        yield runtime.sim.timeout(40.0)
        yield from controller.retain(session, keep)
        if keep == "clone":
            return session.straggler_id, session.clone_id
        return session.clone_id, None

    return protocol


PROTOCOLS = {
    "fail_over_nf": _fail_over,
    "evacuate(replace_with=)": _upgrade_cutover,
    "evacuate()": _scale_in,
    "retain(clone)": _retain("clone"),
    "retain(straggler)": _retain("straggler"),
}


@pytest.mark.parametrize("name", PROTOCOLS)
def test_every_exit_leaves_one_set_of_books(name):
    sim = Simulator()
    runtime = build_runtime(sim, 1)
    inject_workload(sim, runtime)
    splitter = runtime.splitter("entry")
    slot = splitter.hash_members.index("entry-1")
    place = splitter.instances.index("entry-1")
    joined = dict(runtime.instances)
    add_instance = runtime.add_instance

    def add_and_note(*args, **kwargs):
        instance = add_instance(*args, **kwargs)
        joined[instance.instance_id] = instance
        return instance

    runtime.add_instance = add_and_note
    result = {}

    def scenario():
        yield sim.timeout(AT_US)
        result["ids"] = yield from PROTOCOLS[name](runtime)

    sim.process(scenario())
    sim.run(until=20_000.0)
    assert sim.crashed == []
    loser, successor = result["ids"]

    # the loser is in none of the five containers, and its NIC is failed
    assert loser not in runtime.instances
    assert not joined[loser].nic.has_space()
    assert loser not in splitter.instances and loser not in splitter.hash_members
    assert loser not in splitter.overrides.values()
    assert loser not in splitter.replicate
    assert loser not in splitter.replicate.values()
    if successor is not None:
        # the successor exactly once, in the loser's hash slot and place
        assert splitter.instances.count(successor) == 1
        assert splitter.hash_members.index(successor) == slot
        assert splitter.instances.index(successor) == place
        assert runtime.instances[successor].alive
    assert check_membership(runtime) == []
    assert len(runtime.egress) == 240


class TestRuntimeExits:
    def test_replace_refuses_a_live_instance_with_copies_in_flight(self):
        sim = Simulator()
        runtime = build_runtime(sim, 1)
        inject_workload(sim, runtime)
        sim.run(until=7.0)  # first packets are on the hop link
        busy = next(i for i in runtime.instances_of("entry") if i.inbound)
        spare = runtime.add_instance("entry", "x").instance_id
        before = (list(runtime.splitter("entry").instances),
                  list(runtime.splitter("entry").hash_members))
        with pytest.raises(RuntimeError, match="packet copies in flight"):
            runtime.replace_instance(busy.instance_id, spare)
        # refused, not half-done
        assert (runtime.splitter("entry").instances,
                runtime.splitter("entry").hash_members) == before
        assert check_membership(runtime) == []

    def test_replace_takes_a_corpse_whatever_was_dispatched_to_it(self):
        sim = Simulator()
        runtime = build_runtime(sim, 1)
        inject_workload(sim, runtime)
        sim.run(until=30.0)
        corpse = runtime.instances["entry-0"]
        corpse.fail()
        sim.run(until=40.0)  # _deliver keeps counting copies toward it
        assert not corpse.alive and corpse.inbound > 0
        spare = runtime.add_instance("entry", "x").instance_id
        assert runtime.replace_instance("entry-0", spare) is corpse
        assert runtime.splitter("entry").instances == [spare, "entry-1"]
        assert [i.instance_id for i in runtime.instances_of("entry")] == [spare, "entry-1"]
        assert check_membership(runtime) == []

    def test_a_sole_successor_is_granted_exclusivity_at_takeover(self):
        runtime = build_runtime(Simulator(), 1)
        spare = runtime.add_instance("exit", "x")
        # one of two while it waits: the shared counter is not its alone
        assert spare.client._exclusive == {"seen": False}
        runtime.replace_instance("exit-0", "exit-x")
        assert runtime.splitter("exit").instances == ["exit-x"]
        assert spare.client._exclusive == {"seen": True}


class TestCheckMembership:
    """Each rule has a failing mutant: the parent's hand-written edits."""

    @staticmethod
    def _runtime():
        return build_runtime(Simulator(), 1)

    def _flags(self, runtime, fragment, supervisor=None):
        details = [v.detail for v in check_membership(runtime, supervisor)]
        assert any(fragment in d for d in details), details

    def test_clean_build_passes(self):
        assert check_membership(self._runtime()) == []

    def test_splitter_naming_an_instance_twice(self):
        runtime = self._runtime()
        runtime.splitter("entry").instances.append("entry-0")
        self._flags(runtime, "splitter lists an instance twice")

    @pytest.mark.parametrize("container", ["hash_members", "overrides", "replicate"])
    def test_routing_to_a_non_member(self, container):
        runtime = self._runtime()
        splitter = runtime.splitter("entry")
        if container == "hash_members":
            splitter.hash_members[0] = "entry-9"
        elif container == "overrides":
            splitter.overrides[("k",)] = "entry-9"
        else:
            splitter.replicate["entry-0"] = "entry-9"
        self._flags(runtime, f"{container} names non-members ['entry-9']")

    @pytest.mark.parametrize("container", ["instances"])
    def test_a_corpse_left_in_a_runtime_table(self, container):
        runtime = self._runtime()
        table = getattr(runtime, container)
        table["entry-9"] = table["entry-0"]
        self._flags(runtime, f"only in {container} ['entry-9']")

    def test_a_member_with_no_instance(self):
        runtime = self._runtime()
        runtime.splitter("entry").instances.append("entry-9")
        self._flags(runtime, "only listed ['entry-9']")

    def test_a_dead_member_unless_its_own_recovery_is_still_running(self):
        runtime = self._runtime()
        scrub = runtime.instances["scrub-0"]
        scrub.fail()
        self._flags(runtime, "'scrub-0' is dead and still a member")
        supervisor = Supervisor(runtime)
        self._flags(runtime, "'scrub-0' is dead and still a member", supervisor)
        supervisor.on_failure(scrub)  # queued: the sim has not run
        assert supervisor.recovering() == [scrub]
        assert check_membership(runtime, supervisor) == []
        # a busy supervisor waives the crash it is recovering, no other corpse
        runtime.instances["entry-0"].fail()
        assert [v.detail for v in check_membership(runtime, supervisor)] == [
            "'entry-0' is dead and still a member"
        ]


class TestCheckOperationConvergedStores:
    """The store half of ``check_operation_converged``, one mutant each.
    The store list it once compared with the cluster map is now a view of
    that map, so that comparison is gone."""

    @staticmethod
    def _runtime():
        return build_runtime(Simulator(), 1)

    def _flags(self, runtime, fragment):
        details = [v.detail for v in check_operation_converged(runtime)]
        assert any(fragment in d for d in details), details

    def test_clean_build_passes(self):
        assert check_operation_converged(self._runtime()) == []

    def test_the_store_list_is_a_view_of_the_cluster_map(self):
        runtime = self._runtime()
        assert runtime.stores == runtime.store.instances
        with pytest.raises(AttributeError):
            runtime.stores = []

    def test_a_dead_store_in_the_cluster_map(self):
        runtime = self._runtime()
        runtime.stores[0].fail()
        self._flags(runtime, "cluster map still routes to dead store 'store0'")

    def test_a_store_left_in_lame_duck_mode(self):
        runtime = self._runtime()
        runtime.stores[0].enter_lame_duck()
        self._flags(runtime, "store 'store0' left in lame-duck mode")

    def test_a_root_pointing_outside_the_cluster_map(self):
        runtime = self._runtime()
        runtime.root.store_endpoint = "store9"
        self._flags(runtime, "points at store 'store9' outside the cluster map")

    def test_a_splitter_outliving_its_vertex(self):
        runtime = self._runtime()
        runtime.splitters["gone"] = runtime.splitter("entry")
        self._flags(runtime, "splitter for 'gone' outlives its removed vertex")
