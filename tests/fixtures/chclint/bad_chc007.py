"""Rewrites splitter membership / retires instances by hand (CHC007)."""


def hostile_cutover(runtime, splitter, old_id, new_id):
    splitter.hash_members.append(new_id)
    splitter.hash_members[0] = new_id
    splitter.hash_members = [new_id]
    del splitter.hash_members[0]
    runtime.retire_instance(old_id)


def scale_in_by_hand(runtime, victim):
    """What the autoscaler and the director used to do: a private drain
    probe, then a direct retirement (now ``handover.evacuate``)."""
    while victim.queue_depth:
        yield runtime.sim.timeout(200.0)
    runtime.retire_instance(victim.instance_id)
