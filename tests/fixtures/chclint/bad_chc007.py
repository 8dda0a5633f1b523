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


def failover_by_hand(runtime, vertex, failed_id, new_id):
    """What ``fail_over_nf`` used to do after ``add_instance`` had already
    listed ``new_id``: the splitter slot, then a rewrite of the vertex's
    member list that named the replacement twice and left the corpse in
    ``instances`` (now ``ChainRuntime.replace_instance``)."""
    runtime.splitter(vertex).replace_instance(failed_id, new_id)
    runtime.splitters[vertex].add_instance(new_id)
    runtime.splitters[vertex].replace_instance(failed_id, new_id)
    runtime.splitter(vertex).remove_instance(failed_id)
    runtime.store.replace_instance(failed_id, new_id)  # a StoreCluster: clean
    runtime.replace_instance(failed_id, new_id)  # the one writer: clean
