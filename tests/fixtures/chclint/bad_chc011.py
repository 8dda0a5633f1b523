"""Reads the simulator's scheduling queues outside the engine (CHC011)."""


def copy_of_the_inline_rule(sim, callback, event):
    if not sim._micro and (not sim._heap or sim._heap[0][0] > sim.now):
        callback(event)  # not a tail call here: reorders same-instant work
    else:
        sim.call_soon(callback, event)
    return sim.heap_size, sim.next_event_time()  # the public reads pass
