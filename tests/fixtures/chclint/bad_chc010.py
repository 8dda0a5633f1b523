"""Hand-rolls a store snapshot instead of using repro.store.rehome (CHC010)."""


def third_copy(old, new, key, clock):
    new._data = dict(old._data)
    new._owners[key] = old._owners.get(key)
    new._ts[key]["nf-0"] = clock
    new._pruned_clocks |= old._pruned_clocks
    new._value_watchers.setdefault(key, set()).add("nf-0")
    new._update_log[(key, clock)].pop(0)
    del old._clones["nf-0"]
    new._log_committed(key, clock, 0, None)
    return len(old._update_log), old._owner_watchers.get(key)  # reads pass
