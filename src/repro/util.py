"""Small shared utilities."""

from __future__ import annotations

import zlib
from typing import Callable, Tuple


def stable_hash(value) -> int:
    """A deterministic hash, stable across processes and runs.

    Python's built-in ``hash`` for strings is salted per process
    (``PYTHONHASHSEED``), which would make traffic partitioning and store
    sharding non-reproducible. CRC32 over the repr is plenty for load
    spreading and is identical everywhere.
    """
    if isinstance(value, bytes):
        data = value
    elif isinstance(value, str):
        data = value.encode()
    else:
        data = repr(value).encode()
    return zlib.crc32(data)


class Memo(dict):
    """``memo[arg]`` is ``fn(arg)``, computed once: a bounded memo of a
    pure one-argument function, for per-packet derivations that depend
    only on the flow (partition keys, shard and thread indices). A known
    argument costs one dict hit with no Python call.

    Bounded by wholesale eviction: at ``LIMIT`` entries the memo starts
    over. The owner must ``clear()`` it whenever anything ``fn`` reads
    besides its argument changes (membership, partition scope).
    """

    __slots__ = ("_fn",)
    LIMIT = 1 << 16

    def __init__(self, fn: Callable):
        super().__init__()
        self._fn = fn

    def __missing__(self, arg):
        if len(self) >= self.LIMIT:
            self.clear()
        value = self[arg] = self._fn(arg)
        return value


def fields_subset(partition_fields: Tuple[str, ...], scope_fields: Tuple[str, ...]) -> bool:
    """True when partitioning on ``partition_fields`` confines each
    ``scope_fields``-keyed state object to a single instance.

    Partitioning on a subset of the object's scope fields means all packets
    sharing the object's key land on one instance (the partition key is a
    function of the scope key).
    """
    return set(partition_fields) <= set(scope_fields)
