"""NF-side write-ahead logs for datastore recovery (§5.4, Figure 7).

Each NF instance locally logs, in strict issue order:

* every **shared-state update operation** it offloads (``UpdateLogEntry``),
  so a failed store instance can re-execute them; and
* every **shared-state read**, together with the value returned and the
  store's ``TS`` metadata at that read (``ReadLogEntry``), so recovery can
  pick a re-execution order consistent with what the NF actually observed
  (Case 2 of §5.4).

Updates are kept column-wise (DESIGN.md §5.1): the log lives as long as
its client and gains a row per cross-flow update, so a row is array and
list slots, not a tuple subclass the collector walks on every full pass
and a boxed float. ``UpdateLogEntry`` is the read view, built on read.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Sequence, Tuple


class UpdateLogEntry(NamedTuple):
    """One offloaded shared-state update, as issued by this instance."""

    clock: int
    key: str
    op: str
    args: Tuple
    seq: int = 0
    at: float = 0.0


@dataclass(frozen=True)
class ReadLogEntry:
    """One shared-state read: the value seen and the store's TS at that time.

    ``ts`` maps instance ID -> logical clock of that instance's last update
    executed by the store (the paper's ``TS`` set, e.g. ``TS19{20,11,8,13}``).
    """

    clock: int
    key: str
    value: Any
    ts: Dict[str, int]
    at: float = 0.0


def entries_after(entries: Sequence[UpdateLogEntry], clock: int) -> List[UpdateLogEntry]:
    """The entries strictly after the one with clock ``clock``.

    ``entries`` are one key's updates in issue order, and clocks of one
    instance's ops are strictly increasing, so "after" is a positional cut.
    """
    for index, entry in enumerate(entries):
        if entry.clock == clock:
            return list(entries[index + 1 :])
    return list(entries)  # clock not found -> nothing from us executed yet


class WriteAheadLog:
    """Per-instance WAL: updates and read snapshots in issue order."""

    def __init__(self, instance_id: str):
        self.instance_id = instance_id
        self.reads: List[ReadLogEntry] = []
        self._reset_updates()

    def _reset_updates(self) -> None:
        # one row per update: the clock is unsigned because the issuing
        # root's id sits in its top 8 bits
        self._clock = array("Q")
        self._seq = array("q")
        self._at = array("d")
        self._key: List[str] = []
        self._op: List[str] = []
        self._args: List[Tuple] = []
        # key -> its rows in issue order
        self._rows: Dict[str, array[int]] = {}

    def log_update(
        self, clock: int, key: str, op: str, args: Tuple, seq: int = 0, at: float = 0.0
    ) -> None:
        rows = self._rows.get(key)
        if rows is None:
            rows = self._rows[key] = array("q")
        rows.append(len(self._key))
        self._clock.append(clock)
        self._seq.append(seq)
        self._at.append(at)
        self._key.append(key)
        self._op.append(op)
        self._args.append(args)

    def log_read(
        self, clock: int, key: str, value: Any, ts: Dict[str, int], at: float = 0.0
    ) -> None:
        self.reads.append(ReadLogEntry(clock=clock, key=key, value=value, ts=dict(ts), at=at))

    def _entry(self, row: int) -> UpdateLogEntry:
        return UpdateLogEntry(
            self._clock[row], self._key[row], self._op[row], self._args[row],
            self._seq[row], self._at[row],
        )

    @property
    def updates(self) -> List[UpdateLogEntry]:
        """Every logged update, in issue order."""
        return [self._entry(row) for row in range(len(self._key))]

    def updated_keys(self) -> List[str]:
        """The keys with at least one logged update, in first-update order."""
        return list(self._rows)

    def updates_for(self, key: str) -> List[UpdateLogEntry]:
        return [self._entry(row) for row in self._rows.get(key, ())]

    def reads_for(self, key: str) -> List[ReadLogEntry]:
        return [entry for entry in self.reads if entry.key == key]

    def updates_after(self, key: str, clock: int) -> List[UpdateLogEntry]:
        """Update ops on ``key`` strictly after the op with clock ``clock``."""
        return entries_after(self.updates_for(key), clock)

    def truncate(self) -> None:
        self._reset_updates()
        self.reads.clear()

    def __len__(self) -> int:
        return len(self._key) + len(self.reads)
