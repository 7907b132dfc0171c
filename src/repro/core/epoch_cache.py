"""The epoch-keyed LRU behind the engine's plan cache and the serving
layer's result cache.

Both memoize something derived from one engine snapshot under the key

    (kind, key, frozenset of (table, epoch) pairs)

with the epochs taken from :meth:`QueryEREngine.epochs_of`.  The
serving result cache holds whole answers (kind = execution mode, key =
normalized SQL, the epochs of the tables the statement names).  The
engine's cache holds plans: a DEDUP plan (kind = execution mode) and a
plain SELECT's operator tree (kind ``"relational"``), keyed on
normalized SQL and the epochs of the tables the statement names.

Tables are append-only and every mutation advances the table's epoch,
so an entry can never describe anything but the exact snapshot it was
computed against: after an ``INSERT INTO``, lookups key on the new
epoch and miss — the stale entry is unreachable by construction.

Unreachable is not free, though: dead entries would squat in the LRU
until capacity pressure ages them out.  :meth:`EpochCache.invalidate`
drops everything (the engine calls it on every register, unregister
and adopt) and :meth:`EpochCache.evict_stale` drops only the entries
whose epochs disagree with the live ones (the engine calls it on every
committed insert, the serving layer on every epoch advance).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Tuple

from repro.er.util import LRUCache


def epoch_key(
    kind: str, key: Hashable, epochs: Dict[str, int]
) -> Tuple[str, Hashable, FrozenSet[Tuple[str, int]]]:
    """The cache key of *key*, an entry of *kind*, at snapshot *epochs*."""
    return (kind, key, frozenset(epochs.items()))


class EpochCache(LRUCache):
    """The lock-guarded :class:`~repro.er.util.LRUCache` over
    :func:`epoch_key`-keyed entries, plus the two epoch-aware drops."""

    def invalidate(self) -> int:
        """Drop every entry; returns the number dropped."""
        return self.clear()

    def evict_stale(self, current_epochs: Dict[str, int]) -> int:
        """Drop entries whose snapshot disagrees with *current_epochs*.

        An entry survives only if every table in its key's epoch set
        still sits at the recorded epoch.  Returns the number dropped.
        """
        with self._lock:
            stale: List[Hashable] = [
                key
                for key in self._data
                if any(current_epochs.get(table) != epoch for table, epoch in key[-1])
            ]
            for key in stale:
                del self._data[key]
            self.stats["invalidations"] += len(stale)
            return len(stale)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {"size": len(self._data), **self.stats}
