"""The epoch-keyed LRU behind the engine's plan cache and the serving
layer's result cache.

Both memoize something derived from one engine snapshot — a plan, or a
whole answer — under the key

    (normalized SQL, execution mode, frozenset of (table, epoch) pairs)

with the epochs taken from :meth:`QueryEREngine.table_epochs`.  Tables
are append-only and every mutation advances the table's epoch, so an
entry can never describe anything but the exact snapshot it was computed
against: after an ``INSERT INTO``, lookups key on the new epoch and
miss — the stale entry is unreachable by construction.

Unreachable is not free, though: dead entries would squat in the LRU
until capacity pressure ages them out.  :meth:`EpochCache.invalidate`
drops everything (the engine calls it on every register, unregister,
adopt and committed insert) and :meth:`EpochCache.evict_stale` drops
only the entries whose epochs disagree with the live ones (the serving
layer calls it on every epoch advance).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Tuple

from repro.er.util import LRUCache


def epoch_key(
    normalized_sql: str, mode: str, epochs: Dict[str, int]
) -> Tuple[str, str, FrozenSet[Tuple[str, int]]]:
    """The cache key of *normalized_sql* under *mode* at snapshot *epochs*."""
    return (normalized_sql, mode, frozenset(epochs.items()))


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
