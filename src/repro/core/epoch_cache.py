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

import threading
from typing import Any, Dict, FrozenSet, Hashable, List, Optional, Tuple


def epoch_key(
    normalized_sql: str, mode: str, epochs: Dict[str, int]
) -> Tuple[str, str, FrozenSet[Tuple[str, int]]]:
    """The cache key of *normalized_sql* under *mode* at snapshot *epochs*."""
    return (normalized_sql, mode, frozenset(epochs.items()))


class EpochCache:
    """Lock-guarded LRU over :func:`epoch_key`-keyed entries.

    ``capacity <= 0`` disables caching (every ``get`` misses, ``put`` is
    a no-op), so a cold path can be measured and tested without a second
    code path.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._data: Dict[Hashable, Any] = {}
        self.stats = {"hits": 0, "misses": 0, "evictions": 0, "invalidations": 0}

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            if key not in self._data:
                self.stats["misses"] += 1
                return None
            entry = self._data.pop(key)
            self._data[key] = entry  # re-insert: most recently used
            self.stats["hits"] += 1
            return entry

    def put(self, key: Hashable, entry: Any) -> None:
        if self.capacity <= 0:
            return
        with self._lock:
            if key in self._data:
                del self._data[key]
            elif len(self._data) >= self.capacity:
                del self._data[next(iter(self._data))]
                self.stats["evictions"] += 1
            self._data[key] = entry

    def invalidate(self) -> int:
        """Drop every entry; returns the number dropped."""
        with self._lock:
            dropped = len(self._data)
            self._data.clear()
            self.stats["invalidations"] += dropped
            return dropped

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
