"""Epoch-keyed result cache: the serving layer's snapshot-read memory.

Memoizes a whole query's *answer*.  The key is

    (normalized SQL, execution mode, frozenset of (table, epoch) pairs)

with the epochs taken from :meth:`QueryEREngine.table_epochs` at
execution time.  Tables are append-only and every mutation advances the
table's epoch, so an entry can never describe anything but the exact
snapshot it was computed against: after an ``INSERT INTO``, lookups key
on the new epoch and miss — the stale entry is unreachable by
construction.

Unreachable is not free, though: dead entries would squat in the LRU
until capacity pressure ages them out.  :meth:`evict_stale` is the
explicit invalidation hook the service calls on every epoch advance,
dropping all entries whose recorded epochs disagree with the live ones.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Hashable, List, Optional, Tuple


@dataclass(frozen=True)
class CachedResult:
    """One served query's immutable answer plus its execution stamp."""

    columns: Tuple[str, ...]
    rows: Tuple[Tuple[Any, ...], ...]
    comparisons: int
    stage_times: Dict[str, float] = field(default_factory=dict)
    #: The epoch map the answer was computed under — the snapshot stamp.
    epochs: Dict[str, int] = field(default_factory=dict)
    elapsed_s: float = 0.0
    plan_description: str = ""


def result_key(
    normalized_sql: str, mode: str, epochs: Dict[str, int]
) -> Tuple[str, str, FrozenSet[Tuple[str, int]]]:
    """The cache key of *normalized_sql* at snapshot *epochs*."""
    return (normalized_sql, mode, frozenset(epochs.items()))


class ResultCache:
    """Lock-guarded LRU over :class:`CachedResult` entries.

    ``capacity <= 0`` disables caching (every ``get`` misses, ``put`` is
    a no-op) so the service's cold-path behaviour can be measured and
    tested without a second code path.
    """

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._data: Dict[Hashable, CachedResult] = {}
        self.stats = {"hits": 0, "misses": 0, "evictions": 0, "invalidations": 0}

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key: Hashable) -> Optional[CachedResult]:
        with self._lock:
            entry = self._data.pop(key, None)
            if entry is None:
                self.stats["misses"] += 1
                return None
            self._data[key] = entry  # re-insert: most recently used
            self.stats["hits"] += 1
            return entry

    def put(self, key: Hashable, entry: CachedResult) -> None:
        if self.capacity <= 0:
            return
        with self._lock:
            if key in self._data:
                del self._data[key]
            elif len(self._data) >= self.capacity:
                del self._data[next(iter(self._data))]
                self.stats["evictions"] += 1
            self._data[key] = entry

    def evict_stale(self, current_epochs: Dict[str, int]) -> int:
        """Drop entries whose snapshot disagrees with *current_epochs*.

        An entry survives only if every table it was stamped with still
        sits at the recorded epoch.  Returns the number dropped.
        """
        with self._lock:
            stale: List[Hashable] = [
                key
                for key, entry in self._data.items()
                if any(
                    current_epochs.get(table) != epoch
                    for table, epoch in entry.epochs.items()
                )
            ]
            for key in stale:
                del self._data[key]
            self.stats["invalidations"] += len(stale)
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {"size": len(self._data), **self.stats}
