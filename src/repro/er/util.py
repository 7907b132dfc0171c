"""Small shared helpers for the ER layer.

Hosts the canonical-ordering utilities the ER modules share, the
bounded LRU cache behind the matcher's pair memo and the engine's plan
and result caches, and the growable arrays
and range gather the table's CSR columns are built on.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Hashable, Tuple

import numpy as np


def safe_sorted(items) -> list:
    """Sort homogeneous ids directly; repr() fallback for mixed types."""
    try:
        return sorted(items)
    except TypeError:
        return sorted(items, key=repr)


def ordered_pair(a: Any, b: Any) -> Tuple[Any, Any]:
    """Canonical unordered-pair representation.

    Entity ids within one collection are homogeneous, so direct
    comparison works; the repr() fallback covers mixed-type universes
    (only reachable through hand-built block collections).
    """
    try:
        return (a, b) if a <= b else (b, a)
    except TypeError:
        return (a, b) if repr(a) <= repr(b) else (b, a)


class LRUCache:
    """A lock-guarded, dict-backed least-recently-used cache.

    Python dicts preserve insertion order, so re-inserting a key on
    every hit keeps the first key the least recently used one; eviction
    pops it.  All operations are O(1).  ``capacity <= 0`` disables
    caching (every ``get`` misses, ``put`` is a no-op), so a cold path
    can be measured and tested without a second code path.

    Reads and writes hold the lock: one engine may be reached from
    several threads (serving handlers, for one), and the hit path is a
    non-atomic pop-then-reinsert that would corrupt LRU order (or drop
    entries) under concurrent access.  :attr:`stats` counts hits,
    misses, evictions and the entries :meth:`clear` drops
    (``invalidations``).
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._data: Dict[Hashable, Any] = {}
        self._lock = threading.Lock()
        self.stats = {"hits": 0, "misses": 0, "evictions": 0, "invalidations": 0}

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            data = self._data
            try:
                value = data.pop(key)
            except KeyError:
                self.stats["misses"] += 1
                return default
            data[key] = value  # re-insert: most recently used
            self.stats["hits"] += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        if self.capacity <= 0:
            return
        with self._lock:
            data = self._data
            if key in data:
                del data[key]
            elif len(data) >= self.capacity:
                del data[next(iter(data))]
                self.stats["evictions"] += 1
            data[key] = value

    def __setitem__(self, key: Hashable, value: Any) -> None:
        self.put(key, value)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> int:
        """Drop every entry; returns the number dropped."""
        with self._lock:
            dropped = len(self._data)
            self._data.clear()
            self.stats["invalidations"] += dropped
            return dropped


class GrowableArray:
    """A contiguous NumPy array with amortized O(1) appends along axis 0.

    Capacity doubles on overflow, so the postings and signature columns
    stay contiguous (CSR consumers slice them directly) while ``INSERT``
    batches extend them at cost proportional to the batch.  *initial*
    fixes the dtype and the shape of one entry: ``np.empty((0, 5, 3))``
    starts an empty array of 5 x 3 entries.
    """

    __slots__ = ("_data", "_size")

    def __init__(self, initial: Any = (), dtype: Any = np.int64):
        self._data = np.array(initial, dtype=dtype)
        self._size = len(self._data)

    def __len__(self) -> int:
        return self._size

    def view(self) -> Any:
        """The live contents as a zero-copy array view."""
        return self._data[: self._size]

    def _reserve(self, extra: int) -> None:
        needed = self._size + extra
        if needed <= len(self._data):
            return
        capacity = max(needed, 2 * len(self._data))
        grown = np.empty((capacity,) + self._data.shape[1:], dtype=self._data.dtype)
        grown[: self._size] = self._data[: self._size]
        self._data = grown

    def grow(self, count: int) -> Any:
        """Append *count* uninitialized entries; a writable view of them."""
        self._reserve(count)
        self._size += count
        return self._data[self._size - count : self._size]

    def append(self, value: Any) -> None:
        self._reserve(1)
        self._data[self._size] = value
        self._size += 1

    def extend(self, values: Any) -> None:
        values = np.asarray(values, dtype=self._data.dtype)
        self._reserve(len(values))
        self._data[self._size : self._size + len(values)] = values
        self._size += len(values)

    def pad_to(self, size: int) -> None:
        """Zero-extend to at least *size* entries."""
        if size > self._size:
            self._reserve(size - self._size)
            self._data[self._size : size] = 0
            self._size = size

    def truncate(self, size: int) -> None:
        """Drop every entry from position *size* on."""
        self._size = min(self._size, size)


def gather_ranges(source: Any, starts: Any, counts: Any) -> Any:
    """Concatenate ``source[starts[i] : starts[i]+counts[i]]`` segments.

    The standard vectorized multi-slice gather: one ``arange`` over the
    total output size, shifted per segment.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=source.dtype)
    ends = np.cumsum(counts)
    positions = (
        np.arange(total, dtype=np.int64)
        - np.repeat(ends - counts, counts)
        + np.repeat(starts, counts)
    )
    return source[positions]
