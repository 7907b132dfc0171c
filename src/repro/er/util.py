"""Small shared helpers for the ER layer.

Hosts the canonical-ordering utilities the ER modules share plus the
bounded LRU cache backing the matcher memos.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Hashable, Tuple


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
    """A dict-backed least-recently-used cache with a hard capacity.

    Python dicts preserve insertion order, so re-inserting a key on
    every hit keeps the first key the least recently used one; eviction
    pops it.  All operations are O(1).

    Every mutating operation is guarded by a lock: one engine may be
    reached from several threads (serving handlers, for one), and the
    hit path is a non-atomic pop-then-reinsert that would corrupt LRU
    order (or drop entries) under concurrent access.
    """

    __slots__ = ("capacity", "_data", "_lock")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("LRU capacity must be at least 1")
        self.capacity = capacity
        self._data: Dict[Hashable, Any] = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            data = self._data
            try:
                value = data.pop(key)
            except KeyError:
                return default
            data[key] = value
            return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            data = self._data
            if key in data:
                del data[key]
            elif len(data) >= self.capacity:
                del data[next(iter(data))]
            data[key] = value

    def __setitem__(self, key: Hashable, value: Any) -> None:
        self.put(key, value)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
