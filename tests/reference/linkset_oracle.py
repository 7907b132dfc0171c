"""The adjacency-walk reference for the Link Index's cluster reads.

:class:`~repro.er.linkset.LinkSet` answers cluster reads from a
union-find member index maintained on every ``add``.  This oracle
spells the same specification the obvious way: a dict-of-sets
adjacency over the recorded pairs, and a breadth-first walk per
:meth:`AdjacencyLinks.cluster_of` call.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Set, Tuple


class AdjacencyLinks:
    """Recorded pairs as an undirected adjacency; clusters by walking it."""

    def __init__(self, pairs: Iterable[Tuple[Any, Any]] = ()):
        self._adjacent: Dict[Any, Set[Any]] = {}
        for a, b in pairs:
            self.add(a, b)

    def add(self, a: Any, b: Any) -> None:
        if a == b:
            return
        self._adjacent.setdefault(a, set()).add(b)
        self._adjacent.setdefault(b, set()).add(a)

    def cluster_of(self, entity_id: Any) -> Set[Any]:
        """Transitive closure of duplicates including *entity_id* itself."""
        seen = {entity_id}
        frontier = [entity_id]
        while frontier:
            current = frontier.pop()
            for neighbour in self._adjacent.get(current, ()):
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return seen

    def closure(self, entity_ids: Iterable[Any]) -> Set[Any]:
        reached: Set[Any] = set()
        for entity_id in entity_ids:
            reached |= self.cluster_of(entity_id)
        return reached

    def entities(self) -> Set[Any]:
        return set(self._adjacent)

    def clusters(self) -> List[Set[Any]]:
        """Connected components of size ≥ 2, in no particular order."""
        found: List[Set[Any]] = []
        covered: Set[Any] = set()
        for entity_id in self._adjacent:
            if entity_id not in covered:
                cluster = self.cluster_of(entity_id)
                covered |= cluster
                found.append(cluster)
        return found
