"""Linksets — collections of resolved duplicate pairs (paper's L_E)."""

from __future__ import annotations

from typing import Any, Collection, Dict, Iterable, Iterator, List, Optional, Set, Tuple


def canonical_pair(a: Any, b: Any) -> Tuple[Any, Any]:
    """Order-insensitive representation of a duplicate pair.

    Ids within one collection are homogeneous and compare directly; the
    repr() fallback keeps mixed-type pairs (cross-table tests) working.
    """
    try:
        return (a, b) if a <= b else (b, a)
    except TypeError:
        return (a, b) if repr(a) <= repr(b) else (b, a)


class LinkSet:
    """A set of matching entity pairs with a cluster member index.

    Implements the paper's ``L_E``: the output of ER over a dirty
    collection.  Beside the pairs (iterated for metrics and persistence)
    it keeps the connected components of the link graph as a union-find
    member index — every linked entity maps to a root, every root to its
    member set — maintained on each :meth:`add` by merging the smaller
    member set into the larger.  Cluster reads (:meth:`cluster_of`,
    :meth:`closure`, :meth:`representative`) are therefore lookups, not
    walks over the link graph.

    :meth:`join` puts a whole cluster read elsewhere (a Link Index's)
    into one component without recording a pair, so the components can
    be coarser than the pairs; equality and iteration see the pairs only.
    """

    def __init__(self, pairs: Iterable[Tuple[Any, Any]] = ()):
        self._pairs: Set[Tuple[Any, Any]] = set()
        self._root_of: Dict[Any, Any] = {}
        self._members: Dict[Any, Set[Any]] = {}
        #: root → smallest member by ``repr``, filled on first read.
        self._representative: Dict[Any, Any] = {}
        for a, b in pairs:
            self.add(a, b)

    def add(self, a: Any, b: Any) -> bool:
        """Record that *a* ≡ *b*; returns False when already known/self."""
        if a == b:
            return False
        pair = canonical_pair(a, b)
        if pair in self._pairs:
            return False
        self._pairs.add(pair)
        self._merge(a, b)
        return True

    def _merge(self, a: Any, b: Any) -> None:
        root_of = self._root_of
        members = self._members
        root_a = root_of.get(a, _UNLINKED)
        root_b = root_of.get(b, _UNLINKED)
        if root_a is _UNLINKED and root_b is _UNLINKED:
            root_of[a] = root_of[b] = a
            members[a] = {a, b}
            return
        if root_a is _UNLINKED:
            root_a, root_b, b = root_b, root_a, a
        if root_b is _UNLINKED:
            root_of[b] = root_a
            members[root_a].add(b)
            self._representative.pop(root_a, None)
            return
        if root_a == root_b:
            return
        if len(members[root_a]) < len(members[root_b]):
            root_a, root_b = root_b, root_a
        absorbed = members.pop(root_b)
        for member in absorbed:
            root_of[member] = root_a
        members[root_a] |= absorbed
        self._representative.pop(root_a, None)
        self._representative.pop(root_b, None)

    def join(self, members: Collection[Any]) -> None:
        """Put all of *members* in one component, recording no pair."""
        if len(members) < 2:
            return
        first, *rest = members
        for member in rest:
            self._merge(first, member)

    def add_all(self, entity_id: Any, others: Iterable[Any]) -> None:
        """Record that *entity_id* ≡ each of *others* (itself skipped)."""
        star = {canonical_pair(entity_id, other) for other in others if other != entity_id}
        self._add_new(star)

    def update(self, other: Iterable[Tuple[Any, Any]]) -> None:
        """Merge all pairs of *other* (a linkset, or any pairs) into this one."""
        if isinstance(other, LinkSet):
            self._add_new(other._pairs)
        else:
            for a, b in other:
                self.add(a, b)

    def _add_new(self, pairs: Set[Tuple[Any, Any]]) -> None:
        """Add canonical *pairs*, skipping the known ones."""
        new = pairs - self._pairs
        self._pairs |= new
        for a, b in new:
            self._merge(a, b)

    def component(self, entity_id: Any) -> Optional[Tuple[Any, Set[Any]]]:
        """*entity_id*'s component as ``(root, members)`` — the member
        index's own set, to read and not to change — or None when it
        is in no component."""
        root = self._root_of.get(entity_id, _UNLINKED)
        if root is _UNLINKED:
            return None
        return root, self._members[root]

    def cluster_of(self, entity_id: Any) -> Set[Any]:
        """Transitive closure of duplicates including *entity_id* itself."""
        root = self._root_of.get(entity_id, _UNLINKED)
        if root is _UNLINKED:
            return {entity_id}
        return set(self._members[root])

    def closure(self, entity_ids: Iterable[Any]) -> Set[Any]:
        """Union of :meth:`cluster_of` over *entity_ids*.

        The incremental subsystem uses this to expand a set of
        directly-affected entities to every entity whose recorded cluster
        they participate in, so un-resolving after an append reaches the
        whole cluster and not just its block-sharing members.
        """
        root_of = self._root_of
        reached: Set[Any] = set()
        roots: Set[Any] = set()
        for entity_id in entity_ids:
            root = root_of.get(entity_id, _UNLINKED)
            if root is _UNLINKED:
                reached.add(entity_id)
            elif root not in roots:
                roots.add(root)
                reached |= self._members[root]
        return reached

    def representative(self, entity_id: Any) -> Any:
        """Canonical id of *entity_id*'s cluster: its smallest member by
        ``repr``, so the answer is independent of the order links arrived
        in.  An unlinked entity is its own representative."""
        root = self._root_of.get(entity_id, _UNLINKED)
        if root is _UNLINKED:
            return entity_id
        try:
            return self._representative[root]
        except KeyError:
            smallest = self._representative[root] = min(self._members[root], key=repr)
            return smallest

    def entities(self) -> Set[Any]:
        """Every entity participating in at least one link."""
        return set(self._root_of)

    def clusters(self) -> List[Set[Any]]:
        """All duplicate clusters (connected components, size ≥ 2),
        ordered by representative."""
        roots = sorted(self._members, key=lambda root: repr(self.representative(root)))
        return [set(self._members[root]) for root in roots]

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[Tuple[Any, Any]]:
        return iter(self._pairs)

    def __contains__(self, pair: Tuple[Any, Any]) -> bool:
        return canonical_pair(*pair) in self._pairs

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinkSet) and self._pairs == other._pairs

    def copy(self) -> "LinkSet":
        clone = LinkSet()
        clone._pairs = set(self._pairs)
        clone._root_of = dict(self._root_of)
        clone._members = {root: set(group) for root, group in self._members.items()}
        clone._representative = dict(self._representative)
        return clone

    def __repr__(self) -> str:
        return f"LinkSet({len(self._pairs)} pairs, {len(self._root_of)} entities)"


#: ``_root_of`` default for an entity no link mentions.
_UNLINKED = object()
