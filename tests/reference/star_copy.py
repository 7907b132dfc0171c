"""The star-copy reference for how a Deduplicate reads the Link Index.

:class:`~repro.core.dedup_operator.DeduplicateOperator` reads a resolved
entity's Link Index cluster in place: it joins the cluster into its
result as one component, with no pairs, and leaves the entity's star to
the Link Index's commit, which skips a star whose cluster has not grown.
This oracle spells the same specification the obvious way: every read
copies the cluster into the result as a star of pairs from the entity to
every other member, and the commit adds every pair of the result, stars
included, to the Link Index.  :func:`star_copy_engine` is an engine
whose DEDUP statements run through it.
"""

from __future__ import annotations

from typing import Any, List, Set

from repro.core.dedup_operator import DeduplicateOperator
from repro.core.engine import QueryEREngine
from repro.core.indices import TableIndex
from repro.er.linkset import LinkSet


class StarCopyDeduplicate(DeduplicateOperator):
    """Deduplicate that copies each cluster it reads as a star of pairs."""

    def _read_cluster(self, links: LinkSet, entity_id: Any, roots: Set[Any]) -> None:
        cluster = self.index.link_index.cluster_of(entity_id)
        if len(cluster) > 1:
            links.add_all(entity_id, cluster)

    def _commit(self, links: LinkSet, read: List[Any]) -> None:
        self.index.link_index.add_links(links)


class _StarCopyEngine(QueryEREngine):
    def dedup_operator(self, index: TableIndex) -> DeduplicateOperator:
        return StarCopyDeduplicate(
            index,
            matcher=self.matcher_for(index),
            meta_blocking=self.meta_blocking,
            use_link_index=self.use_link_index,
        )


def star_copy_engine(**kwargs: Any) -> QueryEREngine:
    """An engine whose every DEDUP runs :class:`StarCopyDeduplicate`."""
    return _StarCopyEngine(**kwargs)


def star_copy_load(directory: Any) -> QueryEREngine:
    """:func:`star_copy_engine` over the indices of a saved snapshot, at
    their saved epochs and with the saved engine settings."""
    loaded = QueryEREngine.load(directory)
    engine = star_copy_engine(
        match_threshold=loaded.match_threshold,
        meta_blocking=loaded.meta_blocking,
        use_link_index=loaded.use_link_index,
    )
    for name, epoch in loaded.table_epochs().items():
        engine.adopt(loaded.index_of(name), epoch)
    return engine
