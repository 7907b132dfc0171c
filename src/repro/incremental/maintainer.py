"""Delta-aware maintenance of one table's storage, indices and LI.

See the package docstring for the Link-Index invalidation rationale.

Once a batch commits (the epoch advances), the engine's
``_notify_committed`` hands it to the checkpointer — strictly
post-commit, so a rolled-back insert never reaches disk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, List, Optional, Sequence, Tuple

from repro.resilience import DEGRADATION, inject
from repro.storage.schema import SchemaError
from repro.storage.table import Row

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine ↔ incremental)
    from repro.core.engine import QueryEREngine


class IngestError(RuntimeError):
    """An ingest batch failed after partial application and was rolled back.

    By the time this surfaces, the table's rows, token postings,
    signature columns and epoch all equal the pre-insert snapshot again
    (the rollback property suite checks this against a never-inserted
    engine).  The original failure is chained as ``__cause__``.
    """

    def __init__(self, table: str, stage: str, cause: BaseException):
        super().__init__(
            f"INSERT INTO {table} failed during {stage} and was rolled back: {cause!r}"
        )
        self.table = table
        self.stage = stage
        self.rolled_back = True


@dataclass(frozen=True)
class IngestResult:
    """Outcome of one ingested batch, for callers and benchmarks."""

    table: str
    inserted: int
    touched_blocks: int
    affected_entities: int
    invalidated: int
    elapsed: float
    #: How many tokens this batch added to the table's interned
    #: vocabulary (the Comparison-Execution fast path's dictionary) —
    #: maintained delta-wise, never rebuilt.
    interned_tokens: int = 0

    def __repr__(self) -> str:
        return (
            f"IngestResult({self.table!r}, +{self.inserted} rows, "
            f"{self.touched_blocks} blocks touched, "
            f"{self.invalidated} un-resolved, "
            f"+{self.interned_tokens} tokens, {self.elapsed:.4f}s)"
        )


class IndexMaintainer:
    """Applies one append batch to a registered table end-to-end.

    Orchestrates the four maintenance steps (storage append, postings
    amendment, LI invalidation, epoch advance) so the engine's view
    of the table is indistinguishable from a fresh registration of the
    grown table — at a cost proportional to the batch, not the table.
    """

    def __init__(self, engine: "QueryEREngine"):
        self.engine = engine

    def append(
        self,
        table_name: str,
        rows: Iterable[Sequence[Any]],
        columns: Optional[Sequence[str]] = None,
    ) -> IngestResult:
        """Ingest *rows* into the registered table *table_name*.

        With *columns*, each row supplies values for exactly those
        columns (any order); missing columns become NULL.  Without, rows
        must cover the full schema in declaration order.  The batch is
        **transactional**: a schema violation raises before anything
        mutates, and a failure after the storage append committed
        (index amendment, LI invalidation — organic or injected via the
        ``dml.*`` fault sites) rolls the table and every derived index
        back to the pre-insert snapshot and surfaces as a typed
        :class:`IngestError`.  The epoch advances only on the commit
        path, so epoch-keyed caches (cached plans, served results)
        correctly keep serving the pre-insert state after a rollback.
        """
        start = time.perf_counter()
        index = self.engine.index_of(table_name)
        table = index.table
        full_rows = self._project_to_schema(table, rows, columns)
        rows_before = len(table)
        appended: List[Row] = table.append_rows(full_rows)
        vocabulary_before = len(index.vocabulary)
        delta = None
        try:
            inject("dml.after_append")  # crash between storage and index amendment
            # add_records is itself atomic: it either returns a fully
            # applied delta or undoes its partial work before raising —
            # in which case only the storage append needs unwinding here.
            delta = index.add_records([row.id for row in appended])
            inject("dml.before_commit")  # crash before the epoch advances
            invalidated = self._invalidate_link_index(index, delta)
            self.engine.note_appended(table.name, len(appended))
        except BaseException as error:
            stage = "index amendment" if delta is None else "commit"
            if delta is not None:
                index.remove_records(delta)
            table.rollback_to(rows_before)
            DEGRADATION.record(
                "dml",
                "rollback",
                f"INSERT INTO {table.name} (+{len(appended)} rows) rolled back "
                f"during {stage}: {error!r}",
            )
            if isinstance(error, Exception):
                raise IngestError(table.name, stage, error) from error
            raise  # KeyboardInterrupt/SystemExit: rolled back, not wrapped
        # Post-commit, outside the transaction: the delta checkpoint hook
        # (repro.persist) only ever sees batches whose epoch advanced —
        # rolled-back inserts never reach disk — and a checkpoint failure
        # degrades service health without failing the committed insert.
        self.engine._notify_committed(table.name, len(appended))
        return IngestResult(
            table=table.name,
            inserted=len(appended),
            touched_blocks=len(delta.touched_keys),
            affected_entities=len(delta.affected_ids),
            invalidated=invalidated,
            elapsed=time.perf_counter() - start,
            interned_tokens=len(index.vocabulary) - vocabulary_before,
        )

    # -- steps -----------------------------------------------------------
    @staticmethod
    def _project_to_schema(table, rows, columns) -> List[Tuple[Any, ...]]:
        """Expand partial-column rows to full schema-ordered value tuples."""
        if columns is None:
            return [tuple(row) for row in rows]
        schema = table.schema
        positions = [schema.position(name) for name in columns]
        if len(set(positions)) != len(positions):
            raise SchemaError(f"duplicate column in insert list: {tuple(columns)}")
        width = len(schema)
        projected: List[Tuple[Any, ...]] = []
        for row in rows:
            values = list(row)
            if len(values) != len(positions):
                raise SchemaError(
                    f"row has {len(values)} values for {len(positions)} columns"
                )
            full: List[Any] = [None] * width
            for position, value in zip(positions, values):
                full[position] = value
            projected.append(tuple(full))
        return projected

    def _invalidate_link_index(self, index, delta) -> int:
        """Un-resolve the LI clusters of resolved entities that share a
        block with an appended record (see the package docstring).

        Not undone on rollback: un-resolving is conservative (an entity
        re-resolves at its next evaluation, at re-computation cost, not
        correctness cost), so a rollback that leaves extra entities
        unresolved still answers every query exactly like the
        pre-insert engine.
        """
        link_index = index.link_index
        directly_hit = link_index.resolved_subset(delta.affected_ids)
        if not directly_hit:
            return 0
        cluster_closure = link_index.links.closure(directly_hit)
        return link_index.unresolve(cluster_closure)
