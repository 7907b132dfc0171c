"""The QueryER engine facade (paper §3, Fig. 2).

Registers dirty entity collections, builds the per-table indices once
(TBI, ITBI, LI), parses incoming SQL, routes ``SELECT DEDUP`` queries
through the ER planner/executor, ``INSERT INTO`` through the incremental
ingestion subsystem, and everything else through the plain relational
path.  Plans are cached in the engine's one epoch-keyed cache.

>>> engine = QueryEREngine()
>>> engine.register(publications)
>>> engine.register(venues)
>>> result = engine.execute(
...     "SELECT DEDUP P.Title, P.Year, V.Rank "
...     "FROM P INNER JOIN V ON P.venue = V.title WHERE P.venue = 'EDBT'")
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.core.dedup_operator import DeduplicateOperator
from repro.core.epoch_cache import EpochCache, epoch_key
from repro.core.indices import TableIndex
from repro.core.planner import (
    DedupQueryExecutor,
    DedupQueryPlan,
    DedupQueryPlanner,
    ExecutionMode,
    analyze_lines,
)
from repro.er.matching import DEFAULT_THRESHOLD, ProfileMatcher
from repro.er.meta_blocking import MetaBlockingConfig
from repro.incremental import DmlExecutor, IndexMaintainer, IngestResult
from repro.sql import ast, normalize_sql
from repro.sql.executor import QueryResult, execute_plan
from repro.sql.parser import parse
from repro.sql.physical import PhysicalOperator
from repro.sql.planner import RelationalPlanner
from repro.storage.catalog import Catalog
from repro.storage.table import Table

#: Capacity of the engine's plan cache, in entries.
PLAN_CACHE_SIZE = 128


class QueryEREngine:
    """Analysis-aware deduplicating SQL engine.

    Parameters
    ----------
    match_threshold:
        Mean-similarity threshold of the schema-agnostic matcher.
    meta_blocking:
        Meta-blocking stages used by every Deduplicate (default ALL).
    use_link_index:
        Progressive cleaning across queries via the Link Index (Fig 11's
        "With LI" configuration); disable to re-resolve every query.

    Every Deduplicate expands newly found duplicates until a fixpoint,
    so DR_G matches the Batch Approach exactly (DQ Correctness, §5).

    **Plans.**
    :class:`~repro.core.planner.DedupQueryPlanner` plans every DEDUP
    query (§7.2.1: clean the cheaper side of the first join first, by
    the WHERE-literal comparison estimate) and
    :class:`~repro.sql.planner.RelationalPlanner` every other SELECT.
    Registration builds indices only.  Plans are entries of
    :attr:`plan_cache`, keyed ``(kind, normalized SQL, epochs)`` — kind
    = mode, or ``"relational"`` — on the epochs of the tables the
    statement names.  Every register, unregister and adopt drops the
    whole cache; a committed insert drops only the plans that read the
    grown table — the plans of statements over other tables stay.

    **Epoch/snapshot contract.**  The engine is the single source of
    truth for per-table *epochs*: :meth:`register` and every ingested
    batch (:meth:`insert` / ``INSERT INTO``) advance the table's epoch
    counter, and nothing else does.  Tables are append-only, so one
    epoch value denotes exactly one immutable prefix of the table — two
    reads of the same table at the same epoch are reads of identical
    data, and any result computed at epoch map *E* stays correct for as
    long as :meth:`table_epochs` still equals *E*.  Consumers key every
    derived artefact on the epoch: the plan cache keys each entry on
    the epochs it read, and the serving layer (:mod:`repro.serving`)
    stamps each response with the epoch map it executed under and keys
    its result cache on ``(mode, normalized SQL, epochs of the tables
    the statement names)`` (:meth:`epochs_of`) — epoch-stamped snapshot
    reads over the append-only tables.
    """

    def __init__(
        self,
        match_threshold: float = DEFAULT_THRESHOLD,
        meta_blocking: Optional[MetaBlockingConfig] = None,
        use_link_index: bool = True,
    ):
        self.catalog = Catalog()
        self.meta_blocking = meta_blocking or MetaBlockingConfig.all()
        self.match_threshold = match_threshold
        self.use_link_index = use_link_index
        self._indices: Dict[str, TableIndex] = {}
        self._epochs: Dict[str, int] = {}
        # Epochs of unregistered tables: a re-registration under the same
        # name resumes past its retired value, so an epoch never aliases
        # two different table states across an unregister/register cycle
        # (serving-layer result caches key on the epoch map).
        self._retired_epochs: Dict[str, int] = {}
        self._checkpointer = None
        self._matchers: Dict[str, ProfileMatcher] = {}
        self._relational = RelationalPlanner(self.catalog)
        self._executor = DedupQueryExecutor(self)
        self._plan_cache = EpochCache(PLAN_CACHE_SIZE)
        self._maintainer = IndexMaintainer(self)
        self._dml = DmlExecutor(self)

    # -- registration -----------------------------------------------------
    def register(self, table: Table, replace: bool = False) -> TableIndex:
        """Register *table*, building its token postings (TBI/ITBI) and LI.

        The new epoch makes every cached plan of a replaced registration
        unreachable, and the cache is emptied.
        """
        self.catalog.register(table, replace=replace)
        index = TableIndex(table)
        key = table.name.lower()
        # Registration (fresh or replacing) opens a new epoch: any
        # artefact keyed on a previous epoch of this name is now
        # unservable by construction.  Resuming past a retired epoch
        # keeps epochs unique across unregister/re-register cycles.
        self._epochs[key] = (
            max(self._epochs.get(key, 0), self._retired_epochs.pop(key, 0)) + 1
        )
        self._indices[key] = index
        self._matchers[key] = ProfileMatcher(
            threshold=self.match_threshold,
            exclude=(table.schema.id_column,),
        )
        self._plan_cache.invalidate()
        return index

    def unregister(self, name: str) -> bool:
        """Remove a table and *every* engine artefact derived from it.

        Purges the catalog entry, the postings/LI bundle, the matcher and
        every cached plan — leaving any of them would hand later queries
        (or the planner) state of a dead index.  The epoch
        entry is removed from :meth:`table_epochs` but its value is
        *retired*, so a later
        re-registration under the same name opens a strictly larger
        epoch instead of restarting at 1 (epoch-keyed caches — candidate
        plans, served results — would otherwise alias the old table's
        artefacts).  Returns whether the table was registered.
        """
        key = name.lower()
        known = key in self._indices or key in self.catalog
        self.catalog.unregister(key)
        self._indices.pop(key, None)
        self._matchers.pop(key, None)
        epoch = self._epochs.pop(key, None)
        if epoch is not None:
            self._retired_epochs[key] = max(epoch, self._retired_epochs.get(key, 0))
        self._plan_cache.invalidate()
        return known

    def adopt(self, index: TableIndex, epoch: int) -> None:
        """Install a pre-built :class:`TableIndex` at a given epoch.

        The warm-restart hook of :func:`repro.persist.load_engine`:
        unlike :meth:`register` nothing is rebuilt — the index and its
        vocabulary/postings/LI are adopted as-is, and the epoch counter
        is set to the snapshot's recorded value so epoch-keyed artefacts
        computed against the saved engine stay addressable.
        """
        table = index.table
        key = table.name.lower()
        self.catalog.register(table, replace=True)
        self._indices[key] = index
        self._matchers[key] = ProfileMatcher(
            threshold=self.match_threshold,
            exclude=(table.schema.id_column,),
        )
        self._epochs[key] = max(int(epoch), self._retired_epochs.pop(key, 0) + 1)
        self._plan_cache.invalidate()

    # -- persistence ------------------------------------------------------
    def save(self, directory) -> Dict[str, Any]:
        """Write a full snapshot of this engine (see :mod:`repro.persist`)."""
        from repro.persist.snapshot import save_engine

        return save_engine(self, directory)

    @classmethod
    def load(cls, directory, **overrides) -> "QueryEREngine":
        """Reconstruct a warm engine from a snapshot directory.

        Answers every query bit-identically to the engine that was
        saved — no tokenization or blocking build re-runs.  Keyword
        *overrides* (``meta_blocking=``, ``match_threshold=``, …) take
        precedence over the manifest's recorded configuration.
        """
        from repro.persist.snapshot import load_engine

        return load_engine(directory, **overrides)

    def enable_checkpointing(
        self,
        directory,
        delta_threshold: Optional[int] = None,
        background: bool = False,
    ):
        """Keep *directory* in step with this engine from now on.

        Ensures a base snapshot exists (a no-op when the engine was just
        loaded from that very directory — the warm-start path), then
        checkpoints every committed ``INSERT INTO`` batch as an
        epoch-tagged delta segment; see
        :class:`repro.persist.CheckpointManager`.
        """
        from repro.persist.checkpoint import DEFAULT_DELTA_THRESHOLD, CheckpointManager

        manager = CheckpointManager(
            self,
            directory,
            delta_threshold=(
                DEFAULT_DELTA_THRESHOLD if delta_threshold is None else delta_threshold
            ),
            background=background,
        )
        manager.ensure_snapshot()
        self._checkpointer = manager
        return manager

    @property
    def checkpointer(self):
        """The attached :class:`CheckpointManager`, or ``None``."""
        return self._checkpointer

    def _notify_committed(self, name: str, count: int) -> None:
        """Post-commit hook from the maintainer: checkpoint the batch.

        Runs strictly after the epoch advanced, i.e. only for batches
        that actually committed — a rolled-back insert never reaches
        this point, so it can never reach disk.
        """
        if self._checkpointer is not None:
            self._checkpointer.on_commit(name, count)

    def close(self) -> None:
        """Release every long-lived resource this engine holds.

        Drains/stops the checkpointer's background writer.  Idempotent;
        also runs when the engine is used as a context manager.  An
        engine without checkpointing holds no such resources and
        close() is a no-op.
        """
        if self._checkpointer is not None:
            self._checkpointer.close()

    def __enter__(self) -> "QueryEREngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- epochs ----------------------------------------------------------
    def epoch_of(self, name: str) -> int:
        """Current epoch of table *name* (0 if never registered).

        The epoch advances on :meth:`register` and on every ingested
        batch; see the class docstring for the snapshot contract.
        """
        return self._epochs.get(name.lower(), 0)

    def table_epochs(self) -> Dict[str, int]:
        """Snapshot of every registered table's current epoch.

        The returned dict is a copy: it keeps describing the moment of
        the call even as later inserts advance the live counters.
        """
        return dict(self._epochs)

    # -- plan cache -------------------------------------------------------
    @property
    def plan_cache(self) -> EpochCache:
        """The LRU of plans (stats surfaced by serving /metrics)."""
        return self._plan_cache

    def _cached(
        self, kind: str, key: Any, epochs: Dict[str, int], compute: Callable[[], Any]
    ) -> Any:
        """The :attr:`plan_cache` entry ``(kind, key, epochs)``, computed on a miss."""
        cache_key = epoch_key(kind, key, epochs)
        value = self._plan_cache.get(cache_key)
        if value is None:
            value = compute()
            self._plan_cache.put(cache_key, value)
        return value

    def note_appended(self, name: str, count: int) -> None:
        """Advance *name*'s epoch after *count* rows were ingested into it.

        Called by the :class:`~repro.incremental.IndexMaintainer` on
        commit.  The new epoch makes every artefact keyed on the old one
        unreachable — the plan cache and the serving layer's result
        cache both key on it — and the plan cache drops those entries:
        the plans that read *name*.  The others stay.
        """
        if count <= 0:
            return
        key = name.lower()
        self._epochs[key] = self._epochs.get(key, 0) + 1
        self._plan_cache.evict_stale(self._epochs)

    def index_of(self, name: str) -> TableIndex:
        """The :class:`TableIndex` of a registered table."""
        try:
            return self._indices[name.lower()]
        except KeyError:
            raise KeyError(f"table {name!r} is not registered") from None

    def matcher_for(self, index: TableIndex) -> ProfileMatcher:
        return self._matchers[index.table.name.lower()]

    def dedup_operator(self, index: TableIndex) -> DeduplicateOperator:
        """A Deduplicate operator wired to this engine's configuration."""
        return DeduplicateOperator(
            index,
            matcher=self.matcher_for(index),
            meta_blocking=self.meta_blocking,
            use_link_index=self.use_link_index,
        )

    def reset_link_indexes(self) -> None:
        """Forget all progressive-cleaning state (fresh-engine behaviour)."""
        for index in self._indices.values():
            index.link_index.clear()

    def clear_caches(self) -> None:
        """Reset LIs and matcher memoization.

        Benchmarks call this between measurements so no run inherits a
        warm Link Index or similarity cache from a previous one.
        """
        self.reset_link_indexes()
        for matcher in self._matchers.values():
            matcher.clear_cache()

    # -- ingestion -------------------------------------------------------------
    def insert(
        self,
        table_name: str,
        rows: Iterable[Sequence[Any]],
        columns: Optional[Sequence[str]] = None,
    ) -> IngestResult:
        """Append *rows* to a registered table with full index maintenance.

        Programmatic twin of ``INSERT INTO``: storage append, delta TBI/
        ITBI amendment, Link-Index invalidation and epoch advance in one
        atomic batch (see :mod:`repro.incremental`).
        """
        return self._maintainer.append(table_name, rows, columns=columns)

    # -- queries --------------------------------------------------------------
    def execute(
        self,
        sql: str,
        mode: Union[ExecutionMode, str] = ExecutionMode.AES,
    ) -> QueryResult:
        """Parse and run *sql*; DEDUP queries go through the ER pipeline,
        DML through the incremental ingestion subsystem."""
        mode = ExecutionMode(mode) if isinstance(mode, str) else mode
        query = parse(sql)
        if isinstance(query, ast.ExplainStatement):
            return self._explain_statement(query, mode)
        if isinstance(query, ast.InsertStatement):
            return self._dml.execute(query)
        return execute_plan(self._plan(query, mode))

    # -- plan selection ---------------------------------------------------
    @staticmethod
    def statement_tables(statement: ast.Statement) -> Tuple[str, ...]:
        """The (lower-cased) names of the tables *statement* reads or
        writes — an ``EXPLAIN``'s are those of the statement it wraps."""
        if isinstance(statement, ast.ExplainStatement):
            statement = statement.statement
        if isinstance(statement, ast.InsertStatement):
            return (statement.table.lower(),)
        refs = (statement.table, *(j.table for j in statement.joins))
        return tuple(ref.name.lower() for ref in refs)

    def epochs_of(self, tables: Iterable[str]) -> Dict[str, int]:
        """The epochs of *tables* — the cache key of an answer or plan of a
        statement naming them.  An unknown name keys at epoch 0; planning
        it raises, so nothing is cached under it."""
        return {name: self.epoch_of(name) for name in tables}

    def _dedup_plan(self, query: ast.SelectQuery, mode: ExecutionMode) -> DedupQueryPlan:
        """The §7.2.1 plan of a DEDUP query, from the plan cache if there.

        The key holds the epochs of the tables the query reads only.  The
        planner's comparison estimate skips Link-Index-resolved entities,
        so a cached join plan keeps the clean-first choice made before
        earlier queries filled the Link Index.
        """
        return self._cached(
            mode.value,
            normalize_sql(str(query)),
            self.epochs_of(self.statement_tables(query)),
            lambda: DedupQueryPlanner(self).plan(query, mode),
        )

    def _plan(self, query: ast.SelectQuery, mode: ExecutionMode) -> PhysicalOperator:
        """The operator tree *query* runs, from the plan cache if there: a
        DEDUP plan's ``root``, or a plain SELECT's tree (kind
        ``"relational"``)."""
        if query.dedup:
            return self._dedup_plan(query, mode).root
        return self._cached(
            "relational",
            normalize_sql(str(query)),
            self.epochs_of(self.statement_tables(query)),
            lambda: self._relational.plan(query),
        )

    def _explain_statement(
        self, statement: ast.ExplainStatement, mode: ExecutionMode
    ) -> QueryResult:
        """Answer ``EXPLAIN [ANALYZE]`` as a one-column plan rendering."""
        inner = statement.statement
        start = time.perf_counter()
        if isinstance(inner, ast.InsertStatement):
            if statement.analyze:
                raise ValueError(
                    "EXPLAIN ANALYZE is not supported for INSERT INTO "
                    "(it would execute the mutation)"
                )
            lines = DmlExecutor.describe(inner).splitlines()
        elif inner.dedup:
            plan = self._dedup_plan(inner, mode)
            root = plan.root
            lines, estimated = plan.explain()
        else:
            root = self._plan(inner, mode)
            lines, estimated = ["-- plan: relational"] + root.pretty().splitlines(), None
        if statement.analyze:
            result = execute_plan(root)
            lines = analyze_lines(
                lines,
                estimated_comparisons=estimated,
                actual_rows=len(result.rows),
                actual_comparisons=result.comparisons,
                elapsed_s=result.elapsed,
                stage_times=result.stage_times,
            )
        elapsed = time.perf_counter() - start
        text = "\n".join(lines)
        return QueryResult(["plan"], [(line,) for line in lines], elapsed, None, text)

    def explain(
        self,
        sql: str,
        mode: Union[ExecutionMode, str] = ExecutionMode.AES,
    ) -> str:
        """The plan that :meth:`execute` would run, as an indented tree:
        the text of ``EXPLAIN`` *sql* (an ``EXPLAIN [ANALYZE]`` prefix is
        accepted and never executes the statement)."""
        mode = ExecutionMode(mode) if isinstance(mode, str) else mode
        statement = parse(sql)
        if isinstance(statement, ast.ExplainStatement):
            statement = statement.statement
        return self._explain_statement(ast.ExplainStatement(statement), mode).plan_description

    def plan_for(
        self,
        sql: str,
        mode: Union[ExecutionMode, str] = ExecutionMode.AES,
    ) -> DedupQueryPlan:
        """The plan :meth:`execute` would run for a DEDUP *sql*
        (estimates, clean-first choice), from the plan cache if there."""
        mode = ExecutionMode(mode) if isinstance(mode, str) else mode
        query = parse(sql)
        if isinstance(query, ast.InsertStatement) or not query.dedup:
            raise ValueError("plan_for() is for DEDUP queries; use explain()")
        return self._dedup_plan(query, mode)
