"""In-memory row-store tables.

A :class:`Table` is an append-only ordered collection of rows conforming
to a :class:`~repro.storage.schema.Schema`.  It is the physical
representation of the paper's *entity collection* E; the ER layer views
the same rows as :class:`~repro.core.entity.Entity` objects.  Existing
rows never change — the incremental ingestion subsystem
(:mod:`repro.incremental`) grows a table via :meth:`Table.append_rows`
and amends the dependent indices in step.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.resilience import inject
from repro.storage.columns import ColumnArray
from repro.storage.schema import Schema, SchemaError


class Row:
    """A single immutable row bound to its schema.

    Supports access by position (``row[0]``) and by column name
    (``row["title"]``, case-insensitive).
    """

    __slots__ = ("_schema", "_values")

    def __init__(self, schema: Schema, values: Sequence[Any]):
        self._schema = schema
        self._values = tuple(values)

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def values(self) -> tuple:
        return self._values

    @property
    def id(self) -> Any:
        """Value of the schema's identifier column."""
        return self._values[self._schema.id_position]

    def __getitem__(self, key) -> Any:
        if isinstance(key, int):
            return self._values[key]
        return self._values[self._schema.position(key)]

    def get(self, name: str, default: Any = None) -> Any:
        """Column value by name, or *default* when the column is absent."""
        if name not in self._schema:
            return default
        return self[name]

    def as_dict(self) -> Dict[str, Any]:
        """Materialize the row as a column-name → value mapping."""
        return dict(zip(self._schema.names, self._values))

    def replace(self, **updates: Any) -> "Row":
        """Return a copy with the named columns replaced."""
        values = list(self._values)
        for name, value in updates.items():
            values[self._schema.position(name)] = value
        return Row(self._schema, values)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Row)
            and self._values == other._values
            and self._schema.names == other._schema.names
        )

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{n}={v!r}" for n, v in zip(self._schema.names, self._values))
        return f"Row({pairs})"


class Table:
    """A named, in-memory, append-only table.

    Rows are coerced to the schema's column domains on construction.  The
    identifier column must be unique across rows — entity ids key every
    QueryER index.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        rows: Iterable[Sequence[Any]] = (),
        coerce: bool = True,
    ):
        if not name:
            raise ValueError("table name must be non-empty")
        self._name = name
        self._schema = schema
        self._rows: List[Row] = []
        self._by_id: Dict[Any, int] = {}
        #: Column position → typed arrays, built on first read (see
        #: :meth:`column_array`).
        self._columns: Dict[int, ColumnArray] = {}
        self.append_rows(rows, coerce=coerce)

    @property
    def name(self) -> str:
        return self._name

    @property
    def schema(self) -> Schema:
        return self._schema

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __getitem__(self, index: int) -> Row:
        return self._rows[index]

    def __contains__(self, entity_id: Any) -> bool:
        return entity_id in self._by_id

    @property
    def ids(self) -> List[Any]:
        """All entity ids in row order."""
        return [r.id for r in self._rows]

    def by_id(self, entity_id: Any) -> Row:
        """Fetch the row whose identifier equals *entity_id*."""
        try:
            return self._rows[self._by_id[entity_id]]
        except KeyError:
            raise KeyError(f"table {self._name!r} has no row with id {entity_id!r}") from None

    def rows_of(self, entity_ids: Iterable[Any]) -> List[Row]:
        """The rows of those *entity_ids* the table holds, in table order."""
        by_id = self._by_id
        rows = self._rows
        return [rows[p] for p in sorted(by_id[e] for e in entity_ids if e in by_id)]

    def column_values(self, start: int = 0, stop: Optional[int] = None) -> List[List[Any]]:
        """Columnar view of rows ``[start:stop)``: one value list per column.

        The (de)hydration hook the persistence layer's columnar segments
        are written from; :meth:`from_columns` is its inverse.
        """
        rows = self._rows[start : len(self._rows) if stop is None else stop]
        return [list(column) for column in zip(*(r.values for r in rows))] or [
            [] for _ in self._schema.columns
        ]

    def column_array(self, position: int) -> ColumnArray:
        """The typed arrays of column *position* over every row.

        Built on the first read and kept; rows appended since the last
        read are added on this one (never inside :meth:`append_rows`),
        and :meth:`rollback_to` truncates.  When appended values change
        the column's kind the arrays are rebuilt from all rows.
        """
        rows = self._rows
        column = self._columns.get(position)
        if column is not None and column.length < len(rows):
            if not column.extend([row.values[position] for row in rows[column.length :]]):
                column = None
        if column is None:
            column = ColumnArray([row.values[position] for row in rows])
            self._columns[position] = column
        return column

    @classmethod
    def from_columns(
        cls, name: str, schema: Schema, columns: Sequence[Sequence[Any]]
    ) -> "Table":
        """Build a table from per-column value lists (already typed).

        Values are trusted — they came out of :meth:`column_values` (via
        the persistence codec, which round-trips exactly) — so no
        per-value coercion runs; id non-nullness and uniqueness are
        still enforced by the append path.
        """
        if len(columns) != len(schema):
            raise SchemaError(
                f"{len(columns)} column arrays for {len(schema)}-column schema"
            )
        return cls(name, schema, zip(*columns) if columns else (), coerce=False)

    def append_rows(self, rows: Iterable[Sequence[Any]], coerce: bool = True) -> List[Row]:
        """Append *rows* atomically, returning the built :class:`Row` objects.

        The whole batch is validated (coercion, non-null ids, uniqueness
        against the table *and* within the batch) before any row becomes
        visible, so a failed insert leaves the table unchanged.  Callers
        that maintain derived indices (see
        :class:`repro.incremental.IndexMaintainer`) rely on this
        all-or-nothing behaviour.
        """
        staged: List[Row] = []
        staged_ids: Dict[Any, int] = {}
        for raw in rows:
            inject("table.append_row")  # mid-batch failure: nothing staged commits
            values = self._schema.coerce_row(raw) if coerce else tuple(raw)
            row = Row(self._schema, values)
            if row.id is None:
                raise SchemaError(f"table {self._name!r}: row with null id: {row!r}")
            if row.id in self._by_id or row.id in staged_ids:
                raise SchemaError(f"table {self._name!r}: duplicate id {row.id!r}")
            staged_ids[row.id] = len(self._rows) + len(staged)
            staged.append(row)
        self._rows.extend(staged)
        self._by_id.update(staged_ids)
        return staged

    def rollback_to(self, row_count: int) -> int:
        """Discard rows appended past *row_count*; returns how many were.

        Crash-recovery hook for the DML transaction
        (:class:`repro.incremental.IndexMaintainer`): when index
        amendment fails *after* a storage append committed, the
        maintainer truncates the table back to its pre-insert length so
        the whole batch observably never happened.  Only the tail can be
        discarded — tables are append-only, so ``row_count`` denotes
        exactly the pre-append snapshot.
        """
        if row_count < 0 or row_count > len(self._rows):
            raise ValueError(
                f"cannot roll back to {row_count} rows (table has {len(self._rows)})"
            )
        dropped = self._rows[row_count:]
        for row in dropped:
            self._by_id.pop(row.id, None)
        del self._rows[row_count:]
        for column in self._columns.values():
            column.truncate(row_count)
        return len(dropped)

    def select(self, predicate: Callable[[Row], bool], name: Optional[str] = None) -> "Table":
        """Return a new table containing the rows satisfying *predicate*."""
        out = Table(name or self._name, self._schema, (), coerce=False)
        out._rows = [r for r in self._rows if predicate(r)]
        out._by_id = {r.id: i for i, r in enumerate(out._rows)}
        return out

    def from_rows(self, rows: Iterable[Row], name: Optional[str] = None) -> "Table":
        """Build a sibling table (same schema) from pre-built rows."""
        out = Table(name or self._name, self._schema, (), coerce=False)
        seen: Dict[Any, int] = {}
        kept: List[Row] = []
        for row in rows:
            if row.id in seen:
                continue
            seen[row.id] = len(kept)
            kept.append(row)
        out._rows = kept
        out._by_id = seen
        return out

    def __repr__(self) -> str:
        return f"Table({self._name!r}, {len(self)} rows, columns={self._schema.names})"
