"""Abstract syntax tree for the SPJ dialect.

Expression nodes are plain frozen dataclasses; queries are a single
:class:`SelectQuery` (the paper targets flat SPJ queries only, §5).
:class:`InsertStatement` is the one DML form — multi-row ``INSERT INTO``
— feeding the incremental ingestion subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Tuple, Union


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expr):
    """A constant: string, number, boolean or NULL (value=None)."""

    value: Any

    def __str__(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return str(self.value)


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A possibly-qualified column reference (``p.title`` or ``title``)."""

    name: str
    qualifier: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Comparison or arithmetic: =, <>, <, >, <=, >=, +, -, *, /, %."""

    op: str
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class BooleanOp(Expr):
    """AND / OR over two or more operands."""

    op: str  # "AND" | "OR"
    operands: Tuple[Expr, ...]

    def __str__(self) -> str:
        return "(" + f" {self.op} ".join(str(o) for o in self.operands) + ")"


@dataclass(frozen=True)
class NotOp(Expr):
    """Logical negation."""

    operand: Expr

    def __str__(self) -> str:
        return f"(NOT {self.operand})"


@dataclass(frozen=True)
class InList(Expr):
    """``expr [NOT] IN (v1, v2, ...)``."""

    operand: Expr
    values: Tuple[Literal, ...]
    negated: bool = False

    def __str__(self) -> str:
        op = "NOT IN" if self.negated else "IN"
        return f"({self.operand} {op} ({', '.join(map(str, self.values))}))"


@dataclass(frozen=True)
class Like(Expr):
    """``expr [NOT] LIKE pattern`` with %/_ wildcards."""

    operand: Expr
    pattern: str
    negated: bool = False

    def __str__(self) -> str:
        op = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.operand} {op} '{self.pattern}')"


@dataclass(frozen=True)
class Between(Expr):
    """``expr [NOT] BETWEEN low AND high`` (inclusive)."""

    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def __str__(self) -> str:
        op = "NOT BETWEEN" if self.negated else "BETWEEN"
        return f"({self.operand} {op} {self.low} AND {self.high})"


@dataclass(frozen=True)
class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False

    def __str__(self) -> str:
        return f"({self.operand} IS {'NOT ' if self.negated else ''}NULL)"


@dataclass(frozen=True)
class FunctionCall(Expr):
    """Scalar function call, e.g. ``MOD(id, 10)`` or ``LOWER(title)``."""

    name: str
    args: Tuple[Expr, ...]

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``alias.*`` in a select list."""

    qualifier: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.qualifier}.*" if self.qualifier else "*"


# -- query structure ----------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    """One projection item with an optional output alias."""

    expr: Expr
    alias: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.expr} AS {self.alias}" if self.alias else str(self.expr)


@dataclass(frozen=True)
class TableRef:
    """A FROM-clause table with its binding alias (alias defaults to name)."""

    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """The name the query plan uses to refer to this table."""
        return self.alias or self.name

    def __str__(self) -> str:
        return f"{self.name} {self.alias}" if self.alias else self.name


@dataclass(frozen=True)
class JoinClause:
    """``[INNER] JOIN table ON condition`` (equi-joins per paper §5)."""

    table: TableRef
    condition: Expr
    join_type: str = "INNER"

    def __str__(self) -> str:
        return f"{self.join_type} JOIN {self.table} ON {self.condition}"


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key."""

    expr: Expr
    ascending: bool = True

    def __str__(self) -> str:
        return f"{self.expr} {'ASC' if self.ascending else 'DESC'}"


@dataclass(frozen=True)
class SelectQuery:
    """A flat SPJ(+aggregation) query; ``dedup=True`` marks ``SELECT DEDUP``.

    ``group_by`` and aggregate select items implement the paper's
    future-work extension to aggregation queries (§10).
    """

    items: Tuple[SelectItem, ...]
    table: TableRef
    joins: Tuple[JoinClause, ...] = ()
    where: Optional[Expr] = None
    group_by: Tuple[Expr, ...] = ()
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    dedup: bool = False
    distinct: bool = False

    def bindings(self) -> Tuple[str, ...]:
        """All table bindings in FROM-clause order."""
        return (self.table.binding,) + tuple(j.table.binding for j in self.joins)

    def __str__(self) -> str:
        parts = ["SELECT"]
        if self.dedup:
            parts.append("DEDUP")
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(str(i) for i in self.items))
        parts.append(f"FROM {self.table}")
        for join in self.joins:
            parts.append(str(join))
        if self.where is not None:
            parts.append(f"WHERE {self.where}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(str(g) for g in self.group_by))
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(str(o) for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)


@dataclass(frozen=True)
class InsertStatement:
    """``INSERT INTO table [(col, ...)] VALUES (...), (...)``.

    Values are literals only (no expressions); with no explicit column
    list each row must supply every schema column in declaration order.
    ``dedup`` is always False so engine dispatch can treat statements
    uniformly.
    """

    table: str
    columns: Tuple[str, ...]
    rows: Tuple[Tuple[Literal, ...], ...]
    dedup: bool = field(default=False, init=False)

    def __str__(self) -> str:
        parts = [f"INSERT INTO {self.table}"]
        if self.columns:
            parts.append("(" + ", ".join(self.columns) + ")")
        rendered = ", ".join(
            "(" + ", ".join(str(v) for v in row) + ")" for row in self.rows
        )
        parts.append(f"VALUES {rendered}")
        return " ".join(parts)


@dataclass(frozen=True)
class ExplainStatement:
    """``EXPLAIN [ANALYZE] <statement>``.

    Wraps a query or DML statement.  Plain ``EXPLAIN`` renders the plan
    the engine would run (with its row and comparison estimates) without
    executing it; ``EXPLAIN ANALYZE`` also executes the statement and
    annotates the plan with the actual per-stage timings and row counts.
    ``dedup`` is always False so engine dispatch can treat statements
    uniformly.
    """

    statement: Union[SelectQuery, InsertStatement]
    analyze: bool = False
    dedup: bool = field(default=False, init=False)

    def __str__(self) -> str:
        prefix = "EXPLAIN ANALYZE" if self.analyze else "EXPLAIN"
        return f"{prefix} {self.statement}"


#: Every statement form :func:`repro.sql.parser.parse` can return.
Statement = Union[SelectQuery, InsertStatement, ExplainStatement]
