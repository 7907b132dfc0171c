"""Logical query plans.

A plan is a tree of relational operators over *bindings* (table aliases).
Every node exposes its output :class:`PlanSchema` — an ordered list of
qualified fields — so expressions can be compiled to positional accessors
before execution begins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.sql import ast
from repro.storage.table import Table


@dataclass(frozen=True)
class Field:
    """One output column: binding qualifier + column name."""

    qualifier: str
    name: str

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}"


class SchemaResolutionError(ValueError):
    """Unknown or ambiguous column reference."""


class PlanSchema:
    """Ordered qualified fields with name-resolution to positions."""

    def __init__(self, fields: Sequence[Field]):
        self.fields: Tuple[Field, ...] = tuple(fields)

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)

    def __add__(self, other: "PlanSchema") -> "PlanSchema":
        return PlanSchema(self.fields + other.fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PlanSchema) and self.fields == other.fields

    def resolve(self, name: str, qualifier: Optional[str] = None) -> int:
        """Position of the column; raises on unknown/ambiguous names."""
        lowered = name.lower()
        matches = [
            i
            for i, f in enumerate(self.fields)
            if f.name.lower() == lowered
            and (qualifier is None or f.qualifier.lower() == qualifier.lower())
        ]
        if not matches:
            ref = f"{qualifier}.{name}" if qualifier else name
            raise SchemaResolutionError(f"unknown column {ref!r}; schema: {list(map(str, self.fields))}")
        if len(matches) > 1:
            raise SchemaResolutionError(f"ambiguous column {name!r}; qualify it")
        return matches[0]

    def __repr__(self) -> str:
        return f"PlanSchema({[str(f) for f in self.fields]})"


def schema_for_table(table: Table, binding: str) -> PlanSchema:
    """Qualified plan schema of a base table under alias *binding*."""
    return PlanSchema([Field(binding, c.name) for c in table.schema])


def output_schema(items: Sequence[Tuple[str, ast.Expr]], child: PlanSchema) -> PlanSchema:
    """The fields a Project or Aggregate outputs for its *(name, expression)*
    items: a bare, unrenamed column keeps the binding it reads, so ORDER BY
    may name it qualified (``ORDER BY P.surname``); other items are unqualified."""
    fields = []
    for name, expr in items:
        qualifier = ""
        if isinstance(expr, ast.ColumnRef) and expr.name == name:
            qualifier = child.fields[child.resolve(expr.name, expr.qualifier)].qualifier
        fields.append(Field(qualifier, name))
    return PlanSchema(fields)


class LogicalPlan:
    """Base logical operator; subclasses define children and schema."""

    @property
    def schema(self) -> PlanSchema:
        raise NotImplementedError

    @property
    def children(self) -> Tuple["LogicalPlan", ...]:
        return ()

    def bindings(self) -> Tuple[str, ...]:
        """Distinct base-table bindings below this node, left-to-right."""
        seen: List[str] = []
        stack: List[LogicalPlan] = [self]
        while stack:
            node = stack.pop(0)
            if isinstance(node, LogicalScan) and node.binding not in seen:
                seen.append(node.binding)
            stack[0:0] = list(node.children)
        return tuple(seen)

    def pretty(self, indent: int = 0) -> str:
        """Indented textual plan rendering (matches the paper's figures)."""
        line = "  " * indent + self.label()
        return "\n".join([line] + [c.pretty(indent + 1) for c in self.children])

    def label(self) -> str:
        return type(self).__name__


class LogicalScan(LogicalPlan):
    """Table scan of a registered base table under a binding alias."""

    def __init__(self, table: Table, binding: Optional[str] = None):
        self.table = table
        self.binding = binding or table.name
        self._schema = schema_for_table(table, self.binding)

    @property
    def schema(self) -> PlanSchema:
        return self._schema

    def label(self) -> str:
        return f"TableScan[{self.table.name} AS {self.binding}]"


class LogicalValues(LogicalPlan):
    """Rows computed outside the relational plan under a given schema —
    the DEDUP executor's Group-Entities tuples entering the tail."""

    def __init__(self, schema: PlanSchema, rows: Sequence[tuple]):
        self._schema = schema
        self.rows = rows

    @property
    def schema(self) -> PlanSchema:
        return self._schema

    def label(self) -> str:
        return "Values"


class LogicalFilter(LogicalPlan):
    """Row filter by a boolean expression."""

    def __init__(self, child: LogicalPlan, condition: ast.Expr):
        self.child = child
        self.condition = condition

    @property
    def schema(self) -> PlanSchema:
        return self.child.schema

    @property
    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"Filter[{self.condition}]"


class LogicalJoin(LogicalPlan):
    """Inner equi-join; schema is left ++ right."""

    def __init__(self, left: LogicalPlan, right: LogicalPlan, condition: ast.Expr, join_type: str = "INNER"):
        self.left = left
        self.right = right
        self.condition = condition
        self.join_type = join_type

    @property
    def schema(self) -> PlanSchema:
        return self.left.schema + self.right.schema

    @property
    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        return f"Join[{self.join_type} ON {self.condition}]"


class LogicalProject(LogicalPlan):
    """Projection of expressions with output names."""

    def __init__(self, child: LogicalPlan, items: Sequence[Tuple[str, ast.Expr]]):
        self.child = child
        self.items = tuple(items)  # (output name, expression)
        self._schema = output_schema(self.items, child.schema)

    @property
    def schema(self) -> PlanSchema:
        return self._schema

    @property
    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.child,)

    def label(self) -> str:
        return "Project[" + ", ".join(name for name, _ in self.items) + "]"


class LogicalAggregate(LogicalPlan):
    """Hash aggregation: GROUP BY keys + aggregate select items.

    Replaces the final Project for aggregation queries; ``items`` are the
    output columns in SELECT order, each either a group-key expression or
    an aggregate call.
    """

    def __init__(
        self,
        child: LogicalPlan,
        items: Sequence[Tuple[str, ast.Expr]],
        group_by: Sequence[ast.Expr],
    ):
        self.child = child
        self.items = tuple(items)
        self.group_by = tuple(group_by)
        self._schema = output_schema(self.items, child.schema)

    @property
    def schema(self) -> PlanSchema:
        return self._schema

    @property
    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.child,)

    def label(self) -> str:
        keys = ", ".join(str(g) for g in self.group_by) or "()"
        outs = ", ".join(name for name, _ in self.items)
        return f"Aggregate[{outs} BY {keys}]"


class LogicalSort(LogicalPlan):
    """ORDER BY."""

    def __init__(self, child: LogicalPlan, keys: Sequence[Tuple[ast.Expr, bool]]):
        self.child = child
        self.keys = tuple(keys)  # (expression, ascending)

    @property
    def schema(self) -> PlanSchema:
        return self.child.schema

    @property
    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.child,)

    def label(self) -> str:
        return "Sort[" + ", ".join(f"{e} {'ASC' if a else 'DESC'}" for e, a in self.keys) + "]"


class LogicalLimit(LogicalPlan):
    """LIMIT n."""

    def __init__(self, child: LogicalPlan, count: int):
        if count < 0:
            raise ValueError("LIMIT must be non-negative")
        self.child = child
        self.count = count

    @property
    def schema(self) -> PlanSchema:
        return self.child.schema

    @property
    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"Limit[{self.count}]"


class LogicalDistinct(LogicalPlan):
    """Duplicate-row elimination (SELECT DISTINCT)."""

    def __init__(self, child: LogicalPlan):
        self.child = child

    @property
    def schema(self) -> PlanSchema:
        return self.child.schema

    @property
    def children(self) -> Tuple[LogicalPlan, ...]:
        return (self.child,)

    def label(self) -> str:
        return "Distinct"
