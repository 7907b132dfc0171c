"""Plan schemas: the qualified fields every operator outputs.

Every physical operator (:mod:`repro.sql.physical`) carries its output
:class:`PlanSchema` — an ordered list of fields qualified by their
*binding* (table alias) — so expressions compile to positional
accessors when the plan is built, before execution begins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

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
