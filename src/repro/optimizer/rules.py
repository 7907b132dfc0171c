"""Rewrite rules: legal plan transformations the optimizer may price.

Three rule families, each returning *candidates* for the cost model to
rank (rules never pick — :mod:`repro.optimizer.optimizer` does):

* **Star pre-expansion** (:func:`expand_stars`) — ``*`` / ``alias.*``
  select items are expanded into qualified column references computed in
  the *original* FROM order, so a reordered join tree projects exactly
  the same columns in exactly the same output positions.  Reordering
  without this would silently permute ``SELECT *`` output columns.
* **Relational join reordering** (:func:`enumerate_relational_orders`) —
  every left-deep order of an all-INNER equi-join query, with each join
  condition attached at the step where its last referenced binding
  enters.  Pure relational algebra: any of these orders returns the
  same multiset of rows.
* **DEDUP order + placement enumeration**
  (:func:`enumerate_dedup_orders`, :func:`dedup_placements`) — legal
  permutations of the AES join steps (an entering table must connect to
  an already-bound one) and the two clean-first placements of each
  order's first join.

The DEDUP rules come with a hard identity gate, :func:`identity_safe`:
AES placement flips and join reorders change the *frontier* each
Deduplicate sees, and Block Purging / Block Filtering / Edge Pruning
compute their thresholds **over that frontier's block collection** — so
with meta-blocking enabled, a different frontier can retain different
comparisons and return different rows (verified empirically; see
``tests/property/test_optimizer_equivalence.py``).  With all three
stages disabled every frontier is cleaned exhaustively within its
blocks and the result is frontier-invariant, so only then may the
optimizer apply frontier-changing DEDUP rewrites.  Under the default
configuration it must — and does — fall back to the seed heuristic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.core.planner import JoinStep
from repro.er.meta_blocking import MetaBlockingConfig
from repro.sql import ast

#: Enumeration caps: n! orders are priced, so bound n.
MAX_RELATIONAL_TABLES = 6
MAX_DEDUP_STEPS = 5


def identity_safe(meta_blocking: MetaBlockingConfig) -> bool:
    """Whether DEDUP frontier-changing rewrites preserve results.

    True only when Block Purging, Block Filtering and Edge Pruning are
    all disabled — their thresholds are functions of the frontier's
    block collection, so any rewrite that changes which rows enter a
    Deduplicate can change which comparisons survive (see module
    docstring).
    """
    return not (meta_blocking.purging or meta_blocking.filtering or meta_blocking.pruning)


# -- star pre-expansion --------------------------------------------------


def expand_stars(query: ast.SelectQuery, columns_of) -> ast.SelectQuery:
    """Replace ``*`` / ``alias.*`` items with qualified column refs.

    *columns_of* maps a table name to its column-name sequence.  The
    expansion fixes output columns to the original FROM order, making
    the projection order-independent of any later join reordering.
    Unknown qualifiers are left untouched for the planner to reject
    with its usual error.
    """
    if not any(isinstance(item.expr, ast.Star) for item in query.items):
        return query
    refs = (query.table, *(j.table for j in query.joins))
    items: List[ast.SelectItem] = []
    for item in query.items:
        expr = item.expr
        if not isinstance(expr, ast.Star):
            items.append(item)
            continue
        matched = False
        for ref in refs:
            if expr.qualifier is not None and ref.binding.lower() != expr.qualifier.lower():
                continue
            matched = True
            for name in columns_of(ref.name):
                items.append(ast.SelectItem(ast.ColumnRef(name, qualifier=ref.binding)))
        if not matched:
            items.append(item)
    return replace(query, items=tuple(items))


# -- relational join reordering ------------------------------------------


@dataclass(frozen=True)
class JoinEdge:
    """One binary equi-join condition as a graph edge between bindings."""

    left_binding: str
    left_column: str
    right_binding: str
    right_column: str
    left_table: str
    right_table: str
    condition: ast.Expr


@dataclass(frozen=True)
class RelationalOrder:
    """One left-deep candidate: the rewritten query plus its order."""

    query: ast.SelectQuery
    bindings: Tuple[str, ...]
    edges: Tuple[JoinEdge, ...]


def join_edges(query: ast.SelectQuery) -> Optional[List[JoinEdge]]:
    """The query's join graph, or None when reordering is not legal.

    Requires every join INNER with a single fully-qualified binary
    equi-condition spanning two distinct known bindings — the shape
    whose orders are provably interchangeable.
    """
    tables = {ref.binding.lower(): ref.name for ref in (query.table, *(j.table for j in query.joins))}
    edges: List[JoinEdge] = []
    for join in query.joins:
        if join.join_type != "INNER":
            return None
        condition = join.condition
        if not (
            isinstance(condition, ast.BinaryOp)
            and condition.op == "="
            and isinstance(condition.left, ast.ColumnRef)
            and isinstance(condition.right, ast.ColumnRef)
            and condition.left.qualifier
            and condition.right.qualifier
        ):
            return None
        left_q = condition.left.qualifier.lower()
        right_q = condition.right.qualifier.lower()
        if left_q == right_q or left_q not in tables or right_q not in tables:
            return None
        edges.append(
            JoinEdge(
                left_binding=left_q,
                left_column=condition.left.name,
                right_binding=right_q,
                right_column=condition.right.name,
                left_table=tables[left_q],
                right_table=tables[right_q],
                condition=condition,
            )
        )
    return edges


def enumerate_relational_orders(query: ast.SelectQuery) -> List[RelationalOrder]:
    """All left-deep orders of an all-INNER equi-join query.

    Each candidate rebuilds the query with a permuted FROM clause; a
    join condition attaches at the step where its second binding enters
    (conditions becoming available at the same step are conjoined).
    Orders where a table enters with no attachable condition (a cross
    join the original query never performs) are skipped.
    """
    edges = join_edges(query)
    if edges is None or not query.joins:
        return []
    refs = [query.table, *(j.table for j in query.joins)]
    if len(refs) > MAX_RELATIONAL_TABLES:
        return []
    from repro.sql.expressions import conjoin

    candidates: List[RelationalOrder] = []
    seen: set = set()
    for perm in itertools.permutations(refs):
        bound = {perm[0].binding.lower()}
        remaining = list(edges)
        joins: List[ast.JoinClause] = []
        valid = True
        for ref in perm[1:]:
            binding = ref.binding.lower()
            attachable = [
                e
                for e in remaining
                if binding in (e.left_binding, e.right_binding)
                and ({e.left_binding, e.right_binding} - {binding}) <= bound
            ]
            if not attachable:
                valid = False
                break
            condition = conjoin([e.condition for e in attachable])
            joins.append(ast.JoinClause(table=ref, condition=condition, join_type="INNER"))
            remaining = [e for e in remaining if e not in attachable]
            bound.add(binding)
        if not valid or remaining:
            continue
        bindings = tuple(ref.binding.lower() for ref in perm)
        if bindings in seen:
            continue
        seen.add(bindings)
        candidate = replace(query, table=perm[0], joins=tuple(joins))
        candidates.append(RelationalOrder(candidate, bindings, tuple(edges)))
    return candidates


# -- DEDUP order + placement enumeration ---------------------------------


def _flip(step: JoinStep) -> JoinStep:
    return JoinStep(
        left_binding=step.right_binding,
        left_column=step.right_column,
        right_binding=step.left_binding,
        right_column=step.left_column,
    )


def enumerate_dedup_orders(steps: Sequence[JoinStep]) -> List[List[JoinStep]]:
    """Legal permutations of the AES join steps.

    The first step binds both of its endpoints; every later step must
    have exactly one endpoint already bound (flipped so the bound side
    is on the left, matching the executor's dirty-right convention).
    Permutations where a step's endpoints are both bound (a cycle edge)
    or both unbound are skipped.  Falls back to the original order alone
    beyond :data:`MAX_DEDUP_STEPS` edges.
    """
    steps = list(steps)
    if not steps or len(steps) > MAX_DEDUP_STEPS:
        return [steps]
    orders: List[List[JoinStep]] = []
    seen: set = set()
    for perm in itertools.permutations(steps):
        out = [perm[0]]
        bound = {perm[0].left_binding, perm[0].right_binding}
        valid = True
        for step in perm[1:]:
            left_in = step.left_binding in bound
            right_in = step.right_binding in bound
            if left_in == right_in:  # cycle edge or disconnected edge
                valid = False
                break
            if right_in:
                step = _flip(step)
            out.append(step)
            bound.add(step.right_binding)
        if not valid:
            continue
        signature = tuple(
            (s.left_binding, s.left_column, s.right_binding, s.right_column) for s in out
        )
        if signature in seen:
            continue
        seen.add(signature)
        orders.append(out)
    return orders or [steps]


def dedup_placements(order: Sequence[JoinStep]) -> Tuple[str, str]:
    """The two legal clean-first placements of an order's first join."""
    first = order[0]
    return (first.left_binding, first.right_binding)
