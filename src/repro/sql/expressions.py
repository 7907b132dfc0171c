"""Expression compilation: AST → positional row evaluators.

Column references are resolved against a :class:`~repro.sql.logical.PlanSchema`
once, at plan time; execution then evaluates closures over plain value
tuples with no per-row name lookups.

NULL semantics are pragmatic rather than full three-valued logic:
comparisons involving NULL are false, arithmetic with NULL yields NULL,
and ``IS NULL`` tests it explicitly — sufficient for the paper's flat
conjunctive/disjunctive SPJ predicates.
"""

from __future__ import annotations

import re
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.sql import ast
from repro.sql.logical import PlanSchema

RowEvaluator = Callable[[Sequence[Any]], Any]


class ExpressionError(ValueError):
    """Raised for expressions the dialect cannot evaluate."""


def _null_guard_compare(op: Callable[[Any, Any], bool]) -> Callable[[Any, Any], bool]:
    def compare(left: Any, right: Any) -> bool:
        if left is None or right is None:
            return False
        # SQL compares numbers with numbers and strings with strings; mixed
        # numeric/string comparisons coerce digit-strings when possible.
        if isinstance(left, (int, float)) != isinstance(right, (int, float)):
            left, right = _align_types(left, right)
            if left is None or right is None:
                return False
        return op(left, right)

    return compare


def _align_types(left: Any, right: Any) -> Tuple[Any, Any]:
    """Best-effort numeric coercion for mixed comparisons; None on failure."""
    try:
        if isinstance(left, (int, float)):
            return left, float(right)
        return float(left), right
    except (TypeError, ValueError):
        return None, None


_COMPARISONS = {
    "=": _null_guard_compare(lambda a, b: a == b),
    "<>": _null_guard_compare(lambda a, b: a != b),
    "<": _null_guard_compare(lambda a, b: a < b),
    ">": _null_guard_compare(lambda a, b: a > b),
    "<=": _null_guard_compare(lambda a, b: a <= b),
    ">=": _null_guard_compare(lambda a, b: a >= b),
}


def _arith(op: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    def apply(left: Any, right: Any) -> Any:
        if left is None or right is None:
            return None
        return op(left, right)

    return apply


_ARITHMETIC = {
    "+": _arith(lambda a, b: a + b),
    "-": _arith(lambda a, b: a - b),
    "*": _arith(lambda a, b: a * b),
    "/": _arith(lambda a, b: a / b if b else None),
    "%": _arith(lambda a, b: a % b if b else None),
}


def _like_to_regex(pattern: str) -> "re.Pattern[str]":
    pieces = []
    for ch in pattern:
        if ch == "%":
            pieces.append(".*")
        elif ch == "_":
            pieces.append(".")
        else:
            pieces.append(re.escape(ch))
    return re.compile("^" + "".join(pieces) + "$", re.IGNORECASE)


def _function(name: str, arg_fns: List[RowEvaluator]) -> RowEvaluator:
    """Scalar function dispatch (MOD, LOWER, UPPER, LENGTH, ABS, COALESCE)."""
    if name == "MOD":
        if len(arg_fns) != 2:
            raise ExpressionError("MOD takes exactly two arguments")
        left_fn, right_fn = arg_fns

        def mod(row: Sequence[Any]) -> Any:
            left, right = left_fn(row), right_fn(row)
            if left is None or right is None or right == 0:
                return None
            try:
                return int(left) % int(right)
            except (TypeError, ValueError):
                return None

        return mod
    if name in ("LOWER", "UPPER", "LENGTH", "TRIM"):
        if len(arg_fns) != 1:
            raise ExpressionError(f"{name} takes exactly one argument")
        arg_fn = arg_fns[0]
        transform = {
            "LOWER": lambda v: str(v).lower(),
            "UPPER": lambda v: str(v).upper(),
            "LENGTH": lambda v: len(str(v)),
            "TRIM": lambda v: str(v).strip(),
        }[name]

        def unary(row: Sequence[Any]) -> Any:
            value = arg_fn(row)
            return None if value is None else transform(value)

        return unary
    if name == "ABS":
        if len(arg_fns) != 1:
            raise ExpressionError("ABS takes exactly one argument")
        arg_fn = arg_fns[0]

        def absolute(row: Sequence[Any]) -> Any:
            value = arg_fn(row)
            return None if value is None else abs(value)

        return absolute
    if name == "COALESCE":
        if not arg_fns:
            raise ExpressionError("COALESCE needs at least one argument")

        def coalesce(row: Sequence[Any]) -> Any:
            for fn in arg_fns:
                value = fn(row)
                if value is not None:
                    return value
            return None

        return coalesce
    raise ExpressionError(f"unknown function {name!r}")


def compile_expression(expr: ast.Expr, schema: PlanSchema) -> RowEvaluator:
    """Compile *expr* into a callable over value tuples of *schema*."""
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, ast.ColumnRef):
        position = schema.resolve(expr.name, expr.qualifier)
        return lambda row: row[position]
    if isinstance(expr, ast.BinaryOp):
        left_fn = compile_expression(expr.left, schema)
        right_fn = compile_expression(expr.right, schema)
        if expr.op in _COMPARISONS:
            compare = _COMPARISONS[expr.op]
            return lambda row: compare(left_fn(row), right_fn(row))
        if expr.op in _ARITHMETIC:
            apply = _ARITHMETIC[expr.op]
            return lambda row: apply(left_fn(row), right_fn(row))
        raise ExpressionError(f"unknown operator {expr.op!r}")
    if isinstance(expr, ast.BooleanOp):
        operand_fns = [compile_expression(o, schema) for o in expr.operands]
        if expr.op == "AND":
            return lambda row: all(fn(row) for fn in operand_fns)
        if expr.op == "OR":
            return lambda row: any(fn(row) for fn in operand_fns)
        raise ExpressionError(f"unknown boolean operator {expr.op!r}")
    if isinstance(expr, ast.NotOp):
        operand_fn = compile_expression(expr.operand, schema)
        return lambda row: not operand_fn(row)
    if isinstance(expr, ast.InList):
        operand_fn = compile_expression(expr.operand, schema)
        values = {v.value for v in expr.values if v.value is not None}
        lowered = {v.lower() for v in values if isinstance(v, str)}
        negated = expr.negated

        def in_list(row: Sequence[Any]) -> bool:
            value = operand_fn(row)
            if value is None:
                return False
            hit = value in values or (isinstance(value, str) and value.lower() in lowered)
            return hit != negated

        return in_list
    if isinstance(expr, ast.Like):
        operand_fn = compile_expression(expr.operand, schema)
        regex = _like_to_regex(expr.pattern)
        negated = expr.negated

        def like(row: Sequence[Any]) -> bool:
            value = operand_fn(row)
            if value is None:
                return False
            return bool(regex.match(str(value))) != negated

        return like
    if isinstance(expr, ast.Between):
        operand_fn = compile_expression(expr.operand, schema)
        low_fn = compile_expression(expr.low, schema)
        high_fn = compile_expression(expr.high, schema)
        ge = _COMPARISONS[">="]
        le = _COMPARISONS["<="]
        negated = expr.negated

        def between(row: Sequence[Any]) -> bool:
            value = operand_fn(row)
            if value is None:
                return False
            hit = ge(value, low_fn(row)) and le(value, high_fn(row))
            return hit != negated

        return between
    if isinstance(expr, ast.IsNull):
        operand_fn = compile_expression(expr.operand, schema)
        negated = expr.negated
        return lambda row: (operand_fn(row) is None) != negated
    if isinstance(expr, ast.FunctionCall):
        arg_fns = [compile_expression(a, schema) for a in expr.args]
        return _function(expr.name, arg_fns)
    raise ExpressionError(f"cannot compile expression node {type(expr).__name__}")


def compile_predicate(expr: Optional[ast.Expr], schema: PlanSchema) -> RowEvaluator:
    """Like :func:`compile_expression` but None means "always true"."""
    if expr is None:
        return lambda row: True
    fn = compile_expression(expr, schema)
    return lambda row: bool(fn(row))


# -- analysis helpers used by the planners -------------------------------


def column_refs(expr: ast.Expr) -> List[ast.ColumnRef]:
    """Every column reference in *expr*, in left-to-right order."""
    found: List[ast.ColumnRef] = []

    def walk(node: ast.Expr) -> None:
        if isinstance(node, ast.ColumnRef):
            found.append(node)
        elif isinstance(node, ast.BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, ast.BooleanOp):
            for operand in node.operands:
                walk(operand)
        elif isinstance(node, ast.NotOp):
            walk(node.operand)
        elif isinstance(node, (ast.InList, ast.Like, ast.IsNull)):
            walk(node.operand)
        elif isinstance(node, ast.Between):
            walk(node.operand)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, ast.FunctionCall):
            for arg in node.args:
                walk(arg)

    walk(expr)
    return found


def conjuncts(expr: Optional[ast.Expr]) -> List[ast.Expr]:
    """Flatten top-level AND into a conjunct list ([] for None)."""
    if expr is None:
        return []
    if isinstance(expr, ast.BooleanOp) and expr.op == "AND":
        out: List[ast.Expr] = []
        for operand in expr.operands:
            out.extend(conjuncts(operand))
        return out
    return [expr]


def conjoin(exprs: Sequence[ast.Expr]) -> Optional[ast.Expr]:
    """Rebuild an AND tree from conjuncts (None for empty input)."""
    exprs = list(exprs)
    if not exprs:
        return None
    if len(exprs) == 1:
        return exprs[0]
    return ast.BooleanOp("AND", tuple(exprs))


def string_literals(expr: Optional[ast.Expr]) -> List[str]:
    """All string literals in *expr* — the planner treats them as blocking
    keys when estimating comparisons (paper §7.2.1(i))."""
    found: List[str] = []

    def walk(node: Optional[ast.Expr]) -> None:
        if node is None:
            return
        if isinstance(node, ast.Literal):
            if isinstance(node.value, str):
                found.append(node.value)
        elif isinstance(node, ast.BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, ast.BooleanOp):
            for operand in node.operands:
                walk(operand)
        elif isinstance(node, ast.NotOp):
            walk(node.operand)
        elif isinstance(node, ast.InList):
            walk(node.operand)
            for value in node.values:
                walk(value)
        elif isinstance(node, ast.Like):
            walk(node.operand)
            found.append(node.pattern)
        elif isinstance(node, ast.Between):
            walk(node.operand)
            walk(node.low)
            walk(node.high)
        elif isinstance(node, ast.IsNull):
            walk(node.operand)
        elif isinstance(node, ast.FunctionCall):
            for arg in node.args:
                walk(arg)

    walk(expr)
    return found
