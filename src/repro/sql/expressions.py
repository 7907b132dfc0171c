"""Expression compilation: AST → positional row evaluators and column masks.

Column references are resolved against a :class:`~repro.sql.schema.PlanSchema`
once, at plan time.  A single-table WHERE then runs as one NumPy boolean
mask over the table's cached typed columns (:func:`compile_mask`); every
other expression — residuals over joined rows, projections, sort and
group keys — is a closure over plain value tuples
(:func:`compile_expression`), which is also the mask's specification.

NULL rules (two-valued: a predicate is true or false, never unknown):

* a comparison (``= <> < > <= >=``) with a NULL operand is false;
* ``NOT`` flips its operand's truth, so ``NOT (x = 1)`` keeps the rows
  where ``x`` is NULL;
* ``IN``, ``LIKE`` and ``BETWEEN`` on a NULL operand are false, also when
  negated (``x NOT IN (1)`` drops the rows where ``x`` is NULL);
* ``BETWEEN`` with a NULL bound is a failed comparison: false, and true
  under ``NOT BETWEEN``;
* arithmetic and scalar functions (but ``COALESCE``) on a NULL argument
  yield NULL, and so do ``/``, ``%`` and ``MOD`` by zero and ``MOD`` of a
  value ``int()`` cannot read; ``IS [NOT] NULL`` tests it;
* a non-boolean predicate is tested for Python truth (NULL, 0 and ''
  are false).

Comparing a number with a string converts the string with ``float()``;
a string that does not convert compares false.  ``IN`` matches strings
case-insensitively, ``=`` does not.  SQL's three-valued logic (``NOT``
of unknown is unknown) would change answers and is not implemented.
"""

from __future__ import annotations

import re
from functools import reduce
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.sql import ast
from repro.sql.schema import PlanSchema
from repro.storage.columns import INT64_BOUND, ColumnArray
from repro.storage.table import Table

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


# -- column masks ----------------------------------------------------------
#
# A node of a single-table WHERE evaluates over all rows at once to one of
#
# * ``_Const`` — the same value on every row (a constant subtree);
# * ``_Num`` — numbers per row, int64 or float64, with a NULL mask;
# * a bool ``np.ndarray`` — a predicate's result per row;
# * a ``str``-kind :class:`ColumnArray` — a bare string column;
#
# or to ``None`` where NumPy cannot reproduce the row closure exactly.
# A ``None`` goes up to the nearest node that only needs its truth
# (AND, OR, NOT, the root), which runs the closure of that subtree: once
# per distinct value when the subtree reads one string column, else once
# per row.

_NP_COMPARISONS = {
    "=": np.equal,
    "<>": np.not_equal,
    "<": np.less,
    ">": np.greater,
    "<=": np.less_equal,
    ">=": np.greater_equal,
}
_NP_ARITHMETIC = {"+": np.add, "-": np.subtract, "*": np.multiply}

#: Largest magnitude below which every int64 converts to float64 exactly.
_EXACT_FLOAT_INT = 2**53


class _Const(NamedTuple):
    value: Any


class _Num(NamedTuple):
    """Numbers per row.  For int64 ``values``, ``bound`` caps the magnitude
    of every slot (NULL slots included), so sums and products are checked
    against int64 before NumPy could wrap; ``None`` marks float64."""

    values: np.ndarray
    null: np.ndarray
    bound: Optional[int]


_Vector = Union[_Const, _Num, np.ndarray, ColumnArray, None]


def _is_null(value: _Vector) -> bool:
    return isinstance(value, _Const) and value.value is None


def _numeric(value: _Vector) -> Optional[_Num]:
    """*value* as numbers per row; None where it is not numeric."""
    if isinstance(value, _Num):
        return value
    if isinstance(value, np.ndarray):  # bools are the ints 0 and 1
        return _Num(value.astype(np.int64), np.False_, 1)
    if isinstance(value, _Const):
        constant = value.value
        if type(constant) in (int, bool) and abs(constant) <= INT64_BOUND:
            return _Num(np.int64(constant), np.False_, abs(int(constant)))
        if type(constant) is float:
            return _Num(np.float64(constant), np.False_, None)
    return None


def _null_of(value: _Vector, count: int) -> np.ndarray:
    if isinstance(value, _Const):
        return np.full(count, value.value is None)
    if isinstance(value, _Num):
        return np.broadcast_to(value.null, (count,))
    if isinstance(value, ColumnArray):
        return value.codes < 0
    return np.zeros(count, dtype=bool)


def _all_null(count: int) -> _Num:
    return _Num(np.zeros(count, dtype=np.int64), np.ones(count, dtype=bool), 0)


def _compare(op: str, left: _Vector, right: _Vector, count: int) -> Optional[np.ndarray]:
    if left is None or right is None:
        return None
    if _is_null(left) or _is_null(right):
        return np.zeros(count, dtype=bool)
    sides = [_numeric(left), _numeric(right)]
    for i, value in enumerate((left, right)):
        if sides[i] is None and sides[1 - i] is not None:
            # A number against a string constant: the closure's float().
            if not (isinstance(value, _Const) and isinstance(value.value, str)):
                return None
            try:
                sides[i] = _Num(np.float64(float(value.value)), np.False_, None)
            except ValueError:
                return np.zeros(count, dtype=bool)
    a, b = sides
    if a is None or b is None:
        return None
    if (a.bound is None) != (b.bound is None):
        # int64 against float64: exact only where the ints convert exactly.
        if (a.bound if a.bound is not None else b.bound) > _EXACT_FLOAT_INT:
            return None
    return _NP_COMPARISONS[op](a.values, b.values) & ~(a.null | b.null)


def _arithmetic(op: str, left: _Vector, right: _Vector, count: int) -> Optional[_Num]:
    if left is None or right is None:
        return None
    if _is_null(left) or _is_null(right):
        return _all_null(count)
    a, b = _numeric(left), _numeric(right)
    if a is None or b is None:
        return None
    null = a.null | b.null
    if a.bound is None or b.bound is None:
        if op == "%":
            return None
        return _Num(_NP_ARITHMETIC[op](a.values, b.values), null, None)
    if op == "%":
        return _remainder(a, b)
    bound = a.bound * b.bound if op == "*" else a.bound + b.bound
    if bound > INT64_BOUND:
        return None
    return _Num(_NP_ARITHMETIC[op](a.values, b.values), null, bound)


def _remainder(a: _Num, b: _Num) -> _Num:
    """int64 ``a % b``, NULL where ``b`` is 0 (NumPy's remainder takes the
    divisor's sign, as Python's does)."""
    zero = b.values == 0
    values = np.remainder(a.values, np.where(zero, 1, b.values))
    return _Num(values, a.null | b.null | zero, b.bound)


def _mod(left: _Vector, right: _Vector, count: int) -> Optional[_Num]:
    """``MOD(left, right)``: ``int(left) % int(right)`` over int64, with a
    string column's ``int()`` taken once per distinct value."""
    if left is None or right is None:
        return None
    if _is_null(left) or _is_null(right):
        return _all_null(count)
    divisor = _numeric(right)
    if divisor is None or divisor.bound is None:
        return None
    if isinstance(left, ColumnArray):
        parsed = left.parsed_ints()
        if parsed is None:
            return None
        numbers, valid = parsed
        dividend: Optional[_Num] = _Num(numbers[left.codes], ~valid[left.codes], INT64_BOUND)
    else:
        dividend = _numeric(left)
    if dividend is None or dividend.bound is None:
        return None
    return _remainder(dividend, divisor)


def _in_list(
    value: _Vector, literals: Sequence[Any], negated: bool, count: int
) -> Optional[np.ndarray]:
    if value is None:
        return None
    if _is_null(value):
        return np.zeros(count, dtype=bool)
    numbers = _numeric(value)
    if numbers is None:
        return None
    targets = []
    for literal in literals:
        kind = type(literal)
        if literal is None or kind is str:  # strings never equal numbers
            continue
        if kind not in (int, bool, float):
            return None
        if numbers.bound is None:  # a float equals only an int it converts to
            try:
                as_float = float(literal)
            except OverflowError:
                continue
            if as_float == literal:
                targets.append(as_float)
        elif kind is not float or literal.is_integer():
            if abs(literal) <= INT64_BOUND:
                targets.append(int(literal))
    dtype = np.float64 if numbers.bound is None else np.int64
    hit = np.isin(numbers.values, np.array(targets, dtype=dtype))
    return (hit != negated) & ~numbers.null


def _column_vector(column: ColumnArray) -> _Vector:
    if column.values is not None:
        return _Num(column.values, column.null, None if column.kind == "float" else column.bound)
    if column.kind == "str":
        return column
    return None


class _Frame:
    """One evaluation of a compiled WHERE over one table."""

    def __init__(self, table: Table):
        self.table = table
        self.count = len(table)

    def truth(self, node: "_MaskNode") -> np.ndarray:
        """Per row, the Python truth of *node*'s value."""
        value = node.evaluate(self)
        if value is None:
            return self._closure_truth(node)
        if isinstance(value, np.ndarray):
            return value
        if isinstance(value, _Const):
            return np.full(self.count, bool(value.value))
        if isinstance(value, _Num):
            return ~value.null & (value.values != 0)
        per_value = np.fromiter(map(bool, value.uniques + [""]), dtype=bool)
        return per_value[value.codes]

    def _closure_truth(self, node: "_MaskNode") -> np.ndarray:
        closure = node.closure()
        if len(node.refs) == 1:
            (position,) = node.refs
            column = self.table.column_array(position)
            if column.kind == "str":
                row: List[Any] = [None] * node.width

                def at(value: Optional[str]) -> bool:
                    row[position] = value
                    return bool(closure(row))

                # The trailing None is the slot NULL's code -1 selects.
                per_value = np.fromiter(map(at, column.uniques + [None]), dtype=bool)
                return per_value[column.codes]
        return np.fromiter(
            (bool(closure(row.values)) for row in self.table), dtype=bool, count=self.count
        )


class _MaskNode:
    """One AST node of a compiled WHERE: its column positions and its
    vector evaluator; the node's row closure is compiled on demand."""

    def __init__(self, expr: ast.Expr, schema: PlanSchema):
        self.expr = expr
        self.schema = schema
        self.width = len(schema)
        self.refs = frozenset(schema.resolve(r.name, r.qualifier) for r in column_refs(expr))
        self._closure: Optional[RowEvaluator] = None
        self.evaluate = self._evaluator()

    def closure(self) -> RowEvaluator:
        if self._closure is None:
            self._closure = compile_expression(self.expr, self.schema)
        return self._closure

    def _child(self, expr: ast.Expr) -> "_MaskNode":
        return _MaskNode(expr, self.schema)

    def _evaluator(self) -> Callable[[_Frame], _Vector]:
        expr = self.expr
        if isinstance(expr, ast.Literal):
            constant = _Const(expr.value)
            return lambda frame: constant
        if not self.refs:
            return lambda frame: _Const(self.closure()(()))
        if isinstance(expr, ast.ColumnRef):
            (position,) = self.refs
            return lambda frame: _column_vector(frame.table.column_array(position))
        if isinstance(expr, ast.BinaryOp):
            left, right, op = self._child(expr.left), self._child(expr.right), expr.op
            if op in _NP_COMPARISONS:
                apply = _compare
            elif op in _NP_ARITHMETIC or op == "%":
                apply = _arithmetic
            else:
                return lambda frame: None
            return lambda frame: apply(op, left.evaluate(frame), right.evaluate(frame), frame.count)
        if isinstance(expr, ast.BooleanOp):
            operands = [self._child(o) for o in expr.operands]
            combine = np.logical_and if expr.op == "AND" else np.logical_or
            return lambda frame: reduce(combine, (frame.truth(o) for o in operands))
        if isinstance(expr, ast.NotOp):
            operand = self._child(expr.operand)
            return lambda frame: ~frame.truth(operand)
        if isinstance(expr, ast.InList):
            operand, negated = self._child(expr.operand), expr.negated
            literals = [v.value for v in expr.values]
            return lambda frame: _in_list(operand.evaluate(frame), literals, negated, frame.count)
        if isinstance(expr, ast.Between):
            return self._between(expr)
        if isinstance(expr, ast.IsNull):
            operand, negated = self._child(expr.operand), expr.negated

            def is_null(frame: _Frame) -> _Vector:
                value = operand.evaluate(frame)
                return None if value is None else _null_of(value, frame.count) != negated

            return is_null
        if isinstance(expr, ast.FunctionCall) and expr.name == "MOD" and len(expr.args) == 2:
            left, right = (self._child(a) for a in expr.args)
            return lambda frame: _mod(left.evaluate(frame), right.evaluate(frame), frame.count)
        # LIKE, LOWER, COALESCE, ...: the closure, per distinct value or row.
        return lambda frame: None

    def _between(self, expr: ast.Between) -> Callable[[_Frame], _Vector]:
        operand, low, high = (self._child(e) for e in (expr.operand, expr.low, expr.high))
        negated = expr.negated

        def between(frame: _Frame) -> _Vector:
            value = operand.evaluate(frame)
            above = _compare(">=", value, low.evaluate(frame), frame.count)
            below = _compare("<=", value, high.evaluate(frame), frame.count)
            if above is None or below is None:
                return None
            return ((above & below) != negated) & ~_null_of(value, frame.count)

        return between


class MaskPredicate:
    """A single-table WHERE compiled to column masks (:func:`compile_mask`).

    :meth:`mask` equals the row closure's verdict on every row.  Should a
    node raise (the closure of a subtree NumPy does not cover, a string
    value seen only by a rolled-back row, or a string repeated by a huge
    int where the row loop's AND/OR never evaluates it), the row closure
    is replayed over the rows: it raises what the row loop raises, or
    answers where its short-circuits skip the failing rows.
    """

    def __init__(self, expr: Optional[ast.Expr], schema: PlanSchema):
        #: The row closure: the replay path, and the mask's test oracle.
        self.row_predicate = compile_predicate(expr, schema)
        self._root = None if expr is None else _MaskNode(expr, schema)

    def mask(self, table: Table) -> np.ndarray:
        """Per row of *table*, whether the WHERE keeps it."""
        count = len(table)
        if self._root is None:
            return np.ones(count, dtype=bool)
        try:
            with np.errstate(all="ignore"):
                return _Frame(table).truth(self._root)
        except (TypeError, ValueError, ArithmeticError, MemoryError):
            predicate = self.row_predicate
            return np.fromiter((predicate(row.values) for row in table), dtype=bool, count=count)

    def positions(self, table: Table) -> np.ndarray:
        """Row positions of *table* the WHERE keeps, ascending."""
        return np.flatnonzero(self.mask(table))


def compile_mask(expr: Optional[ast.Expr], schema: PlanSchema) -> MaskPredicate:
    """Compile a single-table WHERE over *schema* (the table's columns, in
    order) to a :class:`MaskPredicate`; None keeps every row.  Raises what
    :func:`compile_predicate` raises, at compile time."""
    return MaskPredicate(expr, schema)


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
