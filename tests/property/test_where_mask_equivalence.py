"""Property: a single-table WHERE as column masks keeps exactly the rows
its row closure keeps.

:func:`~repro.sql.expressions.compile_mask` evaluates a WHERE over the
table's cached typed columns (:meth:`~repro.storage.table.Table.column_array`);
:func:`~repro.sql.expressions.compile_predicate`'s closure over each
row's values is the oracle.  Hypothesis draws WHERE trees over every
node the mask evaluator knows — column refs, literals, comparisons,
``+ - * / %``, ``MOD``, AND/OR/NOT, ``IN``, ``LIKE``, ``BETWEEN``,
``IS [NOT] NULL`` — and some it leaves to the closure (``LOWER``,
``ABS``, ``COALESCE``, bare values tested for truth), over tables with
NULLs in every column, CSV-style string ids, digit strings compared with
numbers, ints past 2**63 and mixed-type columns.  Where the closure
raises, the mask must raise the same error.

The column arrays are built on first read and extended later, so the
check also runs after ``INSERT``, after a rolled-back insert followed by
a different batch of the same length, and on snapshot-loaded tables
(the committed ``tests/fixtures/people_v1_snapshot`` included).
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import List, Optional, Tuple
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import QueryEREngine
from repro.datagen import generate_people
from repro.incremental import IngestError
from repro.resilience import FaultPlan, clear_plan, install_plan
from repro.sql import ast, expressions
from repro.sql.expressions import compile_mask, compile_predicate
from repro.sql.schema import schema_for_table
from repro.storage.schema import Column, ColumnType, Schema
from repro.storage.table import Table

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "people_v1_snapshot"

#: id: CSV-style string ids; n, g, x, s, b: one declared type each
#: (g holds ints past int64 in some tables); o: mixed types.
SCHEMA = Schema(
    [
        Column("id"),
        Column("n", ColumnType.INTEGER),
        Column("g", ColumnType.INTEGER),
        Column("x", ColumnType.FLOAT),
        Column("s"),
        Column("b", ColumnType.BOOLEAN),
        Column("o"),
    ]
)
#: Within int64 but not exact as float64, or near its limits.
WIDE_INTS = [2**53 + 1, -(2**53 + 1), 2**62, 2**63 - 1, -(2**63 - 1)]
#: Past int64.
HUGE_INTS = [2**63, -(2**63), 2**70]
STRINGS = ["5", "05", " 7 ", "-3", "1e3", "nsw", "NSW", "abc", "", "x5", "12345678901234567890123"]

ints = st.integers(-40, 40)
floats = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 2.5, -1.5, 3.0, 1e20, 2.0**53, 2.0**62, float("nan"), float("inf")]
    ),
    st.floats(-50, 50, allow_nan=False),
)
strings = st.sampled_from(STRINGS)
literal_values = st.one_of(
    st.none(), st.booleans(), ints, st.sampled_from(WIDE_INTS + HUGE_INTS), floats, strings
)


def nullable(values):
    return st.one_of(st.none(), values)


def row_batches(size: int):
    """Rows of SCHEMA (ids assigned later): NULLs everywhere, ints past
    2**63 in some ``g`` columns, a mixed-type ``o``."""
    return st.lists(
        st.tuples(
            nullable(st.one_of(ints, ints, st.sampled_from(WIDE_INTS))),
            nullable(st.one_of(ints, ints, ints, st.sampled_from(HUGE_INTS))),
            nullable(floats),
            nullable(strings),
            nullable(st.booleans()),
            nullable(st.one_of(ints, floats, strings, st.booleans())),
        ),
        min_size=size,
        max_size=size,
    )


def with_ids(rows, start: int) -> List[tuple]:
    return [(str(start + i),) + tuple(row) for i, row in enumerate(rows)]


leaves = st.one_of(
    st.sampled_from(SCHEMA.names).map(ast.ColumnRef),
    literal_values.map(ast.Literal),
)


def _value_nodes(children):
    return st.one_of(
        st.builds(ast.BinaryOp, st.sampled_from(["+", "-", "*", "/", "%"]), children, children),
        st.builds(lambda a, b: ast.FunctionCall("MOD", (a, b)), children, children),
        st.builds(lambda a: ast.FunctionCall("LOWER", (a,)), children),
        st.builds(lambda a: ast.FunctionCall("ABS", (a,)), children),
        st.builds(lambda a, b: ast.FunctionCall("COALESCE", (a, b)), children, children),
    )


values = st.recursive(leaves, _value_nodes, max_leaves=4)
literal_lists = st.lists(literal_values.map(ast.Literal), min_size=1, max_size=4).map(tuple)
atoms = st.one_of(
    st.builds(ast.BinaryOp, st.sampled_from(["=", "<>", "<", ">", "<=", ">="]), values, values),
    st.builds(ast.InList, values, literal_lists, st.booleans()),
    st.builds(
        ast.Like, values, st.sampled_from(["%s%", "n_w", "5", "%", "A%", "1%"]), st.booleans()
    ),
    st.builds(ast.Between, values, values, values, st.booleans()),
    st.builds(ast.IsNull, values, st.booleans()),
    values,  # a bare value, tested for truth
)
predicates = st.recursive(
    atoms,
    lambda children: st.one_of(
        st.builds(
            lambda op, operands: ast.BooleanOp(op, tuple(operands)),
            st.sampled_from(["AND", "OR"]),
            st.lists(children, min_size=2, max_size=3),
        ),
        st.builds(ast.NotOp, children),
    ),
    max_leaves=6,
)

#: Fixed shapes every lifecycle step checks: the benchmark's lookups,
#: the ``NOT`` over NULL comparisons and the string-column paths.
SHAPES = [
    "MOD(id, 3) = 1",
    "MOD(n, 4) = 1 OR n IS NULL",
    "NOT (n = 1)",
    "NOT (s = 'nsw')",
    "s IN ('NSW', 'abc')",
    "s NOT IN ('nsw')",
    "s LIKE '%s%'",
    "s = 5",
    "x BETWEEN -1 AND 3",
    "n NOT BETWEEN NULL AND 3",
    "n + 1 > 2 AND x * 2 < 10",
    "g > 5 OR g IS NULL",
    "n * 2048 > 0",
    "n = 9007199254740992.0",
    "x IN (9007199254740993, 2)",
    "n IN (3.5, 7.0)",
    "MOD(n, 0) = 0 OR n % 0 = 0 OR MOD(n, g) = 0",
    "b",
    "NOT b",
    "o = 5",
    "LOWER(s) = 'nsw'",
    "id = NULL AND id = id * 9007199254740993",
]


def verdict(predicate, table: Table) -> Tuple[Optional[List[int]], Optional[str]]:
    """Kept row positions, or the error raised (type and message)."""
    try:
        return predicate(table), None
    except Exception as error:  # noqa: BLE001 — compared, not handled
        return None, f"{type(error).__name__}: {error}"


def assert_mask_matches(table: Table, where: ast.Expr) -> None:
    schema = schema_for_table(table, table.name)
    closure = compile_predicate(where, schema)
    mask = compile_mask(where, schema)
    expected = verdict(lambda t: [p for p, row in enumerate(t) if closure(row.values)], table)
    assert verdict(lambda t: mask.positions(t).tolist(), table) == expected, str(where)


def parse_where(condition: str) -> ast.Expr:
    from repro.sql.parser import parse

    return parse(f"SELECT id FROM t WHERE {condition}").where


@pytest.fixture(autouse=True)
def _no_faults():
    clear_plan()
    yield
    clear_plan()


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=row_batches(12), where=predicates)
def test_mask_equals_row_closure(rows, where):
    assert_mask_matches(Table("T", SCHEMA, with_ids(rows, 1), coerce=False), where)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    first=row_batches(10),
    failed=row_batches(4),
    second=row_batches(4),
    where=predicates,
)
def test_columns_follow_append_rollback_append(first, failed, second, where):
    """Read (build), append (extend), read, roll back, append a different
    batch of the same length, read: each read equals the closure."""
    table = Table("T", SCHEMA, with_ids(first, 1), coerce=False)
    assert_mask_matches(table, where)
    table.append_rows(with_ids(failed, 11), coerce=False)
    assert_mask_matches(table, where)
    table.rollback_to(10)
    table.append_rows(with_ids(second, 11), coerce=False)
    assert_mask_matches(table, where)


def _check_shapes(table: Table) -> None:
    for condition in SHAPES:
        assert_mask_matches(table, parse_where(condition))


def test_engine_insert_rollback_insert():
    """Through the engine's INSERT path (coerced rows): a built column,
    an insert, a rolled-back insert, a different batch of that length."""
    rows = [
        ("1", 3, 1, 1.5, "nsw", True, "5"),
        ("2", None, None, None, None, None, None),
        ("3", 7, 2**70, -2.0, "NSW", False, "abc"),
        ("4", 2**53 + 1, -4, 2.0**53, "5", None, "05"),
        ("5", 2**62, 0, float("nan"), " 7 ", True, "-3"),
    ]
    engine = QueryEREngine()
    engine.register(Table("T", SCHEMA, rows))
    table = engine.index_of("T").table
    _check_shapes(table)

    engine.execute(
        "INSERT INTO T VALUES ('6', 1, 2, 0.5, 'vic', 'true', '7'),"
        " ('7', 4, NULL, NULL, '', NULL, NULL)"
    )
    _check_shapes(table)

    install_plan(FaultPlan().add("dml.before_commit"))
    with pytest.raises(IngestError):
        engine.insert(
            "T", [("8", 9, 1, 9.5, "qld", True, "x"), ("9", 10, 2, 1.0, "sa", False, "y")]
        )
    clear_plan()
    assert len(table) == 7
    _check_shapes(table)

    engine.insert(
        "T", [("8", None, 5, 3.0, "nsw", False, None), ("9", -5, 6, None, "abc", True, "9")]
    )
    _check_shapes(table)


def test_columns_truncate_after_a_read_inside_the_insert():
    """A column read between the append and the rollback is truncated, so
    the next batch of the same length is read, not the rolled-back one."""
    table = Table("T", SCHEMA, [("1", 1, 1, 1.0, "a", True, "1")])
    table.append_rows([("2", 2, 2, 2.0, "nsw", False, "2")])
    _check_shapes(table)
    table.rollback_to(1)
    table.append_rows([("2", 5, 3, 3.0, "vic", True, "x")])
    _check_shapes(table)


def test_snapshot_loaded_tables(tmp_path):
    """The committed v1 snapshot, and a saved engine over a table with
    NULLs in every column."""
    directory = tmp_path / "fixture"
    shutil.copytree(FIXTURE, directory)
    people = QueryEREngine.load(directory).index_of("PPL").table
    for condition in (
        "state = 'nsw'",
        "surname LIKE '%an%'",
        "MOD(id, 7) = 3",
        "NOT (state = 'vic')",
    ):
        assert_mask_matches(people, parse_where(condition))

    rows = [
        ("1", 3, 2**64, 1.5, "nsw", True, "5"),
        ("2", None, None, None, None, None, None),
        ("3", -4, 1, 0.0, "5", False, "x"),
    ]
    engine = QueryEREngine()
    engine.register(Table("T", SCHEMA, rows))
    engine.save(tmp_path / "saved")
    _check_shapes(QueryEREngine.load(tmp_path / "saved").index_of("T").table)


def test_point_lookups_call_no_row_closure():
    """The benchmark's lookup shape, ``MOD(id, m) = k`` on int ids and on
    CSV string ids, runs on column masks alone: no row-closure call."""
    people, _ = generate_people(1200, seed=3, name="PPL")
    as_csv = Table(
        "CSV",
        Schema.of(*people.schema.names, id_column=people.schema.id_column),
        [(str(row.id),) + tuple(row.values[1:]) for row in people],
    )
    calls = []
    compile_expression = expressions.compile_expression

    def counting(expr, schema):
        closure = compile_expression(expr, schema)

        def counted(row):
            calls.append(expr)
            return closure(row)

        return counted

    engine = QueryEREngine()
    engine.register(people)
    engine.register(as_csv)
    with mock.patch.object(expressions, "compile_expression", counting):
        answers = [
            engine.execute(f"SELECT DEDUP id, surname FROM {name} WHERE MOD(id, 48) = {k}")
            for name in ("PPL", "CSV")
            for k in (0, 5, 11, 17, 23, 29, 35, 47)
        ]
    assert calls == []
    assert all(answer.rows for answer in answers)
