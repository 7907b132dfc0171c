"""Unit tests for expression compilation and evaluation."""

import pytest

from repro.sql import ast
from repro.sql.expressions import (
    ExpressionError,
    column_refs,
    compile_expression,
    compile_mask,
    compile_predicate,
    conjoin,
    conjuncts,
    string_literals,
)
from repro.sql.schema import Field, PlanSchema
from repro.sql.parser import parse
from repro.storage.schema import Schema
from repro.storage.table import Table


SCHEMA = PlanSchema([Field("t", "id"), Field("t", "name"), Field("t", "age"), Field("u", "name")])


def evaluate(sql_condition: str, row: tuple, schema: PlanSchema = SCHEMA):
    query = parse(f"SELECT x FROM t WHERE {sql_condition}")
    return compile_expression(query.where, schema)(row)


class TestColumnResolution:
    def test_qualified(self):
        expr = ast.ColumnRef("name", "u")
        assert compile_expression(expr, SCHEMA)((1, "a", 2, "b")) == "b"

    def test_unqualified_unique(self):
        expr = ast.ColumnRef("age")
        assert compile_expression(expr, SCHEMA)((1, "a", 30, "b")) == 30

    def test_ambiguous_raises(self):
        from repro.sql.schema import SchemaResolutionError

        with pytest.raises(SchemaResolutionError):
            compile_expression(ast.ColumnRef("name"), SCHEMA)

    def test_unknown_raises(self):
        from repro.sql.schema import SchemaResolutionError

        with pytest.raises(SchemaResolutionError):
            compile_expression(ast.ColumnRef("zzz"), SCHEMA)


class TestComparisons:
    def test_equality(self):
        assert evaluate("t.id = 5", (5, "a", 1, "b")) is True

    def test_null_comparisons_false(self):
        assert evaluate("t.name = 'a'", (1, None, 2, "b")) is False
        assert evaluate("t.name <> 'a'", (1, None, 2, "b")) is False

    def test_mixed_numeric_string(self):
        assert evaluate("t.age > 18", (1, "a", "25", "b")) is True

    def test_unparseable_mixed_comparison_false(self):
        assert evaluate("t.age > 18", (1, "a", "dunno", "b")) is False

    def test_inequalities(self):
        assert evaluate("t.age <= 30", (1, "a", 30, "b")) is True
        assert evaluate("t.age < 30", (1, "a", 30, "b")) is False


class TestBooleanLogic:
    def test_and_or(self):
        assert evaluate("t.id = 1 AND t.age = 2", (1, "x", 2, "y")) is True
        assert evaluate("t.id = 9 OR t.age = 2", (1, "x", 2, "y")) is True

    def test_not(self):
        assert evaluate("NOT t.id = 1", (1, "x", 2, "y")) is False

    def test_in_list_case_insensitive_strings(self):
        assert evaluate("t.name IN ('ANN', 'bob')", (1, "ann", 2, "y")) is True

    def test_not_in(self):
        assert evaluate("t.name NOT IN ('x')", (1, "ann", 2, "y")) is True

    def test_in_with_null_operand_false(self):
        assert evaluate("t.name IN ('ann')", (1, None, 2, "y")) is False

    def test_like(self):
        assert evaluate("t.name LIKE 'an%'", (1, "Anna", 2, "y")) is True
        assert evaluate("t.name LIKE 'a_n'", (1, "ann", 2, "y")) is True
        assert evaluate("t.name NOT LIKE 'b%'", (1, "ann", 2, "y")) is True

    def test_between(self):
        assert evaluate("t.age BETWEEN 10 AND 20", (1, "a", 15, "b")) is True
        assert evaluate("t.age NOT BETWEEN 10 AND 20", (1, "a", 25, "b")) is True

    def test_is_null(self):
        assert evaluate("t.name IS NULL", (1, None, 2, "b")) is True
        assert evaluate("t.name IS NOT NULL", (1, None, 2, "b")) is False


class TestArithmeticAndFunctions:
    def test_arithmetic(self):
        assert evaluate("t.age + 5 = 10", (1, "a", 5, "b")) is True
        assert evaluate("t.age * 2 = 10", (1, "a", 5, "b")) is True

    def test_division_by_zero_yields_null(self):
        assert evaluate("t.age / 0 = 1", (1, "a", 5, "b")) is False

    def test_mod_function(self):
        assert evaluate("MOD(t.id, 10) < 1", (20, "a", 5, "b")) is True
        assert evaluate("MOD(t.id, 10) < 1", (21, "a", 5, "b")) is False

    def test_mod_on_non_numeric_yields_null(self):
        assert evaluate("MOD(t.name, 10) < 1", (1, "abc", 5, "b")) is False

    def test_lower_upper_length(self):
        assert evaluate("LOWER(t.name) = 'ann'", (1, "ANN", 5, "b")) is True
        assert evaluate("UPPER(t.name) = 'ANN'", (1, "ann", 5, "b")) is True
        assert evaluate("LENGTH(t.name) = 3", (1, "ann", 5, "b")) is True

    def test_coalesce(self):
        assert evaluate("COALESCE(t.name, 'dflt') = 'dflt'", (1, None, 5, "b")) is True

    def test_unknown_function_raises(self):
        with pytest.raises(ExpressionError):
            evaluate("NOSUCH(t.id) = 1", (1, "a", 2, "b"))

    def test_mod_arity_checked(self):
        with pytest.raises(ExpressionError):
            evaluate("MOD(t.id) = 1", (1, "a", 2, "b"))


class TestPredicateHelpers:
    def test_compile_predicate_none_is_true(self):
        assert compile_predicate(None, SCHEMA)((1, 2, 3, 4)) is True

    def test_conjuncts_flattens_nested_and(self):
        q = parse("SELECT x FROM t WHERE a = 1 AND b = 2 AND c = 3")
        assert len(conjuncts(q.where)) == 3

    def test_conjuncts_keeps_or_whole(self):
        q = parse("SELECT x FROM t WHERE a = 1 OR b = 2")
        assert len(conjuncts(q.where)) == 1

    def test_conjoin_roundtrip(self):
        q = parse("SELECT x FROM t WHERE a = 1 AND b = 2")
        parts = conjuncts(q.where)
        assert conjuncts(conjoin(parts)) == parts

    def test_conjoin_empty_is_none(self):
        assert conjoin([]) is None

    def test_column_refs(self):
        q = parse("SELECT x FROM t WHERE t.a = 1 AND (u.b = 2 OR UPPER(c) = 'X')")
        assert column_refs(q.where) == [
            ast.ColumnRef("a", "t"),
            ast.ColumnRef("b", "u"),
            ast.ColumnRef("c"),
        ]

    def test_string_literals_collects_from_all_shapes(self):
        q = parse(
            "SELECT x FROM t WHERE a = 'alpha' AND b IN ('beta', 'gamma') AND c LIKE '%delta%'"
        )
        found = string_literals(q.where)
        assert {"alpha", "beta", "gamma", "%delta%"} <= set(found)


class TestNullRules:
    """The NULL rules of the module docstring, for the row closure and
    for the column masks alike."""

    TABLE = Table(
        "t",
        Schema.of("id", "x", "s"),
        [("1", 1, "ann"), ("2", None, None), ("3", 5, "bob")],
        coerce=False,
    )
    TABLE_SCHEMA = PlanSchema([Field("t", "id"), Field("t", "x"), Field("t", "s")])

    def kept(self, condition: str):
        where = parse(f"SELECT id FROM t WHERE {condition}").where
        predicate = compile_predicate(where, self.TABLE_SCHEMA)
        by_closure = [row.id for row in self.TABLE if predicate(row.values)]
        by_mask = [
            self.TABLE[p].id for p in compile_mask(where, self.TABLE_SCHEMA).positions(self.TABLE)
        ]
        assert by_mask == by_closure
        return by_closure

    def test_comparison_with_null_is_false(self):
        assert self.kept("x = 1") == ["1"]
        assert self.kept("x <> 1") == ["3"]
        assert self.kept("x = NULL") == []
        assert self.kept("x <> NULL") == []

    def test_not_flips_a_null_comparison(self):
        assert self.kept("NOT (x = 1)") == ["2", "3"]
        assert self.kept("NOT (s = 'ann')") == ["2", "3"]

    def test_in_like_between_on_null_are_false_even_negated(self):
        assert self.kept("x NOT IN (1)") == ["3"]
        assert self.kept("s NOT LIKE 'a%'") == ["3"]
        assert self.kept("x NOT BETWEEN 2 AND 3") == ["1", "3"]
        assert self.kept("NOT (x IN (1))") == ["2", "3"]

    def test_between_with_a_null_bound_fails_its_comparison(self):
        assert self.kept("x BETWEEN NULL AND 9") == []
        assert self.kept("x NOT BETWEEN NULL AND 9") == ["1", "3"]

    def test_arithmetic_on_null_is_null(self):
        assert self.kept("x + 1 IS NULL") == ["2"]
        assert self.kept("MOD(x, 2) IS NOT NULL") == ["1", "3"]

    def test_bare_values_are_tested_for_truth(self):
        assert self.kept("x") == ["1", "3"]
        assert self.kept("x - 1") == ["3"]
        assert self.kept("s") == ["1", "3"]
