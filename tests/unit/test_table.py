"""Unit tests for repro.storage.table."""

import pytest

from repro.storage.schema import Column, ColumnType, Schema, SchemaError
from repro.storage.table import Row, Table


@pytest.fixture
def table():
    return Table(
        "T",
        Schema.of("id", "name", "city"),
        [("1", "ann", "berlin"), ("2", "bob", None), ("3", "cyd", "athens")],
    )


class TestRow:
    def test_access_by_position_and_name(self, table):
        row = table[0]
        assert row[0] == "1"
        assert row["name"] == "ann"
        assert row["NAME"] == "ann"

    def test_id_property(self, table):
        assert table[1].id == "2"

    def test_as_dict(self, table):
        assert table[0].as_dict() == {"id": "1", "name": "ann", "city": "berlin"}

    def test_get_with_default(self, table):
        assert table[0].get("missing", "dflt") == "dflt"

    def test_replace_returns_new_row(self, table):
        row = table[0]
        other = row.replace(city="paris")
        assert other["city"] == "paris"
        assert row["city"] == "berlin"

    def test_equality_and_hash(self, table):
        schema = table.schema
        a = Row(schema, ("9", "x", "y"))
        b = Row(schema, ("9", "x", "y"))
        assert a == b
        assert hash(a) == hash(b)


class TestTable:
    def test_len_and_iter(self, table):
        assert len(table) == 3
        assert [r.id for r in table] == ["1", "2", "3"]

    def test_by_id(self, table):
        assert table.by_id("2")["name"] == "bob"

    def test_by_id_missing_raises(self, table):
        with pytest.raises(KeyError):
            table.by_id("99")

    def test_rows_of_keeps_table_order_and_skips_absent_ids(self, table):
        assert [r.id for r in table.rows_of(["3", "99", "1"])] == ["1", "3"]

    def test_contains(self, table):
        assert "1" in table
        assert "xx" not in table

    def test_duplicate_id_rejected(self):
        with pytest.raises(SchemaError):
            Table("T", Schema.of("id"), [("1",), ("1",)])

    def test_null_id_rejected(self):
        with pytest.raises(SchemaError):
            Table("T", Schema.of("id", "x"), [(None, "a")])

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Table("", Schema.of("id"))

    def test_coercion_on_construction(self):
        schema = Schema([Column("id", ColumnType.INTEGER), Column("v", ColumnType.FLOAT)])
        t = Table("N", schema, [("1", "2.5")])
        assert t[0].values == (1, 2.5)

    def test_select(self, table):
        sub = table.select(lambda r: r["city"] is not None)
        assert [r.id for r in sub] == ["1", "3"]

    def test_from_rows_deduplicates_ids(self, table):
        rebuilt = table.from_rows([table[0], table[0], table[2]])
        assert [r.id for r in rebuilt] == ["1", "3"]

    def test_ids_property(self, table):
        assert table.ids == ["1", "2", "3"]
