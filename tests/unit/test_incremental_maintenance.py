"""Unit tests for the incremental ingestion subsystem.

Covers the three maintenance steps individually — storage append,
delta postings amendment (append-then-amend ≡ registration of the grown table),
Link-Index invalidation — plus the DML parse/execute path and the
statistics refresh.
"""

import pytest
from reference.dict_pipeline import block_sets, postings_blocks, reference_tbi

from repro.core.engine import QueryEREngine
from repro.core.indices import TableIndex
from repro.datagen import generate_people
from repro.sql import ast
from repro.sql.parser import ParseError, parse
from repro.storage.schema import Schema, SchemaError
from repro.storage.table import Table


def people_rows(size, seed=11):
    table, _ = generate_people(size, seed=seed)
    return table.schema, [tuple(r.values) for r in table]


def assert_indices_equal(incremental: TableIndex, rebuilt: TableIndex):
    """Same blocks per key string, both equal to the re-tokenized TBI."""
    blocks = postings_blocks(incremental)
    assert blocks == postings_blocks(rebuilt)
    assert blocks == block_sets(reference_tbi(incremental))
    assert incremental.block_count == rebuilt.block_count == len(blocks)


class TestTableAppend:
    def test_append_rows_extends_and_indexes(self):
        table = Table("T", Schema.of("id", "name"), [("a", "x")])
        added = table.append_rows([("b", "y"), ("c", "z")])
        assert [r.id for r in added] == ["b", "c"]
        assert len(table) == 3
        assert table.by_id("c")["name"] == "z"

    def test_append_batch_is_atomic_on_duplicate_id(self):
        table = Table("T", Schema.of("id", "name"), [("a", "x")])
        with pytest.raises(SchemaError):
            table.append_rows([("b", "y"), ("a", "clash")])
        with pytest.raises(SchemaError):
            table.append_rows([("c", "y"), ("c", "again")])
        assert len(table) == 1 and "b" not in table

    def test_append_rejects_null_id(self):
        table = Table("T", Schema.of("id", "name"), [("a", "x")])
        with pytest.raises(SchemaError):
            table.append_rows([(None, "y")])


class TestDeltaIndexMaintenance:
    def test_append_then_amend_equals_rebuild(self):
        schema, rows = people_rows(120)
        base = Table("PPL", schema, rows[:90], coerce=False)
        index = TableIndex(base)
        base.append_rows([tuple(v) for v in rows[90:]], coerce=False)
        index.add_records([r[0] for r in rows[90:]])
        rebuilt = TableIndex(Table("PPL", schema, rows, coerce=False))
        assert_indices_equal(index, rebuilt)

    def test_multiple_small_batches_equal_rebuild(self):
        schema, rows = people_rows(100, seed=5)
        base = Table("PPL", schema, rows[:70], coerce=False)
        index = TableIndex(base)
        for start in range(70, 100, 7):
            batch = rows[start : start + 7]
            base.append_rows(batch, coerce=False)
            index.add_records([r[0] for r in batch])
        rebuilt = TableIndex(Table("PPL", schema, rows, coerce=False))
        assert_indices_equal(index, rebuilt)

    def test_tokenless_record_gets_no_itbi_entry(self):
        # A record whose attributes yield no blocking tokens must be
        # indexed exactly like a rebuild would: absent from the ITBI.
        table = Table("T", Schema.of("id", "title"), [("e1", "alpha beta")])
        index = TableIndex(table)
        table.append_rows([("e2", None)])
        delta = index.add_records(["e2"])
        assert delta.touched_keys == frozenset()
        rebuilt = TableIndex(Table("T", Schema.of("id", "title"), [("e1", "alpha beta"), ("e2", None)]))
        assert_indices_equal(index, rebuilt)
        postings = index.postings
        assert len(postings.tokens_of_entities(postings.dense_frontier(["e2"]))) == 0

    def test_delta_reports_touched_and_affected(self):
        table = Table(
            "T",
            Schema.of("id", "title"),
            [("e1", "alpha beta"), ("e2", "gamma"), ("e3", "omega")],
        )
        index = TableIndex(table)
        table.append_rows([("e4", "beta delta")])
        delta = index.add_records(["e4"])
        assert delta.new_ids == ("e4",)
        assert delta.touched_keys == {"beta", "delta"}
        assert delta.affected_ids == {"e1"}  # only e1 shares a touched block


class TestLinkIndexInvalidation:
    def engine_with_resolved_pair(self):
        engine = QueryEREngine()
        engine.register(
            Table(
                "P",
                Schema.of("id", "title"),
                [
                    ("p1", "collective entity resolution"),
                    ("p2", "collective entity resolutoin"),
                    ("p3", "unrelated consumer study"),
                ],
            )
        )
        engine.execute("SELECT DEDUP id, title FROM P")
        return engine

    def test_targeted_unresolves_cluster_of_affected_entities(self):
        engine = self.engine_with_resolved_pair()
        li = engine.index_of("P").link_index
        assert li.is_resolved("p1") and li.is_resolved("p2") and li.is_resolved("p3")
        outcome = engine.insert("P", [("p4", "collective entity res")])
        # p4 shares blocks with the p1≡p2 cluster → both un-resolved;
        # p3 shares no touched block → its resolution survives.
        assert not li.is_resolved("p1")
        assert not li.is_resolved("p2")
        assert li.is_resolved("p3")
        assert outcome.invalidated == 2
        # Recorded links are kept — they are still true.
        assert ("p1", "p2") in li.links
        assert li.cluster_of("p1") == {"p1", "p2"}

    def test_cluster_closure_reaches_entities_without_touched_blocks(self):
        engine = QueryEREngine()
        engine.register(
            Table(
                "P",
                Schema.of("id", "title"),
                [
                    ("p1", "evergreen oak ridge"),
                    ("p2", "evergreen oak rigde citrus"),
                    ("p3", "totally different words"),
                ],
            )
        )
        engine.execute("SELECT DEDUP id, title FROM P")
        li = engine.index_of("P").link_index
        assert li.cluster_of("p2") == {"p1", "p2"}
        # Shares a block only with p2 ("citrus" is p2-only among tokens).
        engine.insert("P", [("p4", "citrus grove")])
        assert not li.is_resolved("p2")
        assert not li.is_resolved("p1")  # via cluster closure, no shared block
        assert li.is_resolved("p3")

    def test_unaffected_inserts_invalidate_nothing(self):
        engine = self.engine_with_resolved_pair()
        outcome = engine.insert("P", [("p9", "zzz qqq www")])
        assert outcome.invalidated == 0
        assert engine.index_of("P").link_index.is_resolved("p1")

    def test_query_after_insert_matches_fresh_engine(self):
        engine = self.engine_with_resolved_pair()
        engine.insert("P", [("p4", "collective entity res")])
        grown = engine.catalog.get("P")
        fresh = QueryEREngine()
        fresh.register(Table("P2", grown.schema, [tuple(r.values) for r in grown], coerce=False))
        sql = "SELECT DEDUP id, title FROM {} WHERE title LIKE 'collective%'"
        assert (
            engine.execute(sql.format("P")).sorted_rows()
            == fresh.execute(sql.format("P2")).sorted_rows()
        )


class TestInsertSql:
    def test_parse_multi_row_insert(self):
        statement = parse(
            "INSERT INTO t (id, name) VALUES ('a', 'x'), ('b', NULL), ('c', 'z');"
        )
        assert isinstance(statement, ast.InsertStatement)
        assert statement.table == "t"
        assert statement.columns == ("id", "name")
        assert [tuple(v.value for v in row) for row in statement.rows] == [
            ("a", "x"),
            ("b", None),
            ("c", "z"),
        ]

    def test_parse_insert_without_column_list_and_negatives(self):
        statement = parse("INSERT INTO t VALUES (1, -2.5, TRUE)")
        assert statement.columns == ()
        assert [v.value for v in statement.rows[0]] == [1, -2.5, True]

    def test_parse_rejects_expressions_in_values(self):
        with pytest.raises(ParseError):
            parse("INSERT INTO t (id) VALUES (1 + 2)")

    def test_parse_rejects_arity_mismatch(self):
        with pytest.raises(ParseError):
            parse("INSERT INTO t (id, name) VALUES ('a')")
        with pytest.raises(ParseError):
            parse("INSERT INTO t VALUES ('a', 'b'), ('c')")

    def test_select_accepts_trailing_semicolon(self):
        query = parse("SELECT id FROM t;")
        assert isinstance(query, ast.SelectQuery)

    def test_insert_statement_roundtrips_through_str(self):
        text = "INSERT INTO t (id, name) VALUES ('a', 'x'), ('b', NULL)"
        assert str(parse(text)) == text

    def test_execute_insert_reports_counters(self):
        engine = QueryEREngine()
        engine.register(Table("T", Schema.of("id", "name"), [("a", "alpha")]))
        result = engine.execute("INSERT INTO T (id, name) VALUES ('b', 'beta')")
        assert result.columns == ["rows_inserted", "touched_blocks", "invalidated_entities"]
        assert result.rows[0][0] == 1
        assert len(engine.catalog.get("T")) == 2

    def test_insert_missing_columns_become_null(self):
        engine = QueryEREngine()
        engine.register(Table("T", Schema.of("id", "name", "city"), [("a", "x", "rome")]))
        engine.execute("INSERT INTO T (city, id) VALUES ('oslo', 'b')")
        row = engine.catalog.get("T").by_id("b")
        assert row["city"] == "oslo" and row["name"] is None

    def test_insert_unknown_table_or_column_fails_cleanly(self):
        engine = QueryEREngine()
        engine.register(Table("T", Schema.of("id", "name"), [("a", "x")]))
        with pytest.raises(KeyError):
            engine.execute("INSERT INTO missing (id) VALUES ('b')")
        with pytest.raises(SchemaError):
            engine.execute("INSERT INTO T (nope) VALUES ('b')")
        with pytest.raises(SchemaError):
            engine.execute("INSERT INTO T (id, id) VALUES ('b', 'c')")
        assert len(engine.catalog.get("T")) == 1


class TestPlanRefresh:
    def test_plan_recomputed_after_insert(self):
        engine = QueryEREngine()
        table, _ = generate_people(60, seed=3)
        engine.register(table)
        sql = "SELECT DEDUP id, surname FROM PPL"
        before = engine.plan_for(sql)
        assert engine.plan_for(sql) is before
        assert "{rows=60}" in engine.explain(sql)
        engine.insert("PPL", [(9001, "zz", "yy")], columns=["id", "given_name", "surname"])
        after = engine.plan_for(sql)
        assert after is not before
        assert engine.plan_for(sql) is after
        assert "{rows=61}" in engine.explain(sql)

    def test_insert_replans_only_the_grown_table(self):
        """An insert into R retires R's plans and every join plan reading
        R; the plan of a statement reading L only stays."""
        engine = QueryEREngine()
        engine.register(Table("L", Schema.of("id", "ref"), [("l1", "k1"), ("l2", "k2")]))
        engine.register(Table("R", Schema.of("id", "key"), [("r1", "k1")]))
        left_sql = "SELECT DEDUP id, ref FROM L"  # a plan reading L only
        right_sql = "SELECT DEDUP id, key FROM R"
        join_sql = "SELECT DEDUP L.id, R.id FROM L JOIN R ON L.ref = R.key"
        left, right, join = (engine.plan_for(sql) for sql in (left_sql, right_sql, join_sql))
        assert engine.plan_cache.snapshot()["size"] == 3
        engine.insert("R", [("r2", "k2")])
        # The L-only plan survived (its key holds L's epoch only); R's
        # plan and the join plan did not.
        assert engine.plan_cache.snapshot()["size"] == 1
        hits = engine.plan_cache.stats["hits"]
        assert engine.plan_for(left_sql) is left
        assert engine.plan_cache.stats["hits"] == hits + 1
        assert engine.plan_for(right_sql) is not right
        assert engine.plan_for(join_sql) is not join
