"""The signature columns are table state: built at registration, amended by
``INSERT`` batches, cut back by a rollback, never grown by a query."""

from __future__ import annotations

import pytest
from reference.signature_oracle import column_state

from repro.core.engine import QueryEREngine
from repro.core.indices import TableIndex
from repro.datagen import generate_people
from repro.datagen.people import people_schema
from repro.er.blocking import TokenBlocking
from repro.incremental import IngestError
from repro.resilience import FaultPlan, clear_plan, install_plan
from repro.storage.table import Table


@pytest.fixture(autouse=True)
def _no_faults():
    clear_plan()
    yield
    clear_plan()


def people_rows(count=90, seed=31):
    table, _ = generate_people(count, seed=seed, name="PPL")
    return [tuple(row.values) for row in table]


def engine_over(rows):
    engine = QueryEREngine()
    engine.register(Table("PPL", people_schema(), rows))
    return engine


class TestColumnsAreTableState:
    def test_every_row_is_built_at_registration(self):
        rows = people_rows()
        index = engine_over(rows).index_of("PPL")
        assert len(index.signatures) == len(rows)
        assert index.signature_of(rows[7][0]).row == 7

    def test_inserts_and_a_rolled_back_batch_equal_a_fresh_registration(self):
        rows = people_rows(110)
        base, first, second, failed = rows[:80], rows[80:90], rows[90:100], rows[100:]
        engine = engine_over(base)
        engine.insert("PPL", first)
        engine.insert("PPL", second)
        install_plan(FaultPlan().add("dml.before_commit"))
        with pytest.raises(IngestError):
            engine.insert("PPL", failed)
        clear_plan()
        index = engine.index_of("PPL")
        fresh = engine_over(base + first + second).index_of("PPL")
        assert len(index.signatures) == len(fresh.signatures) == 100
        assert column_state(index) == column_state(fresh)

    def test_a_dedup_query_interns_nothing(self):
        engine = engine_over(people_rows())
        index = engine.index_of("PPL")
        before = (len(index.vocabulary), repr(index.signatures))
        engine.execute("SELECT DEDUP id, surname FROM PPL")
        engine.execute("SELECT DEDUP id, given_name FROM PPL WHERE state = 'nsw'")
        assert (len(index.vocabulary), repr(index.signatures)) == before

    def test_other_blocking_keys_leave_the_columns_a_private_vocabulary(self):
        """Keys that drop short numbers are not the matcher's tokens: the
        columns tokenize on their own, and the table vocabulary holds
        blocking keys only."""
        table = Table("PPL", people_schema(), people_rows(60))
        default = TableIndex(table)
        other = TableIndex(table, blocking=TokenBlocking(("id",), numeric_min_length=4))
        assert other.signatures.vocabulary is not other.vocabulary
        assert column_state(other) == column_state(default)
        keys = {
            key
            for _, attributes in other.entities.items()
            for key in other.blocking.keys_for(attributes)
        }
        assert set(other.vocabulary.tokens()) == keys
