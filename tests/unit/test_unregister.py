"""Dropping a table purges every engine artefact derived from it.

Regression suite for the stale-state bug: ``Catalog.unregister`` used to
remove only the catalog entry, leaving the TBI/ITBI bundle, matcher,
cached plans and epoch entry behind — a
re-registered table under the same name could then serve another
table's blocking index or alias its epoch-keyed caches.
"""

from __future__ import annotations

import pytest

from repro.core.engine import QueryEREngine
from repro.datagen import generate_people
from repro.datagen.people import people_schema
from repro.storage.catalog import TableNotFoundError
from repro.storage.table import Table


def people_rows(size: int, seed: int):
    table, _ = generate_people(size, seed=seed, name="PPL")
    return [tuple(row.values) for row in table]


@pytest.fixture()
def engine() -> QueryEREngine:
    e = QueryEREngine()
    e.register(Table("PPL", people_schema(), people_rows(80, seed=5)))
    return e


class TestUnregister:
    def test_removes_catalog_entry(self, engine):
        assert engine.unregister("PPL") is True
        assert "ppl" not in engine.catalog
        with pytest.raises(TableNotFoundError):
            engine.execute("SELECT id FROM PPL")

    def test_unknown_table_is_a_noop(self, engine):
        assert engine.unregister("nope") is False
        assert engine.epoch_of("PPL") == 1  # untouched

    def test_purges_index_and_matcher(self, engine):
        engine.unregister("PPL")
        assert "ppl" not in engine._indices
        assert "ppl" not in engine._matchers
        with pytest.raises(KeyError):
            engine.index_of("PPL")

    def test_purges_plans(self, engine):
        sql = "SELECT DEDUP id, surname FROM PPL WHERE state = 'nsw'"
        before = engine.plan_for(sql)  # populate the cache
        assert len(engine.plan_cache) == 1
        engine.unregister("PPL")
        assert len(engine.plan_cache) == 0
        with pytest.raises(KeyError):
            engine.plan_for(sql)
        engine.register(Table("PPL", people_schema(), people_rows(30, seed=4)))
        after = engine.plan_for(sql)
        assert after is not before
        assert after.infos[0].index is engine.index_of("PPL")
        assert len(after.infos[0].index.table) == 30

    def test_purges_join_plans(self, engine):
        engine.register(Table("OTHER", people_schema(), people_rows(40, seed=9)))
        sql = "SELECT DEDUP PPL.id, OTHER.id FROM PPL JOIN OTHER ON PPL.surname = OTHER.surname"
        flipped = "SELECT DEDUP OTHER.id, PPL.id FROM OTHER JOIN PPL ON OTHER.surname = PPL.surname"
        before = engine.plan_for(sql)
        engine.plan_for(flipped)
        assert len(engine.plan_cache) == 2
        engine.unregister("PPL")
        assert len(engine.plan_cache) == 0
        with pytest.raises(KeyError):
            engine.plan_for(sql)
        other = engine.catalog.get("OTHER")
        engine.register(Table("PPL", people_schema(), [tuple(r.values) for r in other]))
        after = engine.plan_for(sql)
        assert after is not before
        assert [info.index for info in after.infos] == [
            engine.index_of("PPL"),
            engine.index_of("OTHER"),
        ]

    def test_epoch_entry_removed_but_retired(self, engine):
        engine.insert("PPL", [people_rows(81, seed=5)[-1]])
        retired = engine.epoch_of("PPL")
        assert retired == 2
        engine.unregister("PPL")
        assert "ppl" not in engine.table_epochs()
        # Re-registration must open a strictly larger epoch: epoch-keyed
        # caches (cached plans, served results) would otherwise alias
        # artefacts of the dead table.
        engine.register(Table("PPL", people_schema(), people_rows(10, seed=6)))
        assert engine.epoch_of("PPL") > retired

    def test_reregistered_table_serves_its_own_rows(self, engine):
        engine.unregister("PPL")
        replacement = people_rows(12, seed=77)
        engine.register(Table("PPL", people_schema(), replacement))
        result = engine.execute("SELECT id FROM PPL")
        assert sorted(row[0] for row in result.rows) == sorted(
            row[0] for row in replacement
        )
        # The blocking index belongs to the replacement, not the old table.
        assert len(engine.index_of("PPL").table) == len(replacement)
