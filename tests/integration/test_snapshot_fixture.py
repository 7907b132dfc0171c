"""A snapshot written before the postings became the only blocking index
still loads, and answers like a fresh engine over the same rows.

``tests/fixtures/people_v1_snapshot`` was written by the engine as it
stood when ``TableIndex`` still kept a dict TBI/ITBI beside its
postings: ``generate_people(108, seed=25)``, the first 100 rows
registered as ``PPL``, ``enable_checkpointing`` (the base segment) and
one ``INSERT INTO`` of the last 8 rows (the checkpointed delta segment),
no query in between.  Its token ids follow that engine's interning
order, not a fresh registration's.  Its manifest is format v1: it still
carries per-table ``statistics``, ``join_percentages`` and
``engine.invalidation_policy``, which the current reader ignores.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest
from reference.dict_pipeline import block_sets, postings_blocks, reference_tbi
from reference.signature_oracle import column_state

from repro.core.engine import QueryEREngine
from repro.datagen import generate_people
from repro.persist import read_manifest
from repro.persist.snapshot import FORMAT, READABLE_FORMATS

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "people_v1_snapshot"

QUERIES = (
    "SELECT DEDUP id, given_name, surname FROM PPL",
    "SELECT DEDUP id, surname, state FROM PPL WHERE state = 'nsw'",
    "SELECT DEDUP id, given_name FROM PPL WHERE surname LIKE '%an%'",
)


@pytest.fixture()
def loaded(tmp_path):
    directory = tmp_path / "snapshot"
    shutil.copytree(FIXTURE, directory)
    return QueryEREngine.load(directory)


def fresh_engine():
    table, _ = generate_people(108, seed=25)
    engine = QueryEREngine()
    engine.register(table)
    return engine


def test_fixture_has_the_v1_format():
    manifest = read_manifest(FIXTURE)
    assert manifest["format"] == "repro/persist/v1" != FORMAT
    assert manifest["format"] in READABLE_FORMATS
    assert manifest["join_percentages"] == []
    assert manifest["engine"]["invalidation_policy"] == "targeted"
    assert manifest["tables"]["ppl"]["statistics"] is None
    kinds = [segment["kind"] for segment in manifest["tables"]["ppl"]["segments"]]
    assert kinds == ["base", "delta"]


def test_loaded_postings_equal_the_rows_blocks(loaded):
    index = loaded.index_of("PPL")
    fresh = fresh_engine().index_of("PPL")
    assert [tuple(row.values) for row in index.table] == [
        tuple(row.values) for row in fresh.table
    ]
    assert postings_blocks(index) == postings_blocks(fresh)
    assert postings_blocks(index) == block_sets(reference_tbi(index))


def test_loaded_signature_columns_equal_a_fresh_engines(loaded):
    """The state file still lists lazily built signatures; the loader
    ignores that key and builds the columns whole."""
    state = next((FIXTURE / "tables" / "ppl").glob("state-*.json")).read_text()
    assert '"signatures"' in state
    index = loaded.index_of("PPL")
    assert len(index.signatures) == len(index.table)
    assert column_state(index) == column_state(fresh_engine().index_of("PPL"))


@pytest.mark.parametrize("sql", QUERIES)
def test_dedup_answers_equal_a_fresh_engine(loaded, sql):
    expected = fresh_engine().execute(sql)
    answer = loaded.execute(sql)
    assert answer.sorted_rows() == expected.sorted_rows()
    assert answer.comparisons == expected.comparisons


def test_inserts_after_load_answer_like_a_fresh_engine(loaded):
    table, _ = generate_people(20, seed=26)
    extra = [(1000 + row.id,) + tuple(row.values[1:]) for row in table]
    loaded.insert("PPL", extra)
    fresh = fresh_engine()
    fresh.insert("PPL", extra)
    for sql in QUERIES:
        answer, expected = loaded.execute(sql), fresh.execute(sql)
        assert answer.sorted_rows() == expected.sorted_rows()
        assert answer.comparisons == expected.comparisons


@pytest.mark.parametrize("sql", QUERIES)
def test_explain_equals_a_fresh_engines(loaded, sql):
    assert loaded.explain(sql) == fresh_engine().explain(sql)


def test_checkpointing_rewrites_the_manifest_as_current(tmp_path):
    """The first checkpoint over the v1 snapshot writes a current-format
    manifest without the keys v2 dropped, and it loads like the engine."""
    directory = tmp_path / "snapshot"
    shutil.copytree(FIXTURE, directory)
    engine = QueryEREngine.load(directory)
    manager = engine.enable_checkpointing(directory)
    assert manager.checkpoints_written == 0  # the v1 snapshot matches
    table, _ = generate_people(3, seed=27)
    engine.insert("PPL", [(2000 + row.id,) + tuple(row.values[1:]) for row in table])
    manifest = read_manifest(directory)
    assert manifest["format"] == FORMAT
    assert "join_percentages" not in manifest
    assert "invalidation_policy" not in manifest["engine"]
    assert "statistics" not in manifest["tables"]["ppl"]
    assert [s["kind"] for s in manifest["tables"]["ppl"]["segments"]] == [
        "base",
        "delta",
        "delta",
    ]
    warm = QueryEREngine.load(directory)
    for sql in QUERIES:
        assert warm.execute(sql).sorted_rows() == engine.execute(sql).sorted_rows()
