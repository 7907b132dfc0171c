"""Transactional DML: a failed INSERT leaves no trace (repro.incremental).

Faults are injected at each stage of the ingest pipeline — per-row
storage staging (``table.append_row``), index amendment
(``dml.after_append``, ``dml.index_delta``) and pre-epoch commit
(``dml.before_commit``) — and every test asserts the engine's observable
state (rows, postings arrays, vocabulary, epoch, signature columns) equals
the pre-insert snapshot, exactly as if the INSERT had never been issued
— except that tokens the failed batch interned stay in the vocabulary,
with empty postings.
"""

from __future__ import annotations

import numpy as np
import pytest
from reference.signature_oracle import column_state

from repro.core.engine import QueryEREngine
from repro.core.indices import TableIndex
from repro.datagen import generate_people
from repro.datagen.people import people_schema
from repro.incremental import IngestError
from repro.resilience import DEGRADATION, FaultError, FaultPlan, clear_plan, install_plan
from repro.storage.table import Table


@pytest.fixture(autouse=True)
def _isolated():
    clear_plan()
    DEGRADATION.clear()
    yield
    clear_plan()
    DEGRADATION.clear()


@pytest.fixture()
def people_split():
    """120 base rows + 6 insert-batch rows of one dirty people table."""
    table, _ = generate_people(126, seed=29, name="PPL")
    rows = [tuple(row.values) for row in table]
    return rows[:120], rows[120:]


def fresh_engine(rows) -> QueryEREngine:
    engine = QueryEREngine()
    engine.register(Table("PPL", people_schema(), rows))
    return engine


def index_state(index: TableIndex) -> dict:
    """The postings arrays, vocabulary and signature columns of one index."""
    postings = index.postings
    csr = postings.to_arrays()
    tokens = np.arange(len(index.vocabulary), dtype=np.int64)
    used = tokens[postings.sizes_of(tokens) > 0]
    indptr, members = postings.members_of(used)
    return {
        "forward": (
            tuple(csr["entity_ids"]),
            tuple(csr["indptr"].tolist()),
            tuple(csr["tokens"].tolist()),
        ),
        "inverted": (tuple(used.tolist()), tuple(indptr.tolist()), tuple(members.tolist())),
        "vocabulary": tuple(index.vocabulary.tokens()),
        "signatures": (len(index.signatures), column_state(index)),
    }


def state_of(engine: QueryEREngine, name: str = "PPL") -> dict:
    """Every piece of observable per-table state a rollback must restore."""
    index = engine.index_of(name)
    return {
        "rows": [tuple(row.values) for row in index.table],
        "epoch": engine.epoch_of(name),
        **index_state(index),
    }


def assert_restored(after: dict, before: dict) -> None:
    """*after* equals *before*, except that interning is append-only.

    Tokens a rolled-back batch interned stay in the vocabulary, after
    every token the snapshot held, with empty postings.
    """
    vocabulary = before["vocabulary"]
    assert after["vocabulary"][: len(vocabulary)] == vocabulary
    assert {**after, "vocabulary": vocabulary} == before


SQL = "SELECT DEDUP id, surname FROM PPL WHERE state = 'nsw'"


def answer(engine: QueryEREngine):
    return sorted(map(tuple, engine.execute(SQL).rows), key=repr)


class TestRollbackRestoresState:
    @pytest.mark.parametrize(
        "site,stage",
        [
            ("dml.after_append", "index amendment"),
            ("dml.index_delta", "index amendment"),
            ("dml.before_commit", "commit"),
        ],
    )
    def test_mid_ingest_fault_rolls_back_to_snapshot(self, people_split, site, stage):
        base, extra = people_split
        engine = fresh_engine(base)
        before = state_of(engine)
        install_plan(FaultPlan().add(site))
        with pytest.raises(IngestError) as excinfo:
            engine.insert("PPL", extra)
        assert excinfo.value.stage == stage
        assert excinfo.value.rolled_back
        assert isinstance(excinfo.value.__cause__, FaultError)
        assert_restored(state_of(engine), before)
        assert any(e.site == "rollback" for e in DEGRADATION.events())

    def test_mid_batch_index_fault_undoes_partial_amendment(self, people_split):
        # Fire on the *third* entity of the batch: two records were fully
        # amended into TBI/ITBI before the crash and must be backed out.
        base, extra = people_split
        engine = fresh_engine(base)
        before = state_of(engine)
        install_plan(FaultPlan().add("dml.index_delta", after=2))
        with pytest.raises(IngestError):
            engine.insert("PPL", extra)
        assert_restored(state_of(engine), before)

    def test_storage_staging_fault_mutates_nothing(self, people_split):
        # table.append_row fires inside Table.append_rows' staging loop,
        # which is atomic on its own: the fault surfaces raw (no partial
        # append exists to roll back or wrap).
        base, extra = people_split
        engine = fresh_engine(base)
        before = state_of(engine)
        install_plan(FaultPlan().add("table.append_row", after=3))
        with pytest.raises(FaultError):
            engine.insert("PPL", extra)
        assert state_of(engine) == before

    def test_rollback_truncates_postings(self, people_split):
        base, extra = people_split
        engine = fresh_engine(base)
        index = engine.index_of("PPL")
        install_plan(FaultPlan().add("dml.before_commit"))
        with pytest.raises(IngestError):
            engine.insert("PPL", extra)
        assert index.postings.entity_count == len(base)
        assert index.to_arrays()["itbi_indptr"].shape == (len(base) + 1,)

    def test_sql_insert_path_rolls_back_too(self, people_split):
        base, _ = people_split
        engine = fresh_engine(base)
        before = state_of(engine)
        install_plan(FaultPlan().add("dml.before_commit"))
        with pytest.raises(IngestError):
            engine.execute(
                "INSERT INTO PPL (id, given_name) VALUES (999999, 'ghost')"
            )
        assert_restored(state_of(engine), before)


class TestRollbackEquivalence:
    def test_rolled_back_engine_answers_like_never_inserted(self, people_split):
        base, extra = people_split
        faulted = fresh_engine(base)
        install_plan(FaultPlan().add("dml.before_commit"))
        with pytest.raises(IngestError):
            faulted.insert("PPL", extra)
        clear_plan()
        assert answer(faulted) == answer(fresh_engine(base))

    def test_retry_after_rollback_equals_grown_fresh_engine(self, people_split):
        base, extra = people_split
        faulted = fresh_engine(base)
        install_plan(FaultPlan().add("dml.index_delta"))
        with pytest.raises(IngestError):
            faulted.insert("PPL", extra)
        clear_plan()
        result = faulted.insert("PPL", extra)  # the client's retry
        assert result.inserted == len(extra)
        assert faulted.epoch_of("PPL") == 2  # register + one committed batch
        assert answer(faulted) == answer(fresh_engine(base + extra))

    @pytest.mark.parametrize(
        "fault", [("dml.index_delta", 2), ("dml.before_commit", 0)]
    )
    def test_retry_arrays_equal_never_failed_engine(self, people_split, fault):
        """Rollback + re-insert leaves the very arrays, token ids included,
        of an engine whose insert never failed."""
        base, extra = people_split
        site, after = fault
        faulted = fresh_engine(base)
        install_plan(FaultPlan().add(site, after=after))
        with pytest.raises(IngestError):
            faulted.insert("PPL", extra)
        clear_plan()
        faulted.insert("PPL", extra)
        never_failed = fresh_engine(base)
        never_failed.insert("PPL", extra)
        assert state_of(faulted) == state_of(never_failed)


class TestIndexDeltaAtomicity:
    def test_add_records_failure_leaves_index_untouched(self, people_split):
        base, extra = people_split
        table = Table("PPL", people_schema(), base)
        index = TableIndex(table)
        before = index_state(index)
        appended = table.append_rows(extra)
        install_plan(FaultPlan().add("dml.index_delta", after=2))
        with pytest.raises(FaultError):
            index.add_records([row.id for row in appended])
        assert_restored(index_state(index), before)

    def test_remove_records_reverses_add_records(self, people_split):
        base, extra = people_split
        table = Table("PPL", people_schema(), base)
        index = TableIndex(table)
        before = index_state(index)
        appended = table.append_rows(extra)
        delta = index.add_records([row.id for row in appended])
        assert delta.affected_ids  # the batch really amended something
        index.remove_records(delta)
        assert_restored(index_state(index), before)

    def test_remove_records_rejects_a_delta_that_is_not_the_tail(self, people_split):
        base, extra = people_split
        table = Table("PPL", people_schema(), base)
        index = TableIndex(table)
        first = index.add_records([row.id for row in table.append_rows(extra[:3])])
        index.add_records([row.id for row in table.append_rows(extra[3:])])
        with pytest.raises(ValueError):
            index.remove_records(first)
