"""Unit tests for the batch baseline (the Batch Approach)."""

from repro.core.batch import batch_deduplicate
from repro.core.indices import TableIndex
from repro.er.meta_blocking import MetaBlockingConfig
from repro.sql.physical import ExecutionContext
from repro.storage.schema import Schema
from repro.storage.table import Table


def dirty_table():
    return Table(
        "T",
        Schema.of("id", "name", "city"),
        [
            ("r1", "jonathan smith", "berlin"),
            ("r2", "jonathan smyth", "berlin"),
            ("r3", "maria garcia", "athens"),
            ("r4", "ulrich zimmer", "oslo"),
        ],
    )


class TestBatchDeduplicate:
    def test_finds_all_duplicates(self):
        result = batch_deduplicate(
            TableIndex(dirty_table()), meta_blocking=MetaBlockingConfig.none()
        )
        assert ("r1", "r2") in result.links
        assert result.query_ids == set(dirty_table().ids)

    def test_counts_comparisons(self):
        context = ExecutionContext()
        batch_deduplicate(
            TableIndex(dirty_table()),
            meta_blocking=MetaBlockingConfig.none(),
            context=context,
        )
        assert context.comparisons > 0

    def test_stage_times_recorded(self):
        context = ExecutionContext()
        batch_deduplicate(TableIndex(dirty_table()), context=context)
        assert "resolution" in context.stage_times
