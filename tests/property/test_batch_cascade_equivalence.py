"""Batched cascade ≡ scalar cascade, decisions and counters alike.

``ProfileMatcher.match_pair_indices`` decides most candidate pairs
array-at-a-time; the oracle's ``ReferenceMatcher.match_signatures``
(``tests/reference/signature_oracle.py``) is the single-pair form of
the same cascade and the reference here.  For every dataset,
threshold and execution mode the batched entry point must return the
positions a scalar loop returns **and** leave every ``cascade_stats``
counter at the value the loop leaves.
"""

from __future__ import annotations

import random
import unicodedata
from itertools import combinations

import pytest
from reference.signature_oracle import ReferenceMatcher, column_state, match_loop

from repro import QueryEREngine
from repro.core.indices import TableIndex
from repro.datagen import generate_oagp, generate_organizations, generate_people
from repro.datagen.corruptor import Corruptor
from repro.er.matching import ProfileMatcher
from repro.storage.schema import Schema
from repro.storage.table import Table

THRESHOLDS = (0.0, 0.75, 1.0)


def people():
    return generate_people(70, seed=5)[0]


def papers():
    return generate_oagp(45, seed=9)[0]


def organisations():
    return generate_organizations(50, seed=3)[0]


def edge_cases():
    """Every degenerate profile shape the cascade special-cases."""
    return Table(
        "EDGE",
        Schema.of("id", "name", "city", "note"),
        [
            (1, None, None, None),  # all-null
            (2, None, None, None),
            (3, "", "", ""),  # empty strings: comparable, token-less
            (4, "", "melbourne", None),
            (5, "!!", "??", "-"),  # values without a single token
            (6, "x", "y", "z"),  # tokens too short to count
            (7, "john smith", None, None),  # shares no attribute with 8
            (8, None, "melbourne", None),
            (9, "john smith", "melbourne", "regular customer"),
            (10, "john smith", "melbourne", "regular customer"),  # identical to 9
            (11, "jon smith", "melbourne", "regular custmer"),
            (12, "smith john", "sydney", None),
            (13, 42, 4.5, True),  # non-strings
            (14, "42", "4.5", "true"),
        ],
    )


def greek():
    """Modern-Greek values and their encoding-level spelling variants.

    The tokenizer keeps ``[0-9a-z]`` only, so these profiles are
    token-less: everything rides on the character-count columns, which
    must count code points exactly as ``str`` does — combining marks,
    final sigma and all.
    """
    base = [
        ("οδός αθηνάς 12", "θεσσαλονίκη"),
        ("λεωφόρος κηφισίας", "αθήνα"),
        ("πλατεία συντάγματος", "αθήνα"),
        ("οδός ερμού", "πάτρα"),
        ("ΟΔΟΣ ΣΤΑΔΙΟΥ", "ΑΘΗΝΑ"),
        ("naïve café", "zürich"),
    ]
    corruptor = Corruptor(random.Random(11))
    rows = []
    for street, city in base:
        rows.append((len(rows) + 1, street, city))
        rows.append((len(rows) + 1, unicodedata.normalize("NFD", street), city))
        for _ in range(3):
            rows.append(
                (len(rows) + 1, corruptor.unicode_variant(street), corruptor.unicode_variant(city))
            )
    return Table("GR", Schema.of("id", "street", "city"), rows)


DATASETS = {
    "people": people,
    "papers": papers,
    "organisations": organisations,
    "edge_cases": edge_cases,
    "greek": greek,
}


def all_pairs(table):
    return list(combinations([row.id for row in table], 2))


def scalar_reference(index, pairs, threshold):
    """Matched positions and counters of the scalar loop, fresh matcher."""
    matcher = ReferenceMatcher(exclude=(index.table.schema.id_column,), threshold=threshold)
    return match_loop(matcher, pairs, index.signatures), matcher.cascade_stats


def assert_batch_equals_scalar(index, pairs, threshold):
    """The batched entry point's positions and counters equal the scalar loop's."""
    expected, expected_stats = scalar_reference(index, pairs, threshold)
    matcher = ProfileMatcher(exclude=(index.table.schema.id_column,), threshold=threshold)
    matched = matcher.match_pair_indices(pairs, index.signatures)
    assert matched == expected
    assert matcher.cascade_stats == expected_stats


@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("dataset", sorted(DATASETS))
class TestSerial:
    def test_all_pairs(self, dataset, threshold):
        table = DATASETS[dataset]()
        assert_batch_equals_scalar(TableIndex(table), all_pairs(table), threshold)

    def test_sub_lists_and_tiny_lists(self, dataset, threshold):
        table = DATASETS[dataset]()
        index = TableIndex(table)
        pairs = all_pairs(table)
        matcher = ProfileMatcher(exclude=(table.schema.id_column,), threshold=threshold)
        expected, _ = scalar_reference(index, pairs, threshold)
        assert matcher.match_pair_indices([], index.signatures) == []
        for start, stop in ((0, 1), (3, 4), (5, 40), (len(pairs) - 1, len(pairs))):
            assert matcher.match_pair_indices(pairs[start:stop], index.signatures) == [
                position - start for position in expected if start <= position < stop
            ]

    def test_warm_pair_memo_changes_nothing(self, dataset, threshold):
        """Stage 3's memo only saves work: a matcher that already scored
        every pair (both orientations memoized) decides as a fresh one."""
        table = DATASETS[dataset]()
        index = TableIndex(table)
        pairs = all_pairs(table)
        matcher = ProfileMatcher(exclude=(table.schema.id_column,), threshold=threshold)
        cold = matcher.match_pair_indices(pairs, index.signatures)
        cold_stats = dict(matcher.cascade_stats)
        memo = matcher._pair_cache.stats
        misses = memo["misses"]
        matcher.reset_cascade_stats()
        flipped = [(right, left) for left, right in pairs]
        assert matcher.match_pair_indices(flipped, index.signatures) == cold
        assert matcher.cascade_stats == cold_stats
        assert memo["misses"] == misses  # every stage-3 score came from the memo

    def test_slices_and_chunks_change_nothing(self, dataset, threshold, monkeypatch):
        """Chunk boundaries are an implementation detail of the screen."""
        from repro.er import matching

        monkeypatch.setattr(matching, "_SCREEN_CHUNK", 50)
        monkeypatch.setattr(matching, "_SCREEN_ROWS", 7)
        table = DATASETS[dataset]()
        assert_batch_equals_scalar(TableIndex(table), all_pairs(table), threshold)


@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("dataset", sorted(DATASETS))
class TestEngineColumns:
    """The engine's own matcher over the engine's own signature columns:
    as registered, as amended row by row by ``INSERT``, and as rebuilt
    whole when a snapshot loads."""

    def test_registered(self, dataset, threshold):
        table = DATASETS[dataset]()
        pairs = all_pairs(table)
        with QueryEREngine(match_threshold=threshold) as engine:
            engine.register(table)
            index = engine.index_of(table.name)
            expected, expected_stats = scalar_reference(index, pairs, threshold)
            matcher = engine.matcher_for(index)
            matcher.reset_cascade_stats()
            assert matcher.match_pair_indices(pairs, index.signatures) == expected
            assert matcher.cascade_stats == expected_stats

    def test_amended_by_insert(self, dataset, threshold):
        table = DATASETS[dataset]()
        rows = [row.values for row in table]
        base = len(rows) * 2 // 3
        with QueryEREngine(match_threshold=threshold) as engine:
            engine.register(Table(table.name, table.schema, rows[:base]))
            index = engine.index_of(table.name)
            engine.insert(table.name, rows[base:])
            assert len(index.signatures) == len(rows)
            assert column_state(index) == column_state(TableIndex(table))
            assert_batch_equals_scalar(index, all_pairs(index.table), threshold)

    def test_rebuilt_at_load(self, dataset, threshold, tmp_path):
        table = DATASETS[dataset]()
        with QueryEREngine(match_threshold=threshold) as engine:
            engine.register(table)
            live = engine.index_of(table.name)
            engine.save(tmp_path / "snapshot")
        with QueryEREngine.load(tmp_path / "snapshot") as loaded:
            index = loaded.index_of(table.name)
            assert column_state(index) == column_state(live)
            assert loaded.matcher_for(index).threshold == threshold
            assert_batch_equals_scalar(index, all_pairs(table), threshold)


@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_mapping_view_of_rows_equals_the_columns(dataset, threshold):
    """A mapping from ids to the table's rows (``signature_of``) decides
    exactly as the columns themselves do."""

    class Rows:
        def __init__(self, index):
            self._signature_of = index.signature_of

        def __getitem__(self, entity_id):
            return self._signature_of(entity_id)

    table = DATASETS[dataset]()
    index = TableIndex(table)
    pairs = all_pairs(table)
    over_columns = ProfileMatcher(exclude=(table.schema.id_column,), threshold=threshold)
    over_rows = ProfileMatcher(exclude=(table.schema.id_column,), threshold=threshold)
    expected = over_columns.match_pair_indices(pairs, index.signatures)
    assert over_rows.match_pair_indices(pairs, Rows(index)) == expected
    assert over_rows.cascade_stats == over_columns.cascade_stats


class TestEngineLifecycle:
    SQL = "SELECT DEDUP id, street, city FROM GR"

    def test_character_first_seen_in_an_insert(self):
        """The element bitsets have no alphabet to outgrow."""
        with QueryEREngine() as engine:
            engine.register(greek())
            index = engine.index_of("GR")
            # Every original row's signature exists before the new characters arrive.
            assert_batch_equals_scalar(index, all_pairs(index.table), 0.75)
            engine.execute(
                "INSERT INTO GR (id, street, city) VALUES "
                "(901, 'улица ленина ѣ', 'ψυχικό'), (902, 'улица ленина', 'ψυχικο'), "
                "(903, 'οδός αθηνάς 12 ☃', 'θεσσαλονίκη')"
            )
            assert len(index.signatures) == len(index.table)  # old and new rows mix
            assert_batch_equals_scalar(index, all_pairs(index.table), 0.75)
            clusters = engine.execute(self.SQL).column("id")
            assert any("903" in str(cluster).split(" | ") for cluster in clusters)

    def test_columns_rebuilt_after_load(self, tmp_path):
        with QueryEREngine() as engine:
            engine.register(people())
            engine.execute("SELECT DEDUP id, surname FROM PPL")
            live = engine.index_of("PPL")
            pairs = all_pairs(live.table)
            expected, expected_stats = scalar_reference(live, pairs, 0.75)
            engine.save(tmp_path / "snapshot")
        with QueryEREngine.load(tmp_path / "snapshot") as loaded:
            index = loaded.index_of("PPL")
            assert column_state(index) == column_state(live)  # rebuilt whole at load
            matcher = ProfileMatcher(exclude=("id",))
            assert matcher.match_pair_indices(pairs, index.signatures) == expected
            assert matcher.cascade_stats == expected_stats
