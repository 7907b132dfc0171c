"""Batched cascade ≡ scalar cascade, decisions and counters alike.

``ProfileMatcher.match_pair_indices`` decides most candidate pairs
array-at-a-time; ``ProfileMatcher.match_signatures`` is the single-pair
form of the same cascade and the reference here.  For every dataset,
threshold and execution mode the batched entry point must return the
positions a scalar loop returns **and** leave every ``cascade_stats``
counter at the value the loop leaves — serial, through the fork pool and
through resident shards (``REPRO_SHARDS=1``).
"""

from __future__ import annotations

import random
import unicodedata
from itertools import combinations

import pytest

from repro import QueryEREngine
from repro.core.indices import TableIndex
from repro.datagen import generate_oagp, generate_organizations, generate_people
from repro.datagen.corruptor import Corruptor
from repro.er.matching import ProfileMatcher
from repro.parallel import ExecutionConfig, ParallelComparisonExecutor
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
    matcher = ProfileMatcher(exclude=(index.table.schema.id_column,), threshold=threshold)
    matched = [
        position
        for position, (left, right) in enumerate(pairs)
        if matcher.match_signatures(index.signature_of(left), index.signature_of(right))
    ]
    return matched, matcher.cascade_stats


def assert_batch_equals_scalar(index, pairs, threshold, run=None):
    """*run(matcher)* → matched positions; default: the batched entry point."""
    expected, expected_stats = scalar_reference(index, pairs, threshold)
    matcher = ProfileMatcher(exclude=(index.table.schema.id_column,), threshold=threshold)
    if run is None:
        matched = matcher.match_pair_indices(pairs, index.signatures)
    else:
        matched = run(matcher)
    assert matched == expected
    assert matcher.cascade_stats == expected_stats


@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("dataset", sorted(DATASETS))
class TestSerial:
    def test_all_pairs(self, dataset, threshold):
        table = DATASETS[dataset]()
        assert_batch_equals_scalar(TableIndex(table), all_pairs(table), threshold)

    def test_spans_and_tiny_lists(self, dataset, threshold):
        table = DATASETS[dataset]()
        index = TableIndex(table)
        pairs = all_pairs(table)
        matcher = ProfileMatcher(exclude=(table.schema.id_column,), threshold=threshold)
        expected, _ = scalar_reference(index, pairs, threshold)
        assert matcher.match_pair_indices([], index.signatures) == []
        assert matcher.match_pair_indices(pairs, index.signatures, 7, 7) == []
        for start, stop in ((0, 1), (3, 4), (5, 40), (len(pairs) - 1, len(pairs))):
            assert matcher.match_pair_indices(pairs, index.signatures, start, stop) == [
                position for position in expected if start <= position < stop
            ]

    def test_slices_and_chunks_change_nothing(self, dataset, threshold, monkeypatch):
        """Chunk boundaries are an implementation detail of the screen."""
        from repro.er import matching

        monkeypatch.setattr(matching, "_SCREEN_CHUNK", 50)
        monkeypatch.setattr(matching, "_SCREEN_ROWS", 7)
        table = DATASETS[dataset]()
        assert_batch_equals_scalar(TableIndex(table), all_pairs(table), threshold)


@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("dataset", sorted(DATASETS))
class TestWorkers:
    """workers=2 with the dispatch threshold at the floor: any undecided
    remainder is shipped — over the fork pool, then over resident shards."""

    def test_pool(self, dataset, threshold):
        table = DATASETS[dataset]()
        index = TableIndex(table)
        pairs = all_pairs(table)
        executor = ParallelComparisonExecutor(
            ExecutionConfig(workers=2, backend="process", min_parallel_pairs=1)
        )
        assert_batch_equals_scalar(
            index, pairs, threshold, lambda matcher: executor.match_pairs(index, matcher, pairs)
        )
        runs = executor.stats["parallel_match_runs"] + executor.stats["serial_match_runs"]
        assert runs == 1

    def test_shards(self, dataset, threshold, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "1")
        table = DATASETS[dataset]()
        pairs = all_pairs(table)
        with QueryEREngine(
            match_threshold=threshold,
            sample_stats=False,
            execution=ExecutionConfig(workers=2, backend="process", min_parallel_pairs=1),
        ) as engine:
            engine.register(table)
            index = engine.index_of(table.name)
            executor = engine.parallel_executor
            assert executor.shard_runtime is not None
            matcher = engine.matcher_for(index)
            expected, expected_stats = scalar_reference(index, pairs, threshold)
            matcher.reset_cascade_stats()
            assert executor.match_pairs(index, matcher, pairs) == expected
            assert matcher.cascade_stats == expected_stats
            if expected_stats["exact_fallbacks"]:
                assert executor.stats["shard_match_runs"] == 1


class TestMixedSignatures:
    def test_foreign_exclusions_and_layouts_take_the_scalar_cascade(self):
        """Signatures the batch cannot stack still decide identically."""
        from repro.er.matching import build_signature
        from repro.er.tokenizer import TokenVocabulary

        vocabulary = TokenVocabulary()
        own = frozenset({"id"})
        profiles = {
            "a": build_signature("a", {"name": "john smith", "city": "perth"}, vocabulary, own),
            "b": build_signature("b", {"name": "jon smith", "city": "perth"}, vocabulary, own),
            # another attribute order, and another exclusion set
            "c": build_signature("c", {"city": "perth", "name": "john smith"}, vocabulary, own),
            "d": build_signature("d", {"name": "john smith", "city": "perth"}, vocabulary),
        }
        pairs = list(combinations(sorted(profiles), 2))
        reference = ProfileMatcher(exclude=("id",))
        expected = [
            position
            for position, (left, right) in enumerate(pairs)
            if reference.match_signatures(profiles[left], profiles[right])
        ]
        matcher = ProfileMatcher(exclude=("id",))
        assert matcher.match_pair_indices(pairs, profiles) == expected
        assert matcher.cascade_stats == reference.cascade_stats
        assert matcher.cascade_stats["incompatible"] == 3  # every pair with "d"


class TestEngineLifecycle:
    SQL = "SELECT DEDUP id, street, city FROM GR"

    def test_character_first_seen_in_an_insert(self):
        """The count columns have no alphabet to outgrow."""
        with QueryEREngine(execution=1, sample_stats=False) as engine:
            engine.register(greek())
            index = engine.index_of("GR")
            # Every original row's signature exists before the new characters arrive.
            assert_batch_equals_scalar(index, all_pairs(index.table), 0.75)
            engine.execute(
                "INSERT INTO GR (id, street, city) VALUES "
                "(901, 'улица ленина ѣ', 'ψυχικό'), (902, 'улица ленина', 'ψυχικο'), "
                "(903, 'οδός αθηνάς 12 ☃', 'θεσσαλονίκη')"
            )
            assert index.signature_count == len(index.table)  # old and new rows mix
            assert_batch_equals_scalar(index, all_pairs(index.table), 0.75)
            clusters = engine.execute(self.SQL).column("id")
            assert any("903" in str(cluster).split(" | ") for cluster in clusters)

    def test_signatures_rebuilt_after_load(self, tmp_path):
        with QueryEREngine(execution=1, sample_stats=False) as engine:
            engine.register(people())
            engine.execute("SELECT DEDUP id, surname FROM PPL")
            live = engine.index_of("PPL")
            pairs = all_pairs(live.table)
            expected, expected_stats = scalar_reference(live, pairs, 0.75)
            engine.save(tmp_path / "snapshot")
        with QueryEREngine.load(tmp_path / "snapshot") as loaded:
            index = loaded.index_of("PPL")
            assert index.signature_count > 0  # rebuilt against the restored vocabulary
            matcher = ProfileMatcher(exclude=("id",))
            assert matcher.match_pair_indices(pairs, index.signatures) == expected
            assert matcher.cascade_stats == expected_stats
