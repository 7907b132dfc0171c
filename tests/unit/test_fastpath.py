"""Unit tests for the Comparison-Execution fast path.

Covers the shared ER utilities (LRU cache, canonical ordering), token
interning, the signature columns and their popcount kernels, the
similarity bounds and the matcher's short-circuit cascade.
"""

import sys
import threading
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from reference.signature_oracle import (
    ReferenceMatcher,
    jaccard,
    jaccard_sorted_ids,
    jaro_winkler,
    jaro_winkler_bound,
    jaro_winkler_char_bound,
    profile_of,
)

from repro.core.indices import TableIndex
from repro.er.matching import ProfileMatcher, SignatureColumns, _ChunkBitsets
from repro.er.similarity import jaro, jaro_fast
from repro.er.tokenizer import TokenVocabulary
from repro.er.util import LRUCache, ordered_pair, safe_sorted
from repro.storage.schema import Schema
from repro.storage.table import Table


class TestLRUCache:
    def test_put_get_roundtrip(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache["b"] = 2
        assert cache.get("a") == 1
        assert cache.get("b") == 2
        assert cache.get("missing", "fallback") == "fallback"

    def test_capacity_is_enforced(self):
        cache = LRUCache(3)
        for i in range(50):
            cache.put(i, i)
        assert len(cache) == 3

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a → b is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache

    def test_overwrite_does_not_evict(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert cache.get("a") == 10
        assert cache.get("b") == 2

    def test_zero_capacity_caches_nothing(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_clear(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_stats_count_hits_misses_evictions_and_drops(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        cache.put("b", 2)
        cache.put("c", 3)
        cache.clear()
        assert cache.stats == {"hits": 1, "misses": 1, "evictions": 1, "invalidations": 2}


class TestLRUCacheThreadSafety:
    def test_concurrent_hammer_preserves_capacity_invariant(self):
        cache = LRUCache(64)
        errors = []

        def hammer(seed: int) -> None:
            try:
                for i in range(3000):
                    key = (seed * 31 + i) % 200
                    cache.put(key, i)
                    cache.get(key)
                    assert len(cache) <= 64
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert len(cache) <= 64
        # No counter update is lost: every get is a hit or a miss.
        assert cache.stats["hits"] + cache.stats["misses"] == 8 * 3000


class TestSharedHelpers:
    def test_safe_sorted_homogeneous_and_mixed(self):
        assert safe_sorted([3, 1, 2]) == [1, 2, 3]
        assert safe_sorted(["b", 1]) == sorted(["b", 1], key=repr)

    def test_ordered_pair(self):
        assert ordered_pair(2, 1) == (1, 2)
        assert ordered_pair("a", "b") == ("a", "b")


class TestTokenVocabulary:
    def test_intern_is_idempotent(self):
        vocabulary = TokenVocabulary()
        first = vocabulary.intern("alpha")
        assert vocabulary.intern("alpha") == first
        assert len(vocabulary) == 1

    def test_roundtrip(self):
        vocabulary = TokenVocabulary()
        token_id = vocabulary.intern("beta")
        assert vocabulary.token_of(token_id) == "beta"
        assert vocabulary.id_of("beta") == token_id
        assert "beta" in vocabulary

    def test_intern_all_sorted_and_deduplicated(self):
        vocabulary = TokenVocabulary()
        ids = vocabulary.intern_all(["b", "a", "b", "c"])
        assert ids == tuple(sorted(ids))
        assert len(ids) == 3


class TestSimilarityBoundsAndFastJaro:
    sample_pairs = [
        ("martha", "marhta"),
        ("dixon", "dicksonx"),
        ("acme corporation", "acme corp"),
        ("", ""),
        ("", "abc"),
        ("abc", "abc"),
        ("completely", "different"),
        ("a" * 60 + "xyz", "a" * 60 + "zyx"),
    ]

    def test_jaccard_sorted_ids_matches_set_jaccard(self):
        cases = [([], []), ([1, 2, 3], []), ([1, 2], [2, 3]), ([5], [5]), ([1, 4, 9], [2, 4, 8, 9])]
        for a, b in cases:
            assert jaccard_sorted_ids(a, b) == jaccard(a, b)

    def test_length_bound_dominates_jaro_winkler(self):
        for a, b in self.sample_pairs:
            assert jaro_winkler(a, b) <= jaro_winkler_bound(a, b) + 1e-9

    def test_char_bound_dominates_jaro_winkler(self):
        from collections import Counter

        for a, b in self.sample_pairs:
            bound = jaro_winkler_char_bound(a, b, Counter(a), Counter(b))
            assert jaro_winkler(a, b) <= bound + 1e-9

    def test_char_bound_zero_when_no_common_characters(self):
        from collections import Counter

        assert jaro_winkler_char_bound("abc", "xyz", Counter("abc"), Counter("xyz")) == 0.0

    def test_jaro_fast_bit_identical(self):
        for a, b in self.sample_pairs:
            assert jaro_fast(a, b) == jaro(a, b)


class TestBatchKernelsBitEqualScalar:
    """The popcount kernels must reproduce the scalar floats, not approximate them."""

    values = [
        "martha", "marhta", "dixon", "dicksonx", "acme corporation", "acme corp",
        "", "a", "ab", "abc", "abcd", "abcde", "abcx", "completely", "different",
        "a" * 60 + "xyz", "a" * 60 + "zyx", "a" * 40000,
        "οδός αθηνάς", "οδος αθηνας", "οδο\u0301ς αθηνα\u0301ς", "ΟΔΟΣ".lower(), "οδοσ",
        "naïve café", "nai\u0308ve cafe\u0301", None,
    ]

    def index(self):
        rows = [
            (i, a, b) for i, (a, b) in enumerate(zip(self.values, reversed(self.values)))
        ]
        return TableIndex(Table("K", Schema.of("id", "first", "second"), rows))

    def kernels(self, index):
        rows = np.arange(len(index.table), dtype=np.int64)
        return _ChunkBitsets(index.signatures, rows)

    def test_per_attribute_bounds(self):
        index = self.index()
        kernels = self.kernels(index)
        rows = np.array(list(combinations(range(len(index.table)), 2)))
        bounds, comparable = kernels.attribute_bounds(rows[:, 0], rows[:, 1])
        for (i, j), pair_bounds, pair_comparable in zip(
            rows.tolist(), bounds.tolist(), comparable.tolist()
        ):
            left, right = (
                profile_of(index.signature_of(index.table[k].id)).norms for k in (i, j)
            )
            for slot, name in enumerate(("first", "second")):
                a, b = left.get(name), right.get(name)
                assert pair_comparable[slot] == (a is not None and b is not None)
                if a is None or b is None:
                    assert pair_bounds[slot] == 0.0
                    continue
                expected = jaro_winkler_char_bound(a, b, Counter(a), Counter(b))
                assert pair_bounds[slot] == expected  # ==, not approx
                assert jaro_winkler(a, b) <= pair_bounds[slot] + 1e-9

    def test_a_character_run_spans_many_words(self):
        index = self.index()
        row = self.values.index("a" * 40000)
        elements = index.signatures.elements_of(row)
        assert elements[:40000] == [(0, ord("a"), k) for k in range(1, 40001)]
        words = index.signatures._word_indptr.view()
        assert words[row + 1] - words[row] > 40000 // 64

    def test_token_jaccard(self):
        texts = ["", "x", "alpha", "alpha beta gamma", "beta gamma omega", "!!", "omega"]
        rows = [(i, text) for i, text in enumerate(texts)]
        index = TableIndex(Table("J", Schema.of("id", "text"), rows))
        kernels = self.kernels(index)
        pairs = np.array([(i, j) for i in range(len(texts)) for j in range(len(texts))])
        sims = kernels.token_jaccard(pairs[:, 0], pairs[:, 1])
        for (i, j), sim in zip(pairs.tolist(), sims.tolist()):
            a, b = (profile_of(index.signature_of(index.table[k].id)).token_ids for k in (i, j))
            assert sim == (jaccard_sorted_ids(a, b) if a and b else 0.0)

    def test_pending_rows_carry_the_scalar_bounds(self):
        """What stage 3 receives from the batch is what the scalar computes."""
        index = TableIndex(people_table())
        matcher = ProfileMatcher(exclude=("id",), threshold=0.75)
        pairs = [("p1", "p2"), ("p1", "p3"), ("p2", "p3"), ("p3", "p4")]
        columns = index.signatures
        _, pending = matcher._screen(pairs, 0, len(pairs), columns, columns)
        assert pending is not None and len(pending) >= 1
        for position, total, row in zip(
            pending.positions.tolist(), pending.total_bounds.tolist(), pending.bounds.tolist()
        ):
            left, right = (profile_of(index.signature_of(e)) for e in pairs[position])
            expected = [
                0.0
                if name not in left.norms or name not in right.norms
                else jaro_winkler_char_bound(
                    left.norms[name], right.norms[name],
                    left.char_counts[name], right.char_counts[name],
                )
                for name in left.attributes
            ]
            assert row == expected
            running = 0.0
            for bound in expected:
                running += bound
            assert total == running


def people_table():
    return Table(
        "P",
        Schema.of("id", "name", "city"),
        [
            ("p1", "john smith", "melbourne"),
            ("p2", "jon smith", "melbourne"),
            ("p3", "alice jones", None),
            ("p4", None, None),
        ],
    )


class TestSignatureColumns:
    def test_row_tokens_are_the_matcher_tokens(self):
        index = TableIndex(people_table())
        assert index.signatures.vocabulary is index.vocabulary  # blocking keys reused
        row = profile_of(index.signature_of("p1"))
        tokens = {index.vocabulary.token_of(token_id) for token_id in row.token_ids}
        assert tokens == {"john", "smith", "melbourne"}

    def test_rows_respect_exclude_and_nulls(self):
        values = {"name": "john", "secret": "classified", "empty": None}
        columns = SignatureColumns(
            list(values),
            frozenset({"secret"}),
            positions={"e1": 0},
            values_of=lambda row: tuple(values.values()),
        )
        columns.append(1, [[value] for value in values.values()])
        row = profile_of(columns["e1"])
        assert row.norms == {"name": "john"}
        assert {columns.vocabulary.token_of(t) for t in row.token_ids} == {"john"}
        assert columns.shape_of(0)[0].tolist() == [4, -1, -1]

    def test_every_row_has_columns_at_registration(self):
        index = TableIndex(people_table())
        assert len(index.signatures) == len(index.table)
        assert [index.signature_of(e).row for e in ("p1", "p4")] == [0, 3]

    def test_add_records_appends_rows_and_interns(self):
        index = TableIndex(people_table())
        vocabulary_before = len(index.vocabulary)
        index.table.append_rows([("p5", "zanzibar quux", "hobart")])
        index.add_records(["p5"])
        assert len(index.signatures) == 5
        assert len(index.vocabulary) > vocabulary_before
        tokens = {
            index.vocabulary.token_of(t) for t in profile_of(index.signature_of("p5")).token_ids
        }
        assert tokens == {"zanzibar", "quux", "hobart"}


class TestMatchSignatureCascade:
    def decisions(self, matcher, index, ids):
        out = []
        for a in ids:
            for b in ids:
                if a < b:
                    out.append(
                        matcher.match_signatures(index.signature_of(a), index.signature_of(b))
                    )
        return out

    def test_cascade_decisions_equal_slow_path(self):
        table = people_table()
        index = TableIndex(table)
        fast = ReferenceMatcher(exclude=("id",))
        slow = ReferenceMatcher(exclude=("id",))
        ids = ["p1", "p2", "p3", "p4"]
        fast_decisions = self.decisions(fast, index, ids)
        slow_decisions = [
            slow.matches(index.entities.attributes(a), index.entities.attributes(b))
            for a in ids
            for b in ids
            if a < b
        ]
        assert fast_decisions == slow_decisions
        assert fast.cascade_stats["pairs"] == len(fast_decisions)

    def test_clear_cache_and_stats(self):
        index = TableIndex(people_table())
        matcher = ProfileMatcher(exclude=("id",))
        matcher.match_pair_indices([("p1", "p2")], index.signatures)
        assert len(matcher._pair_cache) > 0
        matcher.clear_cache()
        assert len(matcher._pair_cache) == 0
        matcher.reset_cascade_stats()
        assert all(count == 0 for count in matcher.cascade_stats.values())


class TestOnePath:
    """The matcher has one configuration (threshold, exclusions) and one
    entry point, over the columns its table was built with."""

    @pytest.mark.parametrize("option", ["similarity", "cache_capacity"])
    def test_removed_options_are_refused(self, option):
        with pytest.raises(TypeError):
            ProfileMatcher(exclude=("id",), **{option: None})

    def test_only_the_batched_entry_point_is_left(self):
        for name in ("match_signatures", "matches", "profile_similarity", "fast_path"):
            assert not hasattr(ProfileMatcher(), name)

    def test_other_exclusions_than_the_columns_are_refused(self):
        index = TableIndex(people_table())
        matcher = ProfileMatcher(exclude=("id", "city"))
        with pytest.raises(ValueError):
            matcher.match_pair_indices([("p1", "p2")], index.signatures)
        rows = {entity: index.signature_of(entity) for entity in ("p1", "p2")}
        with pytest.raises(ValueError):
            matcher.match_pair_indices([("p1", "p2")], rows)

    def test_rows_of_two_columns_are_refused(self):
        first, second = TableIndex(people_table()), TableIndex(people_table())
        rows = {"p1": first.signature_of("p1"), "p2": second.signature_of("p2")}
        with pytest.raises(ValueError):
            ProfileMatcher(exclude=("id",)).match_pair_indices([("p1", "p2")], rows)

    def test_pair_memo_counts_hits_and_misses(self):
        index = TableIndex(people_table())
        matcher = ProfileMatcher(exclude=("id",))
        pairs = [("p1", "p2")]
        matcher.match_pair_indices(pairs, index.signatures)
        misses = matcher._pair_cache.stats["misses"]
        assert misses > 0 and matcher._pair_cache.stats["hits"] == 0
        matcher.match_pair_indices(pairs, index.signatures)
        assert matcher._pair_cache.stats == {
            "hits": misses, "misses": misses, "evictions": 0, "invalidations": 0,
        }
