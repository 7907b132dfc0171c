"""Unit tests for the profile-similarity spec and ER evaluation measures.

The spec (``ReferenceMatcher`` in ``tests/reference/signature_oracle.py``)
is what the engine's batched cascade is tested against.
"""

import pytest
from reference.signature_oracle import ReferenceMatcher

from repro.er.evaluation import f_measure, pair_completeness, pairs_quality
from repro.er.matching import ProfileMatcher


class TestProfileMatcher:
    def test_identical_profiles_match(self):
        m = ReferenceMatcher()
        p = {"name": "ann smith", "city": "berlin"}
        assert m.profile_similarity(p, dict(p)) == 1.0
        assert m.matches(p, dict(p))

    def test_disjoint_profiles_do_not_match(self):
        m = ReferenceMatcher()
        assert not m.matches({"name": "ann smith"}, {"name": "zebulon quincy"})

    def test_nulls_are_skipped_in_aligned_signal(self):
        m = ReferenceMatcher()
        sim = m.profile_similarity(
            {"name": "ann", "city": None}, {"name": "ann", "city": "berlin"}
        )
        assert sim == 1.0

    def test_all_null_yields_zero(self):
        m = ReferenceMatcher()
        assert m.profile_similarity({"a": None}, {"a": None}) == 0.0

    def test_excluded_attributes_ignored(self):
        m = ReferenceMatcher(exclude=("id",))
        sim = m.profile_similarity({"id": "1", "n": "x y"}, {"id": "2", "n": "x y"})
        assert sim == 1.0

    def test_token_signal_catches_cross_attribute_values(self):
        # Venue name under 'title' on one side, 'description' on the other.
        m = ReferenceMatcher(threshold=0.5)
        left = {"title": "extending database technology", "description": None}
        right = {"title": None, "description": "extending database technology"}
        assert m.matches(left, right)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ProfileMatcher(threshold=1.5)

    def test_symmetry(self):
        m = ReferenceMatcher()
        a = {"name": "jon smith", "city": "athens"}
        b = {"name": "john smyth", "city": "athens"}
        assert m.profile_similarity(a, b) == pytest.approx(m.profile_similarity(b, a))

    def test_similarity_bounded(self):
        m = ReferenceMatcher()
        a = {"x": "abc def", "y": "123"}
        b = {"x": "zzz", "y": "456"}
        assert 0.0 <= m.profile_similarity(a, b) <= 1.0


class TestEvaluationMeasures:
    truth = {("a", "b"), ("c", "d"), ("e", "f")}

    def test_perfect_pc(self):
        assert pair_completeness(self.truth, self.truth) == 1.0

    def test_partial_pc(self):
        assert pair_completeness({("a", "b")}, self.truth) == pytest.approx(1 / 3)

    def test_pc_order_insensitive(self):
        assert pair_completeness({("b", "a")}, self.truth) == pytest.approx(1 / 3)

    def test_pc_empty_truth(self):
        assert pair_completeness({("a", "b")}, set()) == 1.0

    def test_pq(self):
        candidates = {("a", "b"), ("x", "y")}
        assert pairs_quality(candidates, self.truth) == pytest.approx(0.5)

    def test_pq_no_candidates(self):
        assert pairs_quality(set(), self.truth) == 1.0

    def test_f_measure(self):
        candidates = {("a", "b")}  # PC=1/3, PQ=1
        assert f_measure(candidates, self.truth) == pytest.approx(0.5)

    def test_f_measure_zero(self):
        assert f_measure({("q", "r")}, self.truth) == 0.0
