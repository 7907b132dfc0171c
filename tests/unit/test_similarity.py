"""Unit tests for Jaro and the scalar reference similarities."""

import pytest
from reference.signature_oracle import jaccard, jaro_winkler

from repro.er.similarity import jaro


class TestJaro:
    def test_identical(self):
        assert jaro("martha", "martha") == 1.0

    def test_known_value_martha_marhta(self):
        assert jaro("martha", "marhta") == pytest.approx(0.9444444, abs=1e-6)

    def test_known_value_dixon_dicksonx(self):
        assert jaro("dixon", "dicksonx") == pytest.approx(0.7666666, abs=1e-6)

    def test_no_common_characters(self):
        assert jaro("abc", "xyz") == 0.0

    def test_empty_vs_nonempty(self):
        assert jaro("", "abc") == 0.0


class TestJaroWinkler:
    def test_known_value_martha_marhta(self):
        assert jaro_winkler("martha", "marhta") == pytest.approx(0.9611111, abs=1e-6)

    def test_prefix_boost_never_exceeds_one(self):
        assert jaro_winkler("aaaa", "aaaa") == 1.0

    def test_prefix_makes_it_at_least_jaro(self):
        assert jaro_winkler("dwayne", "duane") >= jaro("dwayne", "duane")

    def test_invalid_prefix_scale_rejected(self):
        with pytest.raises(ValueError):
            jaro_winkler("a", "b", prefix_scale=0.5)

    def test_abbreviation_scores_high(self):
        assert jaro_winkler("collective entity resolution", "collective e.r.") > 0.8


class TestJaccard:
    def test_identical_sets(self):
        assert jaccard({1, 2}, [2, 1]) == 1.0

    def test_disjoint_sets(self):
        assert jaccard({1}, {2}) == 0.0

    def test_both_empty(self):
        assert jaccard([], []) == 1.0

    def test_partial_overlap(self):
        assert jaccard({1, 2, 3}, {2, 3, 4}) == pytest.approx(0.5)
