"""Property-based tests for the similarity functions."""

from hypothesis import given
from hypothesis import strategies as st
from reference.signature_oracle import jaccard, jaro_winkler

from repro.er.similarity import jaro

text = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FF), max_size=30)


class TestJaroProperties:
    @given(text, text)
    def test_symmetry(self, a, b):
        assert jaro(a, b) == jaro(b, a)

    @given(text, text)
    def test_unit_interval(self, a, b):
        assert 0.0 <= jaro(a, b) <= 1.0

    @given(text)
    def test_identity_is_one(self, a):
        assert jaro(a, a) == 1.0

    @given(text, text)
    def test_winkler_dominates_jaro(self, a, b):
        assert jaro_winkler(a, b) >= jaro(a, b) - 1e-12

    @given(text, text)
    def test_winkler_unit_interval(self, a, b):
        assert 0.0 <= jaro_winkler(a, b) <= 1.0 + 1e-12


class TestJaccardProperties:
    sets = st.frozensets(st.integers(min_value=0, max_value=20), max_size=10)

    @given(sets, sets)
    def test_symmetry(self, a, b):
        assert jaccard(a, b) == jaccard(b, a)

    @given(sets, sets)
    def test_unit_interval(self, a, b):
        assert 0.0 <= jaccard(a, b) <= 1.0

    @given(sets)
    def test_identity(self, a):
        assert jaccard(a, a) == 1.0

    @given(sets, sets)
    def test_subset_monotonicity(self, a, b):
        union = a | b
        if union:
            assert jaccard(a, union) >= jaccard(a, b) - 1e-12
