"""The profile-similarity spec on pathological values."""

from reference.signature_oracle import ReferenceMatcher


class TestRobustness:
    """Failure-injection: pathological values through the profile similarity."""

    def test_unicode_values(self):
        m = ReferenceMatcher()
        a = {"name": "Γιώργος Αλεξίου", "city": "Αθήνα"}
        assert m.profile_similarity(a, dict(a)) == 1.0

    def test_very_long_values(self):
        m = ReferenceMatcher()
        long_value = "token " * 500
        sim = m.profile_similarity({"x": long_value}, {"x": long_value})
        assert sim == 1.0

    def test_empty_string_values(self):
        m = ReferenceMatcher()
        assert 0.0 <= m.profile_similarity({"x": ""}, {"x": ""}) <= 1.0

    def test_numeric_values_compare_as_strings(self):
        m = ReferenceMatcher()
        assert m.profile_similarity({"x": 1234}, {"x": 1234}) == 1.0
