"""Naive reference implementations the equivalence suites diff against."""
