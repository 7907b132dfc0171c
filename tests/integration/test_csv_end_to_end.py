"""Integration: the raw-csv entry point the paper advertises (§1/§3)."""

import pytest

from repro import QueryEREngine, read_csv, write_csv
from repro.datagen import generate_dsd


@pytest.fixture
def csv_engine(tmp_path):
    table, _ = generate_dsd(200, seed=77)
    path = tmp_path / "dsd.csv"
    write_csv(table, path)
    engine = QueryEREngine()
    engine.register(read_csv(path, name="DSD", id_column="id"))
    return engine


class TestCsvPipeline:
    def test_dedup_query_over_csv(self, csv_engine):
        result = csv_engine.execute(
            "SELECT DEDUP id, title, venue FROM DSD WHERE venue = 'edbt'"
        )
        assert len(result) > 0
        assert result.comparisons > 0

    def test_grouped_rows_carry_both_venue_spellings(self, csv_engine):
        result = csv_engine.execute(
            "SELECT DEDUP venue FROM DSD WHERE venue = 'edbt'"
        )
        fused = [v for v in result.column("venue") if " | " in str(v)]
        assert fused, "expected at least one acronym/full-name fusion"

    def test_plain_sql_still_works(self, csv_engine):
        result = csv_engine.execute(
            "SELECT title, year FROM DSD WHERE year >= '2010' ORDER BY year LIMIT 3"
        )
        assert len(result) == 3
        assert all(y >= "2010" for y in result.column("year"))


class TestCsvPlainSelect:
    def test_projection(self, csv_engine):
        result = csv_engine.execute("SELECT id, title FROM DSD LIMIT 5")
        assert len(result) == 5
        assert result.columns == ["id", "title"]
