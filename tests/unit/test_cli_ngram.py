"""Unit tests for the CLI and n-gram blocking."""

import io

import pytest

from repro.cli import run
from repro.datagen import generate_dsd
from repro.er.blocking import NGramBlocking, TokenBlocking
from repro.storage.csv_io import write_csv


@pytest.fixture
def csv_path(tmp_path):
    table, _ = generate_dsd(120, seed=55)
    path = tmp_path / "papers.csv"
    write_csv(table, path)
    return path


class TestCli:
    def test_plain_query(self, csv_path):
        out = io.StringIO()
        code = run(["SELECT id, title FROM papers LIMIT 3", "--csv", str(csv_path)], output=out)
        assert code == 0
        assert len(out.getvalue().splitlines()) == 5  # header + rule + 3 rows

    def test_dedup_query_with_stats(self, csv_path):
        out = io.StringIO()
        code = run(
            [
                "SELECT DEDUP id, venue FROM papers WHERE venue = 'edbt'",
                "--csv",
                str(csv_path),
                "--stats",
            ],
            output=out,
        )
        assert code == 0
        assert "comparisons" in out.getvalue()

    def test_named_registration(self, csv_path):
        out = io.StringIO()
        code = run(
            ["SELECT COUNT(*) AS n FROM pubs", "--csv", f"pubs={csv_path}"],
            output=out,
        )
        assert code == 0
        assert "120" in out.getvalue()

    def test_explain(self, csv_path):
        out = io.StringIO()
        code = run(
            ["SELECT DEDUP id FROM papers", "--csv", str(csv_path), "--explain"],
            output=out,
        )
        assert code == 0
        assert "Deduplicate" in out.getvalue()

    def test_missing_csv_is_an_error(self):
        assert run(["SELECT 1 FROM x"]) == 2

    def test_bad_query_is_an_error(self, csv_path):
        assert run(["SELECT FROM WHERE", "--csv", str(csv_path)]) == 1

    def test_mode_flag(self, csv_path):
        out = io.StringIO()
        code = run(
            [
                "SELECT DEDUP id FROM papers WHERE venue = 'edbt'",
                "--csv",
                str(csv_path),
                "--mode",
                "nes",
            ],
            output=out,
        )
        assert code == 0


class TestNGramBlocking:
    def test_ngrams_of_long_tokens(self):
        blocking = NGramBlocking(n=3)
        keys = blocking.keys_for({"name": "smith"})
        assert {"smi", "mit", "ith"} <= keys

    def test_short_tokens_kept_whole(self):
        blocking = NGramBlocking(n=3)
        assert blocking.keys_for({"name": "ab"}) == {"ab"}

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            NGramBlocking(n=1)

    def test_typo_tolerance_beats_token_blocking(self):
        left, right = {"name": "smith"}, {"name": "smithe"}
        token = TokenBlocking()
        ngram = NGramBlocking(n=3)
        assert not token.keys_for(left) & token.keys_for(right)  # no shared block
        assert ngram.keys_for(left) & ngram.keys_for(right)  # shared n-grams co-occur

    def test_exclusion_still_applies(self):
        blocking = NGramBlocking(n=3, exclude_attributes=("id",))
        assert blocking.keys_for({"id": "abcdef"}) == set()
