"""Unit tests for ``--format {table,json}``, the ``serve`` entry point and
:func:`repro.cli.format_table`."""

import importlib.util
import io
import json

import pytest

from repro.cli import (
    build_explain_parser,
    build_load_parser,
    build_parser,
    build_save_parser,
    build_serve_parser,
    format_table,
    run,
)
from repro.core.engine import QueryEREngine
from repro.datagen import generate_dsd
from repro.storage.csv_io import write_csv


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    table, _ = generate_dsd(120, seed=55)
    path = tmp_path_factory.mktemp("cli_format") / "papers.csv"
    write_csv(table, path)
    return path


class TestJsonFormat:
    def test_plain_query_json(self, csv_path):
        out = io.StringIO()
        code = run(
            [
                "SELECT id, title FROM papers LIMIT 3",
                "--csv",
                str(csv_path),
                "--format",
                "json",
            ],
            output=out,
        )
        assert code == 0
        payload = json.loads(out.getvalue())
        assert payload["columns"] == ["id", "title"]
        assert payload["row_count"] == 3
        assert len(payload["rows"]) == 3
        assert payload["elapsed_s"] >= 0

    def test_dedup_query_json_carries_er_metrics(self, csv_path):
        out = io.StringIO()
        code = run(
            [
                "SELECT DEDUP id, venue FROM papers WHERE venue = 'edbt'",
                "--csv",
                str(csv_path),
                "--format",
                "json",
            ],
            output=out,
        )
        assert code == 0
        payload = json.loads(out.getvalue())
        assert payload["comparisons"] > 0
        assert payload["stage_times"]  # the --profile plumbing, machine-readable

    def test_json_rows_match_library_mode(self, csv_path):
        out = io.StringIO()
        run(
            [
                "SELECT DEDUP id, venue FROM papers WHERE venue = 'edbt'",
                "--csv",
                str(csv_path),
                "--format",
                "json",
            ],
            output=out,
        )
        payload = json.loads(out.getvalue())

        from repro.storage.csv_io import read_csv

        engine = QueryEREngine()
        engine.register(read_csv(csv_path, name="papers"))
        expected = engine.execute("SELECT DEDUP id, venue FROM papers WHERE venue = 'edbt'")
        assert sorted(map(tuple, payload["rows"])) == sorted(
            tuple(row) for row in expected.rows
        )

    def test_table_format_is_default(self, csv_path):
        out = io.StringIO()
        code = run(
            ["SELECT id FROM papers LIMIT 1", "--csv", str(csv_path)], output=out
        )
        assert code == 0
        with pytest.raises(json.JSONDecodeError):
            json.loads(out.getvalue())


class TestServeParser:
    def test_defaults(self):
        args = build_serve_parser().parse_args(["--csv", "x.csv"])
        assert args.port == 7531
        assert args.max_inflight == 8
        assert args.cache_size == 256

    def test_serve_requires_csv(self):
        assert run(["serve"], output=io.StringIO()) == 2


#: Every subcommand parser, with the least argv it accepts.
PARSERS = {
    "query": (build_parser, ["SELECT id FROM papers"]),
    "serve": (build_serve_parser, ["--csv", "x.csv"]),
    "save": (build_save_parser, ["--data-dir", "snapshot"]),
    "load": (build_load_parser, ["--data-dir", "snapshot"]),
    "explain": (build_explain_parser, ["SELECT id FROM papers"]),
}


@pytest.mark.parametrize("command", sorted(PARSERS))
def test_workers_flag_is_refused(command, capsys):
    """Comparison-Execution is serial only: no subcommand takes
    ``--workers`` or advertises it, so a stale script fails loudly
    instead of silently running serially."""
    builder, argv = PARSERS[command]
    parser = builder()
    parser.parse_args(argv)
    assert "--workers" not in parser.format_help()
    with pytest.raises(SystemExit) as exit_info:
        parser.parse_args(argv + ["--workers", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["explain", "query", "serve"])
def test_no_optimizer_flag_is_refused(command, capsys):
    """The §7.2.1 planner is the only plan source: the subcommands that
    took ``--no-optimizer`` refuse it, so a stale script fails loudly."""
    builder, argv = PARSERS[command]
    parser = builder()
    assert "--no-optimizer" not in parser.format_help()
    with pytest.raises(SystemExit) as exit_info:
        parser.parse_args(argv + ["--no-optimizer"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --no-optimizer" in capsys.readouterr().err


class TestFormatTable:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.5], ["bbbb", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert len(lines) == 5

    def test_none_renders_dash(self):
        text = format_table(["x"], [[None]])
        assert "-" in text.splitlines()[-1]

    def test_the_package_ships_no_benchmark_code(self):
        """The CLI owns the one ``format_table``; benchmarks import it."""
        assert importlib.util.find_spec("repro.bench") is None
