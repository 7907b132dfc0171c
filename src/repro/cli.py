"""Command-line interface: dedupe queries directly over CSV files.

The paper positions QueryER as usable "directly ... over raw data files
(e.g. csv)"; this is that entry point:

    python -m repro --csv publications.csv --csv venues.csv \\
        "SELECT DEDUP P.title, V.rank FROM publications P \\
         JOIN venues V ON P.venue = V.title WHERE P.venue = 'EDBT'"

Each ``--csv`` file registers a table named after its stem (override
with ``name=path``); the query result prints as an aligned table, or as
one JSON object with ``--format json`` for machine consumers.

``repro serve`` starts the engine-as-a-service HTTP layer instead of
running one query (see :mod:`repro.serving`):

    python -m repro serve --csv publications.csv --port 7531

``repro save`` / ``repro load`` snapshot a built engine to disk and
query it back without rebuilding (see :mod:`repro.persist`); ``repro
serve --data-dir DIR`` warm-starts from such a snapshot and checkpoints
every committed insert back into it:

    python -m repro save --csv publications.csv --data-dir snap/
    python -m repro load --data-dir snap/ "SELECT DEDUP * FROM publications"
    python -m repro serve --data-dir snap/ --port 7531

``repro explain`` prints the §7.2.1 planner's plan with its comparison
estimates instead of result rows (``--analyze`` also executes and
appends the actual rows, estimated-vs-actual comparisons and per-stage
figures; see :meth:`repro.core.planner.DedupQueryPlan.explain`):

    python -m repro explain --csv publications.csv --csv venues.csv \\
        "SELECT DEDUP P.title FROM publications P \\
         JOIN venues V ON P.venue = V.title WHERE V.rank = 'A'"
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, List, Optional, Sequence

from repro.core.engine import QueryEREngine
from repro.core.planner import ExecutionMode
from repro.storage.csv_io import read_csv


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="QueryER: analysis-aware deduplication over dirty CSV data",
    )
    parser.add_argument("query", help="SQL query (use SELECT DEDUP for deduplication)")
    parser.add_argument(
        "--csv",
        action="append",
        default=[],
        metavar="[NAME=]PATH",
        help="CSV file to register (repeatable); NAME defaults to the file stem",
    )
    parser.add_argument(
        "--mode",
        choices=[m.value for m in ExecutionMode],
        default=ExecutionMode.AES.value,
        help="execution strategy for DEDUP queries (default: aes)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.75,
        help="schema-agnostic match threshold in [0, 1] (default: 0.75)",
    )
    parser.add_argument(
        "--format",
        choices=["table", "json"],
        default="table",
        help="result rendering: aligned text table, or one JSON object "
        "with columns/rows/timings for machine consumers (default: table)",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print the chosen plan instead of executing",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print executed comparisons and per-stage timings",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the per-stage time breakdown (Table 6-style shares) "
        "after the query, largest stage first",
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="serve the engine over HTTP/JSON (see repro.serving)",
    )
    parser.add_argument(
        "--csv",
        action="append",
        default=[],
        metavar="[NAME=]PATH",
        help="CSV file to register (repeatable); NAME defaults to the file stem",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: %(default)s)")
    parser.add_argument(
        "--port",
        type=int,
        default=7531,
        help="bind port; 0 picks a free one and announces it (default: %(default)s)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.75,
        help="schema-agnostic match threshold in [0, 1] (default: 0.75)",
    )
    parser.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=8,
        metavar="N",
        help="admission bound: engine-bound requests beyond this are "
        "refused with 503 + Retry-After (default: %(default)s)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="default per-request timeout -> 504 (default: %(default)s)",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=256,
        metavar="N",
        help="result-cache capacity in entries; 0 disables (default: %(default)s)",
    )
    parser.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help="snapshot directory (repro.persist): warm-start from it when "
        "it holds a snapshot, create one otherwise, and checkpoint every "
        "committed INSERT batch into it on a background writer",
    )
    parser.add_argument(
        "--checkpoint-deltas",
        type=_positive_int,
        default=None,
        metavar="N",
        help="compact a table's snapshot once it exceeds N delta segments "
        "(default: 8; only meaningful with --data-dir)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the structured per-request JSON log lines on stderr",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="arm deterministic fault injection (chaos testing), e.g. "
        "'serving.handler:times=2,dml.index_delta:p=0.1,seed=7'; "
        "see repro.resilience.faults for the site table and syntax "
        "(env: REPRO_FAULTS)",
    )
    return parser


def run_serve(argv: Sequence[str], output=None) -> int:
    """``repro serve``: start the HTTP service and block until interrupted."""
    from repro.serving import EngineService, make_server

    output = output if output is not None else sys.stdout
    args = build_serve_parser().parse_args(argv)
    if not args.csv and not args.data_dir:
        print("error: need at least one --csv table or a --data-dir snapshot", file=sys.stderr)
        return 2
    if args.faults:
        from repro.resilience import FaultPlan, install_plan

        plan = FaultPlan.parse(args.faults)
        install_plan(plan)
        print(f"fault injection armed: sites={plan.sites}", file=output)
    engine = None
    if args.data_dir:
        from repro.persist import read_manifest

        try:
            manifest = read_manifest(args.data_dir)
        except Exception as error:
            print(f"error: unreadable snapshot in {args.data_dir}: {error}", file=sys.stderr)
            return 2
        if manifest is not None:
            engine = QueryEREngine.load(args.data_dir)
            for name in sorted(engine.table_epochs()):
                table = engine.catalog.get(name)
                print(
                    f"warm-started table {table.name} ({len(table)} rows, "
                    f"epoch {engine.epoch_of(name)}) from {args.data_dir}",
                    file=output,
                )
    if engine is None:
        engine = QueryEREngine(match_threshold=args.threshold)
    for spec in args.csv:
        name, _, path = spec.rpartition("=")
        if (name or None) and name.lower() in engine.catalog:
            continue  # snapshot already holds this table; keep the warm copy
        table = read_csv(path or spec, name=name or None)
        if table.name.lower() in engine.catalog:
            continue
        engine.register(table)
        print(f"registered table {table.name} ({len(table)} rows)", file=output)
    if args.data_dir:
        manager = engine.enable_checkpointing(
            args.data_dir,
            delta_threshold=args.checkpoint_deltas,
            background=True,
        )
        print(
            f"checkpointing to {args.data_dir} "
            f"(compaction past {manager.delta_threshold} deltas)",
            file=output,
        )
    service = EngineService(
        engine,
        max_inflight=args.max_inflight,
        default_timeout=args.timeout,
        cache_size=args.cache_size,
        log_stream=None if args.quiet else sys.stderr,
    )
    server = make_server(service, host=args.host, port=args.port)
    print(f"serving on {server.url}", file=output, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=output)
    finally:
        server.server_close()
        engine.close()
    return 0


def build_save_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro save",
        description="build the engine over CSV tables and snapshot it to disk",
    )
    parser.add_argument(
        "--csv",
        action="append",
        default=[],
        metavar="[NAME=]PATH",
        help="CSV file to register (repeatable); NAME defaults to the file stem",
    )
    parser.add_argument(
        "--data-dir",
        required=True,
        metavar="DIR",
        help="snapshot directory to (over)write",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.75,
        help="schema-agnostic match threshold in [0, 1] (default: 0.75)",
    )
    return parser


def build_load_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro load",
        description="load a snapshot and query it without rebuilding indices",
    )
    parser.add_argument(
        "query",
        nargs="?",
        default=None,
        help="SQL to run against the loaded engine (omit to just summarize)",
    )
    parser.add_argument(
        "--data-dir",
        required=True,
        metavar="DIR",
        help="snapshot directory to load",
    )
    parser.add_argument(
        "--mode",
        choices=[m.value for m in ExecutionMode],
        default=ExecutionMode.AES.value,
        help="execution strategy for DEDUP queries (default: aes)",
    )
    parser.add_argument(
        "--format",
        choices=["table", "json"],
        default="table",
        help="result rendering (default: table)",
    )
    return parser


def build_explain_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro explain",
        description="print the planner's plan with row and comparison "
        "estimates (EXPLAIN); --analyze also executes and appends actuals",
    )
    parser.add_argument("query", help="SQL query to plan (SELECT or SELECT DEDUP)")
    parser.add_argument(
        "--csv",
        action="append",
        default=[],
        metavar="[NAME=]PATH",
        help="CSV file to register (repeatable); NAME defaults to the file stem",
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="also execute the query and append estimated-vs-actual rows, "
        "comparisons and per-stage timings (EXPLAIN ANALYZE)",
    )
    parser.add_argument(
        "--mode",
        choices=[m.value for m in ExecutionMode],
        default=ExecutionMode.AES.value,
        help="execution strategy for DEDUP queries (default: aes)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.75,
        help="schema-agnostic match threshold in [0, 1] (default: 0.75)",
    )
    return parser


def run_explain(argv: Sequence[str], output=None) -> int:
    """``repro explain``: print EXPLAIN [ANALYZE] output for one query."""
    output = output if output is not None else sys.stdout
    args = build_explain_parser().parse_args(argv)
    if not args.csv:
        print("error: at least one --csv table is required", file=sys.stderr)
        return 2
    engine = QueryEREngine(match_threshold=args.threshold)
    for spec in args.csv:
        name, _, path = spec.rpartition("=")
        table = read_csv(path or spec, name=name or None)
        engine.register(table)
    sql = args.query.strip()
    # Accept queries already carrying the EXPLAIN prefix verbatim.
    if sql[:7].upper() != "EXPLAIN":
        sql = ("EXPLAIN ANALYZE " if args.analyze else "EXPLAIN ") + sql
    try:
        result = engine.execute(sql, args.mode)
    except Exception as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(result.plan_description, file=output)
    return 0


def run_save(argv: Sequence[str], output=None) -> int:
    """``repro save``: cold-build from CSVs, write one base snapshot."""
    from repro.persist import snapshot_size_bytes

    output = output if output is not None else sys.stdout
    args = build_save_parser().parse_args(argv)
    if not args.csv:
        print("error: at least one --csv table is required", file=sys.stderr)
        return 2
    engine = QueryEREngine(match_threshold=args.threshold)
    for spec in args.csv:
        name, _, path = spec.rpartition("=")
        table = read_csv(path or spec, name=name or None)
        engine.register(table)
        print(f"registered table {table.name} ({len(table)} rows)", file=output)
    try:
        manifest = engine.save(args.data_dir)
    except Exception as error:
        print(f"error: snapshot failed: {error}", file=sys.stderr)
        return 1
    total = snapshot_size_bytes(args.data_dir)
    print(
        f"saved {len(manifest['tables'])} table(s) to {args.data_dir} "
        f"({total} bytes)",
        file=output,
    )
    return 0


def run_load(argv: Sequence[str], output=None) -> int:
    """``repro load``: warm-load a snapshot; summarize or run one query."""
    output = output if output is not None else sys.stdout
    args = build_load_parser().parse_args(argv)
    try:
        engine = QueryEREngine.load(args.data_dir)
    except Exception as error:
        print(f"error: cannot load snapshot from {args.data_dir}: {error}", file=sys.stderr)
        return 1
    if args.query is None:
        for name in sorted(engine.table_epochs()):
            table = engine.catalog.get(name)
            index = engine.index_of(name)
            print(
                f"{table.name}: {len(table)} rows, epoch {engine.epoch_of(name)}, "
                f"|TBI|={index.block_count}, LI={index.link_index.resolved_count} resolved",
                file=output,
            )
        return 0
    try:
        result = engine.execute(args.query, args.mode)
    except Exception as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(_json_result(result), file=output)
    else:
        print(format_table(result.columns, result.rows), file=output)
    return 0


def run(argv: Optional[Sequence[str]] = None, output=None) -> int:
    """CLI entry point; returns the process exit code."""
    output = output if output is not None else sys.stdout
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "serve":
        return run_serve(argv[1:], output=output)
    if argv and argv[0] == "save":
        return run_save(argv[1:], output=output)
    if argv and argv[0] == "load":
        return run_load(argv[1:], output=output)
    if argv and argv[0] == "explain":
        return run_explain(argv[1:], output=output)
    args = build_parser().parse_args(argv)
    if not args.csv:
        print("error: at least one --csv table is required", file=sys.stderr)
        return 2

    engine = QueryEREngine(match_threshold=args.threshold)
    for spec in args.csv:
        name, _, path = spec.rpartition("=")
        table = read_csv(path or spec, name=name or None)
        engine.register(table)

    try:
        if args.explain:
            print(engine.explain(args.query, args.mode), file=output)
            return 0
        result = engine.execute(args.query, args.mode)
    except Exception as error:  # surface as a clean CLI error
        print(f"error: {error}", file=sys.stderr)
        return 1

    if args.format == "json":
        print(_json_result(result), file=output)
        return 0
    print(format_table(result.columns, result.rows), file=output)
    if args.stats:
        print(
            f"\n{len(result)} rows, {result.elapsed:.4f}s, "
            f"{result.comparisons} comparisons",
            file=output,
        )
        for stage, seconds in sorted(result.stage_times.items()):
            print(f"  {stage}: {seconds:.4f}s", file=output)
    if args.profile:
        print(file=output)
        print(_profile_table(result), file=output)
    return 0


def _json_result(result) -> str:
    """One machine-readable JSON object per query, mirroring /query's shape."""
    return json.dumps(
        {
            "columns": list(result.columns),
            "rows": [list(row) for row in result.rows],
            "row_count": len(result),
            "comparisons": result.comparisons,
            "elapsed_s": round(result.elapsed, 6),
            "stage_times": {k: round(v, 6) for k, v in result.stage_times.items()},
        },
        default=str,
    )


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: str = "",
) -> str:
    """Render rows as an aligned text table (numbers right-aligned)."""
    rendered: List[List[str]] = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for raw, row in zip(rows, rendered):
        cells = []
        for i, (value, cell) in enumerate(zip(raw, row)):
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                cells.append(cell.rjust(widths[i]))
            else:
                cells.append(cell.ljust(widths[i]))
        lines.append("  ".join(cells))
    return "\n".join(lines)


def _cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def _profile_table(result) -> str:
    """The per-stage breakdown the ExecutionContext already captured,
    as an aligned table with Table 6-style percentage shares."""
    stages = sorted(result.stage_times.items(), key=lambda item: -item[1])
    timed_total = sum(seconds for _, seconds in stages)
    if not stages or timed_total <= 0:
        return "no per-stage timings recorded (not a DEDUP query?)"
    rows = [
        (stage, f"{seconds:.4f}", f"{100.0 * seconds / timed_total:.1f}%")
        for stage, seconds in stages
    ]
    rows.append(("total", f"{timed_total:.4f}", "100.0%"))
    return format_table(
        ["stage", "seconds", "share"], rows, title="Per-stage breakdown"
    )


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
