"""The in-process workloads: ``sp_cold``, ``point_lookup``, ``spj_session``.

One analyst, closed loop: each statement is issued, answered, checked,
then the next one goes out.  The engine is the product default —
``QueryEREngine()`` with nothing overridden.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from repro import QueryEREngine

from inputs import Inputs, Spec
from metrics import REPEATS, OpLog, Tracer, mean, median, rows_digest, tree_usage


def set_up(inputs: Inputs) -> Tuple[QueryEREngine, Dict[str, float]]:
    """Register, then answer every statement once.

    Postings, signatures and statistics are built lazily on first use,
    so the first issue of each statement belongs to set-up: work moved
    out of the measured phase into here still shows in ``setup_s``.
    """
    gc.collect()
    start = time.perf_counter()
    engine = QueryEREngine()  # the product default: nothing overridden
    for table in inputs.tables:
        engine.register(table)
    registered = time.perf_counter()
    first_s = None
    for statement in inputs.statements:
        issued = time.perf_counter()
        engine.execute(statement.sql)
        if first_s is None:
            first_s = time.perf_counter() - issued
    return engine, {
        "setup_s": time.perf_counter() - start,
        "register_s": registered - start,
        "first_s": first_s,
    }


def schedule(workload: str, statements: int) -> List[Tuple[str, int]]:
    """One pass as ``(step, statement)``: clear / cold issue / warm re-issue.

    ``spj_session`` is one exploratory session — caches cleared once,
    every statement issued, then every statement re-issued against the
    Link Index the first round filled.  The others clear before each
    statement, so every first issue resolves from scratch, and re-issue
    it once straight away.
    """
    steps: List[Tuple[str, int]] = []
    if workload == "spj_session":
        steps.append(("clear", -1))
        steps += [("cold", i) for i in range(statements)]
        steps += [("warm", i) for i in range(statements)]
    else:
        for i in range(statements):
            steps += [("clear", -1), ("cold", i), ("warm", i)]
    return steps


def epoch_key(engine: QueryEREngine) -> Tuple[Tuple[str, int], ...]:
    return tuple(sorted(engine.table_epochs().items()))


def issue(
    engine: QueryEREngine, inputs: Inputs, index: int, kind: str, log: OpLog, tracer: Tracer
) -> Optional[Any]:
    """Issue statement *index*, time it, and check its answer."""
    sql = inputs.statements[index].sql
    with tracer.span("engine.execute", statement=index, kind=kind) as span:
        start = time.perf_counter()
        try:
            result = engine.execute(sql)
        except Exception as error:  # an operation that raises is a failed operation
            log.record(kind, time.perf_counter() - start, index, ok=False, why=repr(error))
            return None
        elapsed = time.perf_counter() - start
        span["stage_times"] = getattr(result, "stage_times", None)
        span["comparisons"] = result.comparisons
    # Same statement, same epochs, same place in the pass: same rows and
    # same work.  A re-issue is keyed apart from the first issue because
    # a DEDUP answer may legitimately grow with what the Link Index
    # holds (clusters reaching through entities outside the query).
    log.record(
        kind,
        elapsed,
        index,
        checks=(((index, epoch_key(engine), kind), (rows_digest(result.rows), result.comparisons)),),
    )
    return result


def run_pass(
    engine: QueryEREngine, inputs: Inputs, log: OpLog, tracer: Tracer, comparisons: List[int]
) -> None:
    for step, index in schedule(inputs.workload, len(inputs.statements)):
        if step == "clear":
            engine.clear_caches()
            continue
        result = issue(engine, inputs, index, step, log, tracer)
        if result is not None and step == "cold":
            comparisons.append(result.comparisons)
    gc.collect()


def first_issues(engine: QueryEREngine, inputs: Inputs) -> None:
    """Caches cleared, every statement issued once: the state set-up ends in."""
    engine.clear_caches()
    for statement in inputs.statements:
        engine.execute(statement.sql)


def insert_all(engine: QueryEREngine, inputs: Inputs, log: OpLog, tracer: Tracer) -> List[Any]:
    """Apply every insert batch, timed; returns the ingest results."""
    outcomes = []
    for number, batch in enumerate(inputs.batches):
        with tracer.span("engine.insert", batch=number):
            start = time.perf_counter()
            try:
                outcome = engine.insert(inputs.target, batch)
            except Exception as error:
                log.record("insert", time.perf_counter() - start, number, ok=False, why=repr(error))
                continue
            elapsed = time.perf_counter() - start
        log.record("insert", elapsed, number, ok=outcome.inserted == len(batch), why="short insert")
        outcomes.append(outcome)
    return outcomes


def evaluated_ids(engine: QueryEREngine, inputs: Inputs, table: str, where: Optional[str]) -> List[Any]:
    """Ids of *table*'s rows passing *where* (``None`` = all of them)."""
    id_column = inputs.table(table).schema.id_column
    suffix = f" WHERE {where}" if where else ""
    return engine.execute(f"SELECT {id_column} FROM {table}{suffix}").column(id_column)


def _canonical(pair: Tuple[Any, Any]) -> Tuple[Any, Any]:
    return tuple(sorted(pair, key=repr))  # type: ignore[return-value]


def link_quality(engine: QueryEREngine, inputs: Inputs) -> Tuple[float, float]:
    """``(recall, precision)`` of the Link Index against ground truth.

    One DEDUP per entry of ``inputs.quality`` (whole table, or a fixed
    sample where the table is too big), then the recorded links against
    the generator's true pairs.  With a predicate, both sides are cut to
    pairs touching the evaluated entities.  Exact and deterministic.
    """
    hit = found = true = 0
    for name, where in inputs.quality:
        id_column = inputs.table(name).schema.id_column
        suffix = f" WHERE {where}" if where else ""
        engine.execute(f"SELECT DEDUP {id_column} FROM {name}{suffix}")
        links = {_canonical(pair) for pair in engine.index_of(name).link_index.links}
        truth = inputs.truth[name.lower()]
        if where:
            evaluated = set(evaluated_ids(engine, inputs, name, where))
            links = {p for p in links if p[0] in evaluated or p[1] in evaluated}
            truth = {p for p in truth if p[0] in evaluated or p[1] in evaluated}
        hit += len(links & truth)
        found += len(links)
        true += len(truth)
    return hit / max(true, 1), hit / max(found, 1)


def run(spec: Spec) -> Dict[str, Any]:
    """One untraced run: :data:`REPEATS` times set up, measure, insert; verify.

    Each repeat is a fresh engine: set-up, whole passes for its share of
    ``spec.seconds``, then the insert batches.  Every issue of a
    statement, every pass and every repeat of an insert batch does the
    same work as the others, so each timing is taken from the fastest of
    them (see :meth:`metrics.OpLog.fastest_ms`); ``setup_s`` is the median.
    """
    log, tracer = OpLog(), Tracer()
    repeats = 1 if spec.smoke else REPEATS
    setups, passes = [], []
    comparisons: List[int] = []
    for repeat in range(repeats):
        inputs = spec.inputs()
        engine, timing = set_up(inputs)
        try:
            setups.append(timing["setup_s"])
            started = time.perf_counter()
            while True:
                before = log.count("cold", "warm"), log.busy_s(), tree_usage(os.getpid())[0]
                run_pass(engine, inputs, log, tracer, comparisons)
                # One analyst, nothing in flight between operations: the
                # time spent waiting for answers is the measured wall time
                # (clearing caches, collecting garbage and checking
                # answers are the harness's own).
                passes.append((
                    log.count("cold", "warm") - before[0],
                    log.busy_s() - before[1],
                    tree_usage(os.getpid())[0] - before[2],
                ))
                if time.perf_counter() - started >= spec.seconds / repeats:
                    break
            _, peak_rss = tree_usage(os.getpid())
            if repeat == repeats - 1:
                # Read off the tables every seed shares, so it repeats exactly.
                recall, precision = link_quality(engine, inputs)
            # The inserts come after the passes, so that every pass sees
            # the same table and the comparison counts repeat exactly, and
            # start from the state set-up ends in.
            first_issues(engine, inputs)
            insert_all(engine, inputs, log, tracer)
        finally:
            engine.close()

    metrics = {
        "setup_s": median(setups),
        "ops_per_s": max((n / busy for n, busy, _ in passes if busy > 0), default=None),
        # Statements differ in cost by an order of magnitude, so they are
        # averaged, not pooled: a pooled median is whichever statement
        # sits in the middle.
        "cold_query_ms_p50": mean(log.fastest_ms("cold")),
        "warm_query_ms_p50": mean(log.fastest_ms("warm")),
        "insert_ms_p50": median(log.fastest_ms("insert")),
        "comparisons_per_cold_query": mean(comparisons),
        "cpu_s_per_op": min((cpu / n for n, _, cpu in passes if n), default=None),
        "peak_rss_mb": peak_rss,
        "link_recall": recall,
        "link_precision": precision,
    }
    return {
        "metrics": metrics,
        "attempted": log.attempted,
        "failed": log.failed,
        "failures": log.failures,
        "samples": {**{kind: log.count(kind) for kind in log.ms}, "passes": len(passes)},
        "input_digest": inputs.digest,
    }
