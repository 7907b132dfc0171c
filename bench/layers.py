"""The traced run: per-layer metrics measured from outside.

Nothing inside ``src/`` is instrumented.  A traced run repeats the
workload's passes with benchmark-side spans around every operation,
then *replays* each statement through the public entry point of every
layer it crosses — parse, plan, candidate derivation, matching,
Deduplicate, Group-Entities — and probes the layers no statement
crosses on its own (workers, ingest, snapshots, serving, boot).  Every
probe runs on the workload's own tables, so each metric reads on every
workload; the only exceptions are the four serving *traffic* counters,
which are 0 where no traffic is served.

A layer whose entry point has gone reports ``None`` with the reason
instead of failing the run: later changes may remove entry points, and
no end-to-end metric depends on one.
"""

from __future__ import annotations

import random
import resource
import shutil
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

import library
import served
from inputs import Inputs, Spec
from metrics import OpLog, Tracer, median

#: Calls per serving probe, and ids sampled for ``cluster_of``.
PROBE_CALLS = 200
#: Cold executions per side of the serial-vs-default comparison.
SPEEDUP_REPEATS = 3

STAGES = ("block-join", "meta-blocking", "resolution", "group", "other")


class Layers:
    """Collected per-layer values plus why any of them is missing."""

    def __init__(self) -> None:
        self.values: Dict[str, Optional[float]] = {}
        self.reasons: Dict[str, str] = {}
        #: Numerator and denominator of the ratios reported with their bases.
        self.bases: Dict[str, Dict[str, float]] = {}

    @contextmanager
    def optional(self, layer: str) -> Iterator[None]:
        """Run a probe; a vanished entry point costs only its own metrics."""
        try:
            yield
        except (ImportError, AttributeError, TypeError) as error:
            self.reasons.setdefault(layer, repr(error))


def _ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator else None


def _per_statement(tracer: Tracer, name: str, **where: Any) -> Dict[int, float]:
    """Milliseconds of *name* spans summed per replayed statement."""
    totals: Dict[int, float] = {}
    for span in tracer.spans:
        if span["name"] == name and all(span.get(k) == v for k, v in where.items()):
            totals[span["statement"]] = (
                totals.get(span["statement"], 0.0) + 1000.0 * (span["end"] - span["start"])
            )
    return totals


def _sum(tracer: Tracer, name: str, count: str) -> float:
    return float(sum(span.get(count, 0) for span in tracer.spans if span["name"] == name))


class _Signatures:
    """Mapping view over ``TableIndex.signature_of`` for ``match_pair_indices``."""

    def __init__(self, index: Any):
        self._signature_of = index.signature_of

    def __getitem__(self, entity_id: Any) -> Any:
        return self._signature_of(entity_id)


def traced_passes(
    engine: Any, inputs: Inputs, log: OpLog, tracer: Tracer, seconds: float
) -> Dict[str, float]:
    """Alternate untraced and traced passes for *seconds*; ops/s of each."""
    busy = {False: 0.0, True: 0.0}
    operations = {False: 0, True: 0}
    comparisons: List[int] = []
    started = time.perf_counter()
    while True:
        for traced in (False, True):
            tracer.enabled = traced
            tracer.pass_id += 1
            before = log.busy_s(), log.count("cold", "warm")
            library.run_pass(engine, inputs, log, tracer, comparisons)
            busy[traced] += log.busy_s() - before[0]
            operations[traced] += log.count("cold", "warm") - before[1]
        if time.perf_counter() - started >= seconds:
            break
    tracer.enabled = True
    return {
        "untraced_ops_per_s": operations[False] / busy[False],
        "traced_ops_per_s": operations[True] / busy[True],
    }


def replay(engine: Any, inputs: Inputs, tracer: Tracer, layers: Layers) -> None:
    """Each statement once more, one public layer call at a time."""
    for number, statement in enumerate(inputs.statements):
        sql = statement.sql
        with layers.optional("repro.sql"):
            from repro.sql import normalize_sql
            from repro.sql.parser import parse

            with tracer.span("sql.parse", statement=number):
                parse(sql)
            with tracer.span("sql.normalize", statement=number):
                normalize_sql(sql)
        with layers.optional("repro.optimizer"):
            engine.plan_cache.invalidate()
            for outcome in ("miss", "hit"):
                with tracer.span("planner.plan", statement=number, outcome=outcome):
                    engine.explain(sql)
        if not statement.dedup:
            continue
        frontiers = [
            (engine.index_of(table), library.evaluated_ids(engine, inputs, table, where))
            for table, where in statement.frontiers
        ]

        # Deduplicate first, from the state the workload's own first issue
        # starts in; the finer-grained calls below repeat parts of it.
        engine.clear_caches()
        for index, ids in frontiers:
            with layers.optional("repro.core.dedup_operator"):
                from repro.core.dedup_operator import DedupStats

                operator = engine.dedup_operator(index)
                for state in ("cold", "resolved"):
                    stats = DedupStats()
                    with tracer.span("dedup.deduplicate", statement=number, state=state) as span:
                        result = operator.deduplicate(ids, stats=stats)
                        span.update(
                            rounds=stats.rounds, skipped=stats.skipped_resolved, evaluated=len(ids)
                        )
                    if state == "cold":
                        with layers.optional("repro.core.group_entities"):
                            from repro.core.group_entities import group_single

                            with tracer.span("group.single", statement=number):
                                group_single(result)

        engine.clear_caches()
        for index, ids in frontiers:
            derived = None
            with layers.optional("repro.er.packed_blocking"):
                from repro.er.packed_blocking import derive_candidates

                # As the operator calls it: the engine's executor may shard
                # the graph build over workers.
                with tracer.span("blocking.derive", statement=number) as span:
                    derived = derive_candidates(
                        index.postings, set(ids), engine.meta_blocking,
                        executor=engine.parallel_executor,
                    )
                    span.update(before=derived.comparisons_before, after=len(derived.pairs))
            if derived is None:
                layers.reasons.setdefault("repro.er.matching", "no candidate pairs to match")
                continue
            with layers.optional("repro.er.matching"):
                matcher = engine.matcher_for(index)
                matcher.reset_cascade_stats()
                with tracer.span("matching.match", statement=number) as span:
                    matched = matcher.match_pair_indices(derived.pairs, _Signatures(index))
                    span.update(
                        pairs=len(derived.pairs),
                        matches=len(matched),
                        exact=matcher.cascade_stats["exact_fallbacks"],
                    )


def link_index_probe(engine: Any, inputs: Inputs, seed: int, layers: Layers) -> None:
    """``cluster_of`` per call over a seeded sample of resolved ids.

    Probed on the Link Index one session leaves behind: caches cleared,
    then every statement issued once.
    """
    library.first_issues(engine, inputs)
    with layers.optional("repro.core.indices.LinkIndex"):
        rng = random.Random(f"cluster_of:{seed}")
        rows = links = resolved_total = 0
        calls: List[float] = []
        for table in inputs.tables:
            link_index = engine.index_of(table.name).link_index
            resolved = sorted(link_index.resolved_subset(table.ids), key=repr)
            rows += len(table)
            links += len(link_index)
            resolved_total += len(resolved)
            for entity_id in rng.sample(resolved, min(len(resolved), PROBE_CALLS)):
                start = time.perf_counter()
                link_index.cluster_of(entity_id)
                calls.append(1e6 * (time.perf_counter() - start))
        layers.values.update({
            "link_index.cluster_of_us": sum(calls) / len(calls) if calls else None,
            "link_index.links": float(links),
            "link_index.resolved_share": _ratio(resolved_total, rows),
        })


def parallel_probe(engine: Any, inputs: Inputs, fresh: Callable[[], Inputs], layers: Layers) -> None:
    """The costliest statement, cold, on a one-worker engine vs the default."""
    with layers.optional("repro.parallel"):
        from repro import QueryEREngine

        layers.values.update({"parallel.workers": float(engine.execution.resolved_workers())})
        sql = inputs.statements[-1].sql
        serial = QueryEREngine(execution=1)
        try:
            for table in fresh().tables:
                serial.register(table)
            serial.execute(sql)  # lazy builds, as the default engine had
            timings = {}
            for label, candidate in (("serial", serial), ("default", engine)):
                samples = []
                for _ in range(SPEEDUP_REPEATS):
                    candidate.clear_caches()
                    start = time.perf_counter()
                    candidate.execute(sql)
                    samples.append(1000.0 * (time.perf_counter() - start))
                timings[label] = median(samples)
        finally:
            serial.close()
        layers.values.update({"parallel.speedup": _ratio(timings["serial"], timings["default"])})
        layers.bases["parallel.speedup"] = {
            "serial_ms": timings["serial"], "default_ms": timings["default"]
        }


def persist_probe(engine: Any, inputs: Inputs, directory: Any, layers: Layers) -> None:
    with layers.optional("repro.persist"):
        from repro import QueryEREngine
        from repro.persist.snapshot import snapshot_size_bytes

        target = directory / "persist"
        start = time.perf_counter()
        engine.save(target)
        save_s = time.perf_counter() - start
        rows = sum(len(table) for table in inputs.tables)
        start = time.perf_counter()
        loaded = QueryEREngine.load(target)
        load_s = time.perf_counter() - start
        try:
            start = time.perf_counter()
            loaded.execute(inputs.statements[0].sql)
            first_ms = 1000.0 * (time.perf_counter() - start)
        finally:
            loaded.close()
        layers.values.update({
            "persist.save_s": save_s,
            "persist.load_s": load_s,
            "persist.bytes_per_row": _ratio(snapshot_size_bytes(target), rows),
            "persist.first_query_after_load_ms": first_ms,
        })


def serving_probe(engine: Any, inputs: Inputs, layers: Layers) -> None:
    """A result-cache hit, in-process and over HTTP on one keep-alive socket."""
    with layers.optional("repro.serving"):
        from repro.serving import EngineService, make_server

        sql = inputs.statements[0].sql
        service = EngineService(engine)
        service.query(sql)  # the miss that fills the cache
        inproc = []
        for _ in range(PROBE_CALLS):
            start = time.perf_counter()
            service.query(sql)
            inproc.append(1e6 * (time.perf_counter() - start))
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = served.Client(*server.server_address[:2])
            http, sizes = [], []
            for _ in range(PROBE_CALLS):
                start = time.perf_counter()
                _, _, size = client.request("POST", "/query", {"sql": sql})
                http.append(1000.0 * (time.perf_counter() - start))
                sizes.append(size)
            client.close()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        layers.values.update({
            "serving.hit_inproc_us": median(inproc),
            "serving.http_hit_ms": median(http),
            "serving.http_overhead_ms": median(http) - median(inproc) / 1000.0,
            "serving.response_bytes_p50": median(sizes),
        })


def served_layers(drive: served.Drive, layers: Layers) -> None:
    """The boots and — 0 where no traffic was served — the traffic's counters."""
    traffic = drive.traffic
    reads = sum(traffic.labels.values())
    misses = traffic.miss_comparisons
    layers.values.update({
        "serving.boot_cold_s": drive.boot_cold_s,
        "serving.boot_warm_s": drive.boot_warm_s,
        "serving.cache_hit_ratio": _ratio(traffic.labels.get("hit", 0), reads) or 0.0,
        "serving.coalesced_share": _ratio(traffic.labels.get("coalesced", 0), reads) or 0.0,
        "serving.miss_comparisons": _ratio(sum(misses), len(misses)) or 0.0,
        "serving.refused": float(traffic.refused),
    })


def derive(tracer: Tracer, inputs: Inputs, layers: Layers) -> None:
    """Turn the spans into the per-layer metrics."""
    dedup_statements = {i for i, s in enumerate(inputs.statements) if s.dedup}
    executes = [
        s for s in tracer.spans
        if s["name"] == "engine.execute" and s["kind"] == "cold" and s["statement"] in dedup_statements
    ]
    by_statement: Dict[int, List[float]] = {}
    for span in executes:
        by_statement.setdefault(span["statement"], []).append(1000.0 * (span["end"] - span["start"]))
    execute_ms = {number: median(samples) for number, samples in by_statement.items()}

    def per_statement_median(name: str, **where: Any) -> Optional[float]:
        return median(list(_per_statement(tracer, name, **where).values()))

    dedup_cold = _per_statement(tracer, "dedup.deduplicate", state="cold")
    group = _per_statement(tracer, "group.single")
    self_ms = [
        execute_ms[n] - dedup_cold[n] - group.get(n, 0.0)
        for n in execute_ms if n in dedup_cold
    ]
    pairs = _sum(tracer, "matching.match", "pairs")
    match_s = sum(tracer.durations_ms("matching.match")) / 1000.0
    before = _sum(tracer, "blocking.derive", "before")
    after = _sum(tracer, "blocking.derive", "after")
    resolved = [s for s in tracer.spans if s["name"] == "dedup.deduplicate" and s["state"] == "resolved"]
    layers.values.update({
        "sql.parse_us": median([1000.0 * ms for ms in tracer.durations_ms("sql.parse")]),
        "sql.normalize_us": median([1000.0 * ms for ms in tracer.durations_ms("sql.normalize")]),
        "planner.plan_miss_ms": median(tracer.durations_ms("planner.plan", outcome="miss")),
        "planner.plan_hit_ms": median(tracer.durations_ms("planner.plan", outcome="hit")),
        "blocking.derive_ms": per_statement_median("blocking.derive"),
        "blocking.pairs_before": before if before else None,
        "blocking.pairs_after": after if before else None,
        "blocking.retained_ratio": _ratio(after, before),
        "matching.match_ms": per_statement_median("matching.match"),
        "matching.pairs_per_s": _ratio(pairs, match_s),
        "matching.match_ratio": _ratio(_sum(tracer, "matching.match", "matches"), pairs),
        "matching.exact_share": _ratio(_sum(tracer, "matching.match", "exact"), pairs),
        "dedup.deduplicate_ms": median(list(dedup_cold.values())),
        "dedup.rounds": _ratio(
            sum(s["rounds"] for s in tracer.spans
                if s["name"] == "dedup.deduplicate" and s["state"] == "cold"),
            len(dedup_cold),
        ),
        "dedup.skipped_resolved_share": _ratio(
            sum(s["skipped"] for s in resolved), sum(s["evaluated"] for s in resolved)
        ),
        "group.single_ms": median(list(group.values())),
        "engine.execute_ms": median(list(execute_ms.values())),
        "engine.self_ms": median(self_ms),
        "incremental.insert_ms": median(tracer.durations_ms("engine.insert")),
    })
    for stage in STAGES:
        samples = [
            1000.0 * span["stage_times"].get(stage, 0.0)
            for span in executes if span.get("stage_times") is not None
        ]
        layers.values[f"engine.stage.{stage}_ms"] = median(samples)


def run(spec: Spec) -> Dict[str, Any]:
    """One traced run; ``metrics`` holds the per-layer values."""
    layers = Layers()
    tracer = Tracer()
    log = OpLog()
    inputs, fresh = spec.inputs(), spec.inputs
    directory = served.work_dir(f"trace-{spec.workload}")
    engine = None
    try:
        # ``repro serve`` over the workload's tables: boots everywhere,
        # the mix itself (for half the time) only on ``serve_mix``.
        mix_seconds = spec.seconds / 2 if spec.workload == "serve_mix" else 0
        drive = served.boot_and_drive(inputs, spec.seed, mix_seconds, directory)
        served_layers(drive, layers)
        served_log = drive.traffic.log
        served_degradations = sum(drive.health.get("degradation", {}).values())
        if spec.workload == "serve_mix":
            # From here on, the very tables the server read: all-string columns.
            fresh = lambda: _from_csv(spec.inputs(), directory)  # noqa: E731
            inputs = fresh()

        engine, timing = library.set_up(inputs)
        rows = sum(len(table) for table in inputs.tables)
        children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
        rates = traced_passes(engine, inputs, log, tracer, spec.seconds / 2)
        children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
        with layers.optional("repro.optimizer"):
            plans = engine.plan_cache.snapshot()
            layers.values.update({"planner.plan_cache_hit_ratio": _ratio(
                plans["hits"], plans["hits"] + plans["misses"])})
        link_index_probe(engine, inputs, spec.seed, layers)
        replay(engine, inputs, tracer, layers)
        parallel_probe(engine, inputs, fresh, layers)
        persist_probe(engine, inputs, directory, layers)
        serving_probe(engine, inputs, layers)

        outcomes = library.insert_all(engine, inputs, log, tracer)
        after_insert = []
        for statement in inputs.statements:
            start = time.perf_counter()
            engine.execute(statement.sql)
            after_insert.append(1000.0 * (time.perf_counter() - start))

        derive(tracer, inputs, layers)
        with layers.optional("repro.resilience"):
            from repro.resilience import DEGRADATION

            layers.values.update({"resilience.degradation_events": float(
                sum(DEGRADATION.layer_counts().values()) + served_degradations)})
        first_cold = tracer.durations_ms("engine.execute", kind="cold", statement=0)
        layers.values.update({
            "indices.register_s": timing["register_s"],
            "indices.rows_per_s": _ratio(rows, timing["register_s"]),
            "indices.lazy_build_s": timing["first_s"] - median(first_cold) / 1000.0,
            "parallel.child_cpu_s": max(0.0, (
                children_after.ru_utime + children_after.ru_stime
                - children_before.ru_utime - children_before.ru_stime
            )),
            "incremental.invalidated_per_row": _ratio(
                sum(outcome.invalidated for outcome in outcomes),
                sum(outcome.inserted for outcome in outcomes),
            ),
            "incremental.post_insert_query_ms": median(after_insert),
            "trace.overhead_pct": 100.0 * (1.0 - rates["traced_ops_per_s"] / rates["untraced_ops_per_s"]),
        })
    finally:
        if engine is not None:
            engine.close()
        shutil.rmtree(directory, ignore_errors=True)

    return {
        "metrics": layers.values,
        "reasons": layers.reasons,
        "bases": layers.bases,
        "attempted": log.attempted + served_log.attempted,
        "failed": log.failed + served_log.failed,
        "failures": log.failures + served_log.failures
        + [f"{layer}: {reason}" for layer, reason in layers.reasons.items()],
        "samples": {kind: log.count(kind) for kind in log.ms},
        "input_digest": inputs.digest,
        "spans": tracer.spans,
    }


def _from_csv(inputs: Inputs, directory: Any) -> Inputs:
    """*inputs* with its tables re-read from the CSVs the server was given."""
    from repro import read_csv

    inputs.tables = [
        read_csv(directory / f"{table.name}.csv", name=table.name) for table in inputs.tables
    ]
    return inputs
