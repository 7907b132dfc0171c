"""Chaos property suite: random fault plans, exact answers or clean errors.

The resilience contract, stated as a property: under ANY deterministic
fault plan drawn over the engine's fault sites, a DEDUP query either

* answers **bit-identically** to the fault-free baseline (recovery was
  transparent: shard buckets re-run serially, hung shards killed and
  respawned), or
* raises a **typed** error (:class:`TaskExecutionError`,
  :class:`IngestError`, or the :class:`FaultError` of a ``packed.derive``
  fault — candidate derivation has no fallback, so a failed derive fails
  the query; never a half-written result, never a raw internal
  traceback from a partially mutated engine),

and in *both* cases the engine keeps serving exact answers once the
plan is disarmed — faults must not corrupt any state that outlives
them.  Each seed replays deterministically: a failing seed is a
reproducible bug report.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.engine import QueryEREngine
from repro.datagen import generate_people
from repro.datagen.people import people_schema
from repro.incremental import IngestError
from repro.parallel import ExecutionConfig, TaskExecutionError
from repro.resilience import DEGRADATION, FaultError, FaultPlan, clear_plan, install_plan
from repro.storage.table import Table

#: Errors the contract allows a faulted operation to surface.  A raw
#: FaultError is legal only from sites whose stage is atomic on its own
#: (storage staging, candidate derivation — the Deduplicate operator
#: touches the Link Index only after every round succeeded); recovery
#: layers otherwise wrap or absorb it.
TYPED_ERRORS = (TaskExecutionError, IngestError, FaultError)

#: The sites chaos draws from, with the kind each one must use.
CHAOS_SITES = [
    ("shard.task", "raise"),
    ("shard.task", "hang"),
    ("packed.derive", "raise"),
    ("dml.after_append", "raise"),
    ("dml.index_delta", "raise"),
    ("dml.before_commit", "raise"),
]

SQL = "SELECT DEDUP id, surname, state FROM PPL WHERE state IN ('nsw', 'vic')"

#: CI's chaos matrix shifts the seed window per leg: offset N explores
#: seeds [100*N, 100*N + 10).  Any failing seed replays locally with
#: ``REPRO_CHAOS_SEED_OFFSET`` set to the failing leg's value.
SEED_OFFSET = 100 * int(os.environ.get("REPRO_CHAOS_SEED_OFFSET", "0") or 0)


def chaos_config() -> ExecutionConfig:
    """Thresholds forced to the floor so tiny data still engages the
    shards; a tight task timeout so injected hangs exercise containment.
    Without fork there are no shards: the engine runs serially, the
    ``shard.task`` draws never fire, and the other sites still do."""
    return ExecutionConfig(
        workers=2,
        min_parallel_pairs=1,
        min_parallel_comparisons=1,
        task_timeout_s=0.15,
    )


def build_engine(rows) -> QueryEREngine:
    engine = QueryEREngine(execution=chaos_config())
    engine.register(Table("PPL", people_schema(), rows))
    return engine


def answer(engine: QueryEREngine):
    return sorted(map(tuple, engine.execute(SQL).rows), key=repr)


def random_plan(seed: int) -> FaultPlan:
    """A seeded random plan over 1–3 chaos sites."""
    rng = random.Random(seed)
    plan = FaultPlan(seed=seed)
    # One spec per site: a later draw of the same site replaces the earlier.
    for site, kind in rng.sample(CHAOS_SITES, k=rng.randint(1, 3)):
        plan.add(
            site,
            kind=kind,
            times=rng.choice([1, 2, 3, None]),
            after=rng.randint(0, 2),
            probability=rng.choice([1.0, 1.0, 0.5]),
            delay=0.4,  # hang kind: comfortably past the task timeout
        )
    return plan


@pytest.fixture(autouse=True)
def _isolated():
    clear_plan()
    DEGRADATION.clear()
    yield
    clear_plan()
    DEGRADATION.clear()


@pytest.fixture(scope="module")
def chaos_rows():
    table, _ = generate_people(130, seed=47, name="PPL")
    rows = [tuple(row.values) for row in table]
    return rows[:120], rows[120:]


@pytest.fixture(scope="module")
def baselines(chaos_rows):
    """Fault-free answers for both table states a run can end in."""
    base, extra = chaos_rows
    answers = {}
    for name, rows in (("base", base), ("grown", base + extra)):
        with build_engine(rows) as engine:
            answers[name] = answer(engine)
    return answers


@pytest.mark.parametrize("seed", [SEED_OFFSET + i for i in range(10)])
def test_chaos_plan_yields_exact_answer_or_typed_error(seed, chaos_rows, baselines):
    base, extra = chaos_rows
    # Armed before the engine's shards fork, so workers inherit it too.
    plan = random_plan(seed)
    install_plan(plan)
    with build_engine(base) as engine:
        # Phase 1 — query under fire: exact or typed, nothing in between.
        try:
            assert answer(engine) == baselines["base"]
        except TYPED_ERRORS:
            pass

        # Phase 2 — ingest under fire: committed entirely or rolled back
        # entirely; the surviving table state decides the final baseline.
        expected = baselines["base"]
        try:
            result = engine.insert("PPL", extra)
            assert result.inserted == len(extra)
            expected = baselines["grown"]
        except TYPED_ERRORS:
            assert len(engine.index_of("PPL").table) == len(base)

        # Phase 3 — disarm: the engine must serve exact answers again,
        # from exactly the state the faulted run left behind.
        clear_plan()
        assert answer(engine) == expected


@pytest.mark.parametrize("seed", [3, 11])
def test_chaos_recoveries_are_observable(seed, chaos_rows):
    """Whenever a plan actually fired mid-pipeline, either the result
    raised typed or some layer logged a degradation — recoveries are
    never silent *and* invisible."""
    base, _ = chaos_rows
    plan = FaultPlan(seed=seed).add("shard.task", times=2)
    install_plan(plan)
    with build_engine(base) as engine:
        try:
            engine.execute(SQL)
        except TYPED_ERRORS:
            pass
    if plan.fired_count():
        assert DEGRADATION.count("parallel") > 0
