"""Chaos property suite: random fault plans, exact answers or clean errors.

The resilience contract, stated as a property: under ANY deterministic
fault plan drawn over the engine's fault sites, a DEDUP query either

* answers **bit-identically** to the fault-free baseline (the fault
  never reached the query, or its stage recovered transparently), or
* raises a **typed** error (:class:`IngestError`, or the
  :class:`FaultError` of a ``packed.derive`` fault — candidate
  derivation has no fallback, so a failed derive fails the query;
  never a half-written result, never a raw internal traceback from a
  partially mutated engine),

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
from repro.resilience import DEGRADATION, FaultError, FaultPlan, clear_plan, install_plan
from repro.storage.table import Table

#: Errors the contract allows a faulted operation to surface.  A raw
#: FaultError is legal only from sites whose stage is atomic on its own
#: (storage staging, candidate derivation — the Deduplicate operator
#: touches the Link Index only after every round succeeded); recovery
#: layers otherwise wrap or absorb it.
TYPED_ERRORS = (IngestError, FaultError)

#: The sites chaos draws from, with the kind each one must use.
CHAOS_SITES = [
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


def build_engine(rows) -> QueryEREngine:
    engine = QueryEREngine()
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


@pytest.mark.parametrize("times", [1, None], ids=["once", "always"])
@pytest.mark.parametrize(
    "site, kind", CHAOS_SITES, ids=[site for site, _ in CHAOS_SITES]
)
def test_each_site_alone_fails_its_stage_typed(site, kind, times, chaos_rows, baselines):
    """One site armed alone, on every call or only the first: it fires,
    the stage it sits in — the query for ``packed.derive``, the insert
    for the ``dml.*`` sites — fails typed without touching the table,
    and the disarmed engine answers from the state that survived."""
    base, extra = chaos_rows
    plan = FaultPlan(seed=0).add(site, kind=kind, times=times)
    install_plan(plan)
    query_site = site == "packed.derive"
    with build_engine(base) as engine:
        if query_site:
            with pytest.raises(FaultError):
                answer(engine)
            engine.insert("PPL", extra)
            expected = baselines["grown"]
        else:
            assert answer(engine) == baselines["base"]
            with pytest.raises(IngestError):
                engine.insert("PPL", extra)
            assert len(engine.index_of("PPL").table) == len(base)
            expected = baselines["base"]
        assert plan.fired_count(site) == 1
        clear_plan()
        assert answer(engine) == expected


#: The per-row sites and what a fault at each surfaces as: storage
#: staging is atomic on its own and raises raw; index amendment is
#: rolled back and wrapped.
PER_ROW_SITES = {"table.append_row": FaultError, "dml.index_delta": IngestError}


@pytest.mark.parametrize("after", [1, 5, 9])
@pytest.mark.parametrize("site", sorted(PER_ROW_SITES))
def test_mid_batch_fault_rolls_back_the_whole_batch(site, after, chaos_rows, baselines):
    """A per-row site fails the batch after *after* rows were already
    staged or indexed: those rows are undone too, and the engine answers
    from the pre-insert table, then takes the same batch cleanly."""
    base, extra = chaos_rows
    plan = FaultPlan(seed=0).add(site, after=after)
    with build_engine(base) as engine:
        install_plan(plan)  # armed after registration, which stages rows too
        epoch = engine.epoch_of("PPL")
        with pytest.raises(PER_ROW_SITES[site]):
            engine.insert("PPL", extra)
        assert plan.fired_count(site) == 1
        assert len(engine.index_of("PPL").table) == len(base)
        assert engine.index_of("PPL").postings.entity_count == len(base)
        assert engine.epoch_of("PPL") == epoch
        clear_plan()
        assert answer(engine) == baselines["base"]
        assert engine.insert("PPL", extra).inserted == len(extra)
        assert answer(engine) == baselines["grown"]


@pytest.mark.parametrize("seed", [3, 11])
def test_chaos_recoveries_are_observable(seed, chaos_rows):
    """Whenever a plan actually fired mid-ingest, the insert raised typed
    and the rollback was logged as a degradation — recoveries are never
    silent *and* invisible."""
    base, extra = chaos_rows
    plan = FaultPlan(seed=seed).add("dml.index_delta", times=2)
    install_plan(plan)
    with build_engine(base) as engine:
        try:
            engine.insert("PPL", extra)
        except TYPED_ERRORS:
            pass
    if plan.fired_count():
        assert DEGRADATION.count("dml") > 0
