"""Property test: a reader racing ``INSERT INTO`` sees whole epochs only.

The serving layer's snapshot contract (see :mod:`repro.serving.service`):
every answer is stamped with the epoch map it executed under, and for
any interleaving of concurrent readers with an insert, each answer is
byte-identical to what a *fresh* single-caller engine returns for the
stamped epoch's table state — the pre-insert answer or the post-insert
answer, never a torn in-between.

Meta-blocking is off so equality is provable (identical indices ⇒
identical candidate pairs, deterministic matcher) — the same convention
as ``test_incremental_equivalence``.
"""

from __future__ import annotations

import json
import threading

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import QueryEREngine
from repro.datagen import generate_people
from repro.datagen.people import people_schema
from repro.er.meta_blocking import MetaBlockingConfig
from repro.serving import EngineService
from repro.storage.table import Table

BASE_SIZE = 60

QUERIES = [
    "SELECT DEDUP id, given_name, surname FROM PPL WHERE state IN ('nsw', 'vic')",
    "SELECT DEDUP id, surname FROM PPL WHERE state = 'qld'",
    "SELECT DEDUP id, given_name FROM PPL WHERE MOD(id, 2) < 1",
]


def _engine(rows):
    engine = QueryEREngine(meta_blocking=MetaBlockingConfig.none())
    engine.register(Table("PPL", people_schema(), rows))
    return engine


def canonical(rows):
    return json.dumps(sorted([list(map(str, row)) for row in rows]))


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    insert_count=st.integers(min_value=1, max_value=5),
    query_index=st.integers(min_value=0, max_value=len(QUERIES) - 1),
    readers=st.integers(min_value=2, max_value=3),
)
def test_reader_racing_insert_sees_whole_epochs(seed, insert_count, query_index, readers):
    table, _ = generate_people(BASE_SIZE + insert_count, seed=seed, name="PPL")
    values = [row.values for row in table]
    base, extra = values[:BASE_SIZE], values[BASE_SIZE:]
    sql = QUERIES[query_index]

    # Fresh-engine references for both epochs of the served table.
    expected = {1: canonical(_engine(base).execute(sql).rows)}
    post_engine = _engine(base)
    post_engine.insert("PPL", extra)
    expected[2] = canonical(post_engine.execute(sql).rows)

    service = EngineService(_engine(base), max_inflight=readers + 2, cache_size=32)
    observations = []
    failures = []
    inserted = threading.Event()

    def reader():
        try:
            last = None
            # Keep reading until the insert has landed, then one tail read.
            # Cache hits bypass the engine gate, so spinning here cannot
            # deadlock the writer; consecutive identical answers are
            # collapsed to keep the observation log small.
            while True:
                done_before_query = inserted.is_set()
                served = service.query(sql)
                observation = (served.epochs["ppl"], canonical(served.rows))
                if observation != last:
                    observations.append(observation)
                    last = observation
                if done_before_query:
                    break
        except Exception as error:  # pragma: no cover - failure path
            failures.append(error)

    threads = [threading.Thread(target=reader) for _ in range(readers)]
    for thread in threads:
        thread.start()
    try:
        service.insert_rows("PPL", extra)
    finally:
        inserted.set()
    for thread in threads:
        thread.join()

    # Quiescent read: with the race over, the answer must be epoch 2's.
    tail = service.query(sql)
    observations.append((tail.epochs["ppl"], canonical(tail.rows)))

    assert not failures
    assert observations
    seen_epochs = {epoch for epoch, _ in observations}
    assert seen_epochs <= {1, 2}, f"unknown epoch stamped: {seen_epochs}"
    # The quiescent tail read ran after the insert landed.
    assert 2 in seen_epochs
    for epoch, rows in observations:
        assert rows == expected[epoch], (
            f"answer at epoch {epoch} is not that epoch's fresh-engine answer"
        )
