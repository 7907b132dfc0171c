"""Property: the optimizer is a pure plan selector — answers never change.

The optimizer's contract (``repro.optimizer``) is that cost-based join
reordering and DEDUP placement only change *how* an answer is computed:
with the identity gate satisfied (meta-blocking off) every optimized
plan returns bit-identical rows to the seed heuristic plan, and with
the gate failing (the default meta-blocking configuration) the
heuristic plan runs unchanged.  These tests pin that contract across a
fixed matrix of datasets × query shapes (2-way, 3-way, deliberately
bad FROM order), including across an ``INSERT INTO`` boundary — the
one place a stale cached plan could go quietly wrong.
"""

from __future__ import annotations

import json

import pytest

from repro.core.engine import QueryEREngine
from repro.datagen import generate_organizations, generate_people, generate_projects
from repro.er.meta_blocking import MetaBlockingConfig

QUERIES = {
    "two-way": (
        "SELECT DEDUP PPL.surname, OAO.name "
        "FROM PPL JOIN OAO ON PPL.organisation = OAO.name "
        "WHERE PPL.state IN ('nt', 'act')"
    ),
    "three-way": (
        "SELECT DEDUP PPL.surname, OAO.name, OAP.title "
        "FROM OAP "
        "JOIN OAO ON OAP.organisation = OAO.name "
        "JOIN PPL ON PPL.organisation = OAO.name "
        "WHERE OAP.programme = 'fp7'"
    ),
    # The big unfiltered table first: the shape the optimizer rewrites.
    "bad-order": (
        "SELECT DEDUP PPL.surname, OAO.name, OAP.title "
        "FROM PPL "
        "JOIN OAO ON PPL.organisation = OAO.name "
        "JOIN OAP ON OAP.organisation = OAO.name "
        "WHERE OAP.programme = 'fp7'"
    ),
    "select-star": "SELECT DEDUP * FROM OAO JOIN OAP ON OAP.organisation = OAO.name",
}

DATASETS = {
    "small": (40, 80, 50, 71),
    "joined": (60, 120, 80, 72),
}


def _tables(spec):
    orgs_n, people_n, projects_n, seed = spec
    orgs, _ = generate_organizations(orgs_n, seed=seed)
    names = [row["name"] for row in orgs]
    people, _ = generate_people(people_n, organisations=names[: orgs_n // 2], seed=seed + 1)
    projects, _ = generate_projects(projects_n, organisations=names, seed=seed + 2)
    return people, orgs, projects


def _engine(tables, optimizer, meta_blocking=None):
    engine = QueryEREngine(
        meta_blocking=meta_blocking or MetaBlockingConfig.none(),
        optimizer=optimizer,
    )
    for table in tables:
        engine.register(table)
    return engine


def canonical(rows):
    return json.dumps(sorted([list(map(str, row)) for row in rows]))


@pytest.mark.parametrize("dataset", sorted(DATASETS))
@pytest.mark.parametrize("qid", sorted(QUERIES))
def test_optimizer_preserves_answers(dataset, qid):
    tables = _tables(DATASETS[dataset])
    sql = QUERIES[qid]
    heuristic = _engine(tables, optimizer=False).execute(sql)
    optimized = _engine(tables, optimizer=True).execute(sql)
    assert canonical(optimized.rows) == canonical(heuristic.rows)
    assert optimized.columns == heuristic.columns


@pytest.mark.parametrize("dataset", sorted(DATASETS))
@pytest.mark.parametrize("qid", sorted(QUERIES))
def test_optimizer_preserves_answers_after_load(dataset, qid, tmp_path):
    """A warm-restarted engine prices plans with the statistics and join
    percentages its snapshot carried, not freshly sampled ones."""
    tables = _tables(DATASETS[dataset])
    sql = QUERIES[qid]
    heuristic = _engine(tables, optimizer=False).execute(sql)
    saved = _engine(tables, optimizer=True)
    saved.execute("EXPLAIN " + sql)  # read the estimates, so the snapshot keeps them
    saved.save(tmp_path / "snapshot")
    with QueryEREngine.load(tmp_path / "snapshot") as loaded:
        assert loaded.optimizer_enabled
        optimized = loaded.execute(sql)
    assert canonical(optimized.rows) == canonical(heuristic.rows)
    assert optimized.columns == heuristic.columns


@pytest.mark.parametrize("qid", ["two-way", "bad-order"])
def test_optimizer_preserves_answers_across_insert(qid):
    sql = QUERIES[qid]
    insert = (
        "INSERT INTO PPL (id, given_name, surname, state, organisation) VALUES "
        "(88001, 'Nova', 'Quenton', 'nt', 'fresh employer one'), "
        "(88002, 'Nova', 'Quentin', 'nt', 'fresh employer one')"
    )
    engines = [
        _engine(_tables(DATASETS["small"]), optimizer=flag)
        for flag in (False, True)
    ]
    for engine in engines:
        engine.execute(sql)  # populate caches at the pre-insert epoch
        engine.execute(insert)
    answers = [canonical(engine.execute(sql).rows) for engine in engines]
    assert answers[0] == answers[1]


def test_default_meta_blocking_falls_back_to_heuristic_identically():
    tables = _tables(DATASETS["small"])
    sql = QUERIES["bad-order"]
    heuristic = _engine(
        tables, optimizer=False, meta_blocking=MetaBlockingConfig.all()
    ).execute(sql)
    gated = _engine(
        tables, optimizer=True, meta_blocking=MetaBlockingConfig.all()
    ).execute(sql)
    assert canonical(gated.rows) == canonical(heuristic.rows)
    assert gated.comparisons == heuristic.comparisons


# A low join percentage on people (half of them work at an organisation
# outside OAO) is the regime where join order and placement pay (§9.4).
@pytest.fixture(scope="module")
def planner_tables():
    orgs, _ = generate_organizations(100, seed=31)
    names = [row["name"] for row in orgs]
    unlisted = [f"unlisted employer {i}" for i in range(100)]
    people, _ = generate_people(400, organisations=names[:50] + unlisted, seed=32)
    projects, _ = generate_projects(
        200, organisations=names, join_fraction=0.7, seed=33
    )
    return people, orgs, projects


PLANNER_QUERIES = {
    # The big unfiltered table first, the selective filter on the last
    # join: a FROM-order planner cleans all of PPL's frontier.
    "q-bad-order": (
        "SELECT DEDUP P.given_name, P.surname, O.name, J.title "
        "FROM PPL P "
        "JOIN OAO O ON P.organisation = O.name "
        "JOIN OAP J ON J.organisation = O.name "
        "WHERE J.programme = 'fp7'",
        46969, 42730, 67,
    ),
    # The same join graph written selectively-first.
    "q-good-order": (
        "SELECT DEDUP P.given_name, P.surname, O.name, J.title "
        "FROM OAP J "
        "JOIN OAO O ON J.organisation = O.name "
        "JOIN PPL P ON P.organisation = O.name "
        "WHERE J.programme = 'fp7'",
        42750, 42730, 67,
    ),
    # Placement only: which branch cleans first.
    "q-two-way": (
        "SELECT DEDUP P.given_name, O.name "
        "FROM PPL P JOIN OAO O ON P.organisation = O.name "
        "WHERE P.state IN ('nt', 'act')",
        11397, 11397, 14,
    ),
}


@pytest.mark.parametrize("qid", sorted(PLANNER_QUERIES))
def test_optimizer_executes_fewer_comparisons_with_identical_rows(planner_tables, qid):
    """Exact executed comparisons, heuristic → optimized, same bytes out."""
    sql, heuristic_cmps, optimized_cmps, rows = PLANNER_QUERIES[qid]
    heuristic_engine = _engine(planner_tables, optimizer=False)
    optimized_engine = _engine(planner_tables, optimizer=True)
    heuristic = heuristic_engine.execute(sql)
    optimized = optimized_engine.execute(sql)
    assert (heuristic.comparisons, optimized.comparisons) == (
        heuristic_cmps,
        optimized_cmps,
    )
    assert len(optimized) == rows
    assert canonical(optimized.rows) == canonical(heuristic.rows)

    optimized_engine.execute(sql)
    assert optimized_engine.plan_cache.snapshot()["hits"] == 1
