"""Property: the §7.2.1 plan changes how an answer is computed, never what.

:class:`~repro.core.planner.DedupQueryPlanner` picks which side of a
DEDUP query's first join is cleaned first.  Whichever side it picks, and
wherever the plan comes from — a fresh planning, the plan cache, or an
engine warm-restarted from a snapshot — the rows
equal those of NES (both branches cleaned independently, Fig. 6) and of
BATCH (every table cleaned before the query, §5).  Meta-blocking is off
so equality is provable (the same convention as
``test_incremental_equivalence``).  The matrix crosses datasets with
2-way, 3-way, deliberately bad FROM order and ``SELECT *`` shapes, and
includes an ``INSERT INTO`` boundary — the one place a stale cached plan
could go quietly wrong.
"""

from __future__ import annotations

import json

import pytest

from repro.core.engine import QueryEREngine
from repro.core.planner import ExecutionMode
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
    # The three-way join graph with the big unfiltered table first.
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

INSERT = (
    "INSERT INTO PPL (id, given_name, surname, state, organisation) VALUES "
    "(88001, 'Nova', 'Quenton', 'nt', 'fresh employer one'), "
    "(88002, 'Nova', 'Quentin', 'nt', 'fresh employer one')"
)


def _tables(spec):
    orgs_n, people_n, projects_n, seed = spec
    orgs, _ = generate_organizations(orgs_n, seed=seed)
    names = [row["name"] for row in orgs]
    people, _ = generate_people(people_n, organisations=names[: orgs_n // 2], seed=seed + 1)
    projects, _ = generate_projects(projects_n, organisations=names, seed=seed + 2)
    return people, orgs, projects


def _engine(tables, meta_blocking=None):
    engine = QueryEREngine(meta_blocking=meta_blocking or MetaBlockingConfig.none())
    for table in tables:
        engine.register(table)
    return engine


def canonical(rows):
    return json.dumps(sorted([list(map(str, row)) for row in rows]))


@pytest.mark.parametrize("mode", [ExecutionMode.NES, ExecutionMode.BATCH], ids=lambda m: m.value)
@pytest.mark.parametrize("dataset", sorted(DATASETS))
@pytest.mark.parametrize("qid", sorted(QUERIES))
def test_clean_first_plan_answers_like_the_reference_modes(mode, dataset, qid):
    tables = _tables(DATASETS[dataset])
    sql = QUERIES[qid]
    planned = _engine(tables).execute(sql, ExecutionMode.AES)
    reference = _engine(tables).execute(sql, mode)
    assert canonical(planned.rows) == canonical(reference.rows)
    assert planned.columns == reference.columns


@pytest.mark.parametrize("dataset", sorted(DATASETS))
@pytest.mark.parametrize("qid", sorted(QUERIES))
def test_answers_survive_a_warm_restart(dataset, qid, tmp_path):
    """An engine loaded from a snapshot plans from its restored blocking
    indices and Link Index and answers like a fresh engine."""
    tables = _tables(DATASETS[dataset])
    sql = QUERIES[qid]
    fresh = _engine(tables).execute(sql)
    saved = _engine(tables)
    saved.save(tmp_path / "snapshot")
    with QueryEREngine.load(tmp_path / "snapshot") as loaded:
        restarted = loaded.execute(sql)
    assert canonical(restarted.rows) == canonical(fresh.rows)
    assert restarted.columns == fresh.columns


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_from_order_does_not_change_answers(dataset):
    """The same join graph written selective-first and big-table-first."""
    tables = _tables(DATASETS[dataset])
    good = _engine(tables).execute(QUERIES["three-way"])
    bad = _engine(tables).execute(QUERIES["bad-order"])
    assert canonical(bad.rows) == canonical(good.rows)


@pytest.mark.parametrize("qid", ["two-way", "bad-order"])
def test_answers_across_insert_ignore_the_stale_plan(qid):
    """A plan cached before ``INSERT INTO`` is not reused after it, and
    the post-insert answer equals that of an engine that never saw the
    pre-insert plan."""
    sql = QUERIES[qid]
    warm = _engine(_tables(DATASETS["small"]))
    warm.execute(sql)  # cache the plan at the pre-insert epoch
    warm.execute(INSERT)
    misses = warm.plan_cache.snapshot()["misses"]
    after = warm.execute(sql)
    assert warm.plan_cache.snapshot()["misses"] == misses + 1

    cold = _engine(_tables(DATASETS["small"]))
    cold.execute(INSERT)
    assert canonical(after.rows) == canonical(cold.execute(sql).rows)


def test_cached_plan_runs_like_a_fresh_one_under_default_meta_blocking():
    """With the default meta-blocking, a plan served from the cache does
    the same work and returns the same rows as the fresh planning did."""
    engine = _engine(_tables(DATASETS["small"]), meta_blocking=MetaBlockingConfig.all())
    sql = QUERIES["bad-order"]
    first = engine.execute(sql)
    engine.clear_caches()  # cold Link Index and matcher memos; plans stay
    hits = engine.plan_cache.snapshot()["hits"]
    second = engine.execute(sql)
    assert engine.plan_cache.snapshot()["hits"] == hits + 1
    assert canonical(second.rows) == canonical(first.rows)
    assert second.comparisons == first.comparisons
