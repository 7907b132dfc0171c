"""Regression: the §7.2.1 planner's executed comparisons and rows.

:class:`~repro.core.planner.DedupQueryPlanner` cleans the side of a
DEDUP query's first join with the smaller comparison estimate first and
lets every later table enter dirty.  These statements pin what that plan
executes under ``MetaBlockingConfig.none()`` — exact comparison and row
counts — so a planner or executor change that moves either shows here.
A low join percentage on people (half of them work at an organisation
outside OAO) is the regime where the placement matters (§9.4).
"""

from __future__ import annotations

import pytest

from repro.core.engine import QueryEREngine
from repro.datagen import generate_organizations, generate_people, generate_projects
from repro.er.meta_blocking import MetaBlockingConfig


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
    # join: the planner cleans the cheaper side of PPL ⋈ OAO first.
    "q-bad-order": (
        "SELECT DEDUP P.given_name, P.surname, O.name, J.title "
        "FROM PPL P "
        "JOIN OAO O ON P.organisation = O.name "
        "JOIN OAP J ON J.organisation = O.name "
        "WHERE J.programme = 'fp7'",
        46969, 67,
    ),
    # The same join graph written selectively-first.
    "q-good-order": (
        "SELECT DEDUP P.given_name, P.surname, O.name, J.title "
        "FROM OAP J "
        "JOIN OAO O ON J.organisation = O.name "
        "JOIN PPL P ON P.organisation = O.name "
        "WHERE J.programme = 'fp7'",
        42750, 67,
    ),
    # Placement only: which branch cleans first.
    "q-two-way": (
        "SELECT DEDUP P.given_name, O.name "
        "FROM PPL P JOIN OAO O ON P.organisation = O.name "
        "WHERE P.state IN ('nt', 'act')",
        11397, 14,
    ),
}


@pytest.mark.parametrize("qid", sorted(PLANNER_QUERIES))
def test_planner_executes_pinned_comparisons_and_rows(planner_tables, qid):
    sql, comparisons, rows = PLANNER_QUERIES[qid]
    engine = QueryEREngine(meta_blocking=MetaBlockingConfig.none())
    for table in planner_tables:
        engine.register(table)
    result = engine.execute(sql)
    assert (result.comparisons, len(result)) == (comparisons, rows)
