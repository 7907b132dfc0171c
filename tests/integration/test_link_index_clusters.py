"""Integration: PPL ⋈ OAO re-issues over a large false OAO cluster.

Organisation names share a tiny vocabulary, so the matcher links 118 of
these 180 organisations into one false cluster.  Every cluster read of
that session — the Deduplicate operator's resolved entities, Dedup-Join
and Group-Entities — goes through the Link Index's member index.  The
digests pin, statement by statement, the answer rows of the first issue
and the re-issue and the Link Index pair set of each table after each
issue; they were taken from the adjacency-walk Link Index the member
index replaced.
"""

import hashlib

import pytest

from repro import QueryEREngine
from repro.datagen import generate_organizations, generate_people

SQL = (
    "SELECT DEDUP PPL.id, PPL.surname, OAO.name, OAO.country FROM PPL "
    "JOIN OAO ON PPL.organisation = OAO.name WHERE PPL.state IN ({})"
)

#: (states, issue) → first 16 hex digits of sha256 over the answer
#: rows, the sorted PPL link pairs and the sorted OAO link pairs.
SESSION = [
    ("'nsw'", ("76d6fcf6388996d2", "f9c63ab268ee8eae", "b4b5d981ffed4a36")),
    ("'nsw'", ("76d6fcf6388996d2", "f9c63ab268ee8eae", "41ee3f6f778b46b4")),
    ("'nsw', 'vic'", ("abf94bab4cb50b38", "840b8578fbd4dd17", "548b99d77de2cae3")),
    ("'nsw', 'vic'", ("abf94bab4cb50b38", "840b8578fbd4dd17", "548b99d77de2cae3")),
    ("'nsw', 'vic', 'qld', 'wa'", ("f93f7683d88ec725", "b3a9a5c85409fbc8", "d8a092a3a971b3eb")),
    ("'nsw', 'vic', 'qld', 'wa'", ("f93f7683d88ec725", "b3a9a5c85409fbc8", "d8a092a3a971b3eb")),
    ("'nsw'", ("76d6fcf6388996d2", "b3a9a5c85409fbc8", "d8a092a3a971b3eb")),
    ("'nsw'", ("76d6fcf6388996d2", "b3a9a5c85409fbc8", "d8a092a3a971b3eb")),
]


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def tables():
    oao, _ = generate_organizations(180, seed=9)
    names = [row["name"] for row in oao]
    unlisted = [f"unlisted employer {i}" for i in range(len(names))]
    ppl, _ = generate_people(120, organisations=names + unlisted, seed=2)
    return ppl, oao


def test_session_rows_and_link_pairs_are_pinned(tables):
    engine = QueryEREngine()
    for table in tables:
        engine.register(table)
    observed = []
    for states, _ in SESSION:
        rows = engine.execute(SQL.format(states)).rows
        observed.append(
            (
                states,
                (
                    _digest(rows),
                    _digest(sorted(engine.index_of("PPL").link_index.links)),
                    _digest(sorted(engine.index_of("OAO").link_index.links)),
                ),
            )
        )
    assert observed == SESSION
    oao_links = engine.index_of("OAO").link_index.links
    assert max(len(cluster) for cluster in oao_links.clusters()) == 118


def test_group_representatives_are_cluster_minima(tables):
    engine = QueryEREngine()
    for table in tables:
        engine.register(table)
    engine.execute(SQL.format("'nsw', 'vic', 'qld', 'wa'"))
    links = engine.index_of("OAO").link_index.links
    for cluster in links.clusters():
        smallest = min(cluster, key=repr)
        assert {links.representative(member) for member in cluster} == {smallest}
