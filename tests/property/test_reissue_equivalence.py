"""Property: the re-issue path reads Link Index clusters exactly as the
star-copy reference copies them.

:class:`~repro.core.dedup_operator.DeduplicateOperator` joins a resolved
entity's Link Index cluster into its result as one component and leaves
the entity's star to the Link Index's commit, which skips stars whose
cluster has not grown.  :class:`reference.star_copy.StarCopyDeduplicate`
copies every cluster it reads as a star of pairs and commits every pair.
Over random statement sequences — nested and overlapping selections, a
PPL⋈OAO join and an aggregate, each issued then re-issued, under every
execution mode — with ``INSERT INTO`` batches, ``clear_caches`` and a
save then load between them, the product and the reference must return
the same rows and comparisons, and hold the same sorted Link Index
pairs, after every step.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference.star_copy import star_copy_engine, star_copy_load
from repro.core.engine import QueryEREngine
from repro.core.planner import ExecutionMode
from repro.datagen import generate_organizations, generate_people

JOIN = "FROM PPL JOIN OAO ON PPL.organisation = OAO.name"

STATEMENTS = (
    "SELECT DEDUP * FROM PPL WHERE state = 'nt'",
    "SELECT DEDUP * FROM PPL WHERE state IN ('nt', 'act')",
    "SELECT DEDUP * FROM PPL WHERE state IN ('nt', 'act', 'vic')",
    "SELECT DEDUP surname, state FROM PPL WHERE state IN ('act', 'qld')",
    "SELECT DEDUP * FROM OAO",
    "SELECT DEDUP name FROM OAO WHERE country = 'france'",
    "SELECT DEDUP given_name, surname FROM PPL",
    f"SELECT DEDUP PPL.surname, OAO.name {JOIN} WHERE PPL.state IN ('nt', 'act')",
    f"SELECT DEDUP OAO.org_type, COUNT(*) AS n {JOIN} GROUP BY OAO.org_type ORDER BY OAO.org_type",
)

steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("query"),
            st.tuples(
                st.integers(min_value=0, max_value=len(STATEMENTS) - 1),
                st.sampled_from(list(ExecutionMode)),
            ),
        ),
        st.tuples(st.just("insert"), st.integers(min_value=0, max_value=199)),
        st.tuples(st.just("clear"), st.none()),
        st.tuples(st.just("reload"), st.none()),
    ),
    min_size=1,
    max_size=8,
)


def _tables():
    """PPL and OAO.  At 180 rows OAO's names share so small a vocabulary
    that the matcher chains them into large clusters that are not
    cliques, so a star holds pairs the matcher never produced."""
    orgs, _ = generate_organizations(180, seed=81)
    employers = [row["name"] for row in orgs][:60] + [f"unlisted employer {i}" for i in range(20)]
    people, _ = generate_people(160, max_duplicates_per_record=4, organisations=employers, seed=82)
    return people, orgs


def _engines():
    engines = [QueryEREngine(), star_copy_engine()]
    for engine in engines:
        for table in _tables():
            engine.register(table)
    return engines


def _link_pairs(engine):
    return {
        name: sorted(map(repr, engine.index_of(name).link_index.links))
        for name in ("PPL", "OAO")
    }


def _insert(engines, source: int, batch: int):
    """A batch of two near-duplicates of PPL row *source*, fresh ids."""
    people = engines[0].index_of("PPL").table
    values = people[source % len(people)].values
    surname = people.schema.position("surname")
    rows = []
    for offset, suffix in enumerate(("", "e")):
        row = list(values)
        row[0] = 90_000 + 2 * batch + offset
        row[surname] = f"{values[surname]}{suffix}"
        rows.append(tuple(row))
    for engine in engines:
        engine.insert("PPL", rows)


def _reload(engines):
    with tempfile.TemporaryDirectory() as directory:
        engines[0].save(Path(directory) / "product")
        engines[1].save(Path(directory) / "reference")
        return [
            QueryEREngine.load(Path(directory) / "product"),
            star_copy_load(Path(directory) / "reference"),
        ]


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(steps)
def test_statement_sequences_equal_the_star_copy_reference(script):
    engines = _engines()
    batches = 0
    for kind, argument in script:
        if kind == "query":
            statement, mode = argument
            for _ in range(2):  # first issue (or not), then a re-issue
                product, reference = (
                    engine.execute(STATEMENTS[statement], mode=mode) for engine in engines
                )
                assert product.rows == reference.rows
                assert product.comparisons == reference.comparisons
        elif kind == "insert":
            _insert(engines, argument, batches)
            batches += 1
        elif kind == "clear":
            for engine in engines:
                engine.clear_caches()
        else:
            engines = _reload(engines)
        assert _link_pairs(engines[0]) == _link_pairs(engines[1])
