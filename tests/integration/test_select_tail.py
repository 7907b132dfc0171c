"""The SELECT tail — Aggregate or Project, DISTINCT, ORDER BY, LIMIT —
behaves the same after a plain SELECT and after a SELECT DEDUP: both end
in ``RelationalPlanner.tail``, the DEDUP one over the Group-Entities
tuples."""

import pytest

from repro.core.engine import QueryEREngine
from repro.datagen import generate_people
from repro.sql.schema import SchemaResolutionError
from repro.sql.physical import _sort_key

PREFIXES = pytest.mark.parametrize("prefix", ["SELECT", "SELECT DEDUP"])


@pytest.fixture(scope="module")
def engine():
    people, _ = generate_people(300, seed=7)
    engine = QueryEREngine()
    engine.register(people)
    return engine


@PREFIXES
def test_distinct_removes_duplicate_rows(engine, prefix):
    plain = engine.execute(f"{prefix} surname FROM PPL").rows
    distinct = engine.execute(f"{prefix} DISTINCT surname FROM PPL").rows
    assert len(plain) > len(set(plain))  # there are duplicates to remove
    assert len(distinct) == len(set(distinct))
    assert set(distinct) == set(plain)


@PREFIXES
def test_order_by_a_qualified_output_column(engine, prefix):
    result = engine.execute(f"{prefix} P.surname FROM PPL P ORDER BY P.surname")
    values = result.column("surname")
    assert values == sorted(values, key=_sort_key)
    assert result.rows == engine.execute(f"{prefix} P.surname FROM PPL P ORDER BY surname").rows


@PREFIXES
def test_expression_item(engine, prefix):
    plain = engine.execute(f"{prefix} surname FROM PPL").column("surname")
    result = engine.execute(f"{prefix} UPPER(surname) AS loud FROM PPL")
    assert result.columns == ["loud"]
    assert result.column("loud") == [None if v is None else v.upper() for v in plain]


@PREFIXES
def test_group_by_order_by_limit(engine, prefix):
    result = engine.execute(
        f"{prefix} state, COUNT(*) AS n FROM PPL GROUP BY state ORDER BY n DESC LIMIT 3"
    )
    assert result.columns == ["state", "n"]
    counts = result.column("n")
    assert len(counts) == 3 and counts == sorted(counts, reverse=True)


@PREFIXES
def test_order_by_a_column_missing_from_the_output_raises(engine, prefix):
    with pytest.raises(SchemaResolutionError, match="unknown column"):
        engine.execute(f"{prefix} surname FROM PPL ORDER BY state")


@PREFIXES
def test_order_by_a_name_two_output_columns_share_raises(engine, prefix):
    with pytest.raises(SchemaResolutionError, match="ambiguous"):
        engine.execute(f"{prefix} surname, P.surname FROM PPL P ORDER BY surname")


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT DEDUP surname FROM PPL WHERE state = 'nsw' ORDER BY nosuch",
        "SELECT DEDUP surname, nosuch FROM PPL WHERE state = 'nsw'",
    ],
    ids=["order-by", "select-list"],
)
def test_an_unknown_tail_column_fails_before_any_er_work(sql):
    """The tail is built at planning time: the statement raises before
    Deduplicate resolves an entity or writes a link."""
    people, _ = generate_people(300, seed=7)
    engine = QueryEREngine()
    engine.register(people)
    with pytest.raises(SchemaResolutionError, match="unknown column 'nosuch'"):
        engine.execute(sql)
    link_index = engine.index_of("PPL").link_index
    assert link_index.resolved_count == 0
    assert not link_index.links


def test_an_unknown_tail_column_of_a_join_fails_before_any_er_work():
    """The tail of a join sees every binding's columns in join-state
    order; an unknown one raises before either side is cleaned."""
    people, _ = generate_people(200, organisations=["acme", "globex"], seed=3)
    orgs, _ = generate_people(50, seed=4)
    engine = QueryEREngine()
    engine.register(people)
    engine.register(type(orgs)("ORG", orgs.schema, [row.values for row in orgs]))
    sql = (
        "SELECT DEDUP PPL.surname, ORG.surname FROM PPL "
        "JOIN ORG ON PPL.state = ORG.state WHERE PPL.state = 'nsw' ORDER BY nosuch"
    )
    with pytest.raises(SchemaResolutionError, match="unknown column 'nosuch'"):
        engine.execute(sql)
    for name in ("PPL", "ORG"):
        link_index = engine.index_of(name).link_index
        assert link_index.resolved_count == 0
        assert not link_index.links
    # The same statement with a known column runs, both bindings visible.
    rows = engine.execute(sql.replace("nosuch", "ORG.surname")).rows
    assert rows
