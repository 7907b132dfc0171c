"""Property: the cluster-granular Dedup-Join and Group-Entities answer
exactly as the row-combination reference does.

:class:`~repro.core.planner.DedupQueryExecutor` holds one join-state
entry per cluster combination, joins cluster against cluster and fuses
only clusters of two or more rows.
:class:`reference.row_join.RowJoinExecutor` holds one entry per joined
row combination and fuses every column of every bucket.  Over a
PPL⋈OAO⋈OAP matrix — cross-binding residuals, ``SELECT *``, GROUP BY
with COUNT, DISTINCT/ORDER BY/LIMIT, three-way joins in both FROM
orders — under every execution mode and with meta-blocking off and on,
the two engines must return the same ordered rows and run the same
comparisons: on first issue, on re-issue, after cleared caches, after
an ``INSERT INTO`` and with NULL join values.  The product fuses only
the columns the relational tail reads (the select list, aggregate
arguments and GROUP BY keys; all of them under ``*`` or ``alias.*``),
the reference every column, so an aggregate over a column that is not
selected, a GROUP BY key that is not selected and ``alias.*`` are in
the matrix.  Three counts pin the granularity itself: an all-singleton
answer calls ``merge_values`` not once, a multi-row cluster calls it
once per column the tail reads, and the state Group-Entities reads has
one entry per cluster combination, not per row combination.
"""

from __future__ import annotations

import math

import pytest

import repro.core.planner as planner
from reference.row_join import _key_parts, reference_engine
from repro.core.engine import QueryEREngine
from repro.core.planner import ExecutionMode
from repro.datagen import generate_organizations, generate_people, generate_projects
from repro.er.meta_blocking import MetaBlockingConfig
from repro.storage.schema import Schema
from repro.storage.table import Table

JOIN = "FROM PPL JOIN OAO ON PPL.organisation = OAO.name"

QUERIES = {
    "single": "SELECT DEDUP * FROM PPL WHERE state IN ('nt', 'act', 'vic')",
    "two-way": f"SELECT DEDUP PPL.surname, OAO.name {JOIN} WHERE PPL.state IN ('nt', 'act')",
    "residual-or": (
        f"SELECT DEDUP PPL.surname, PPL.state, OAO.country {JOIN} "
        "WHERE PPL.state = 'nt' OR OAO.country = 'france'"
    ),
    "residual-compare": (
        f"SELECT DEDUP PPL.given_name, OAO.name {JOIN} WHERE PPL.surname < OAO.name"
    ),
    "select-star": "SELECT DEDUP * FROM OAO JOIN OAP ON OAP.organisation = OAO.name",
    "group-count": (
        f"SELECT DEDUP OAO.org_type, COUNT(*) AS n {JOIN} "
        "GROUP BY OAO.org_type ORDER BY n DESC, OAO.org_type"
    ),
    "distinct-order-limit": (
        f"SELECT DEDUP DISTINCT OAO.name, PPL.state {JOIN} ORDER BY OAO.name, PPL.state LIMIT 9"
    ),
    "three-way": (
        "SELECT DEDUP PPL.surname, OAO.name, OAP.title "
        "FROM OAP JOIN OAO ON OAP.organisation = OAO.name "
        "JOIN PPL ON PPL.organisation = OAO.name WHERE OAP.programme = 'fp7'"
    ),
    "three-way-reversed": (
        "SELECT DEDUP PPL.surname, OAO.name, OAP.title "
        "FROM PPL JOIN OAO ON PPL.organisation = OAO.name "
        "JOIN OAP ON OAP.organisation = OAO.name WHERE OAP.programme = 'fp7'"
    ),
    "aggregate-unselected": (
        f"SELECT DEDUP OAO.org_type, MIN(PPL.given_name) AS first {JOIN} "
        "GROUP BY OAO.org_type ORDER BY OAO.org_type"
    ),
    "group-key-unselected": (
        f"SELECT DEDUP COUNT(*) AS n {JOIN} GROUP BY OAO.country ORDER BY n"
    ),
    "alias-star": f"SELECT DEDUP PPL.*, OAO.name {JOIN} WHERE PPL.state IN ('nt', 'act')",
}

#: Join queries without a residual: their state is the full product.
PRODUCT_QUERIES = ("two-way", "select-star", "three-way", "three-way-reversed")

INSERT = (
    "INSERT INTO PPL (id, given_name, surname, state, organisation) VALUES "
    "(88001, 'Nova', 'Quenton', 'nt', '{org}'), "
    "(88002, 'Nova', 'Quentin', 'nt', '{org}'), "
    "(88003, 'Nova', 'Quenton', 'act', NULL)"
)

MODES = pytest.mark.parametrize("mode", list(ExecutionMode), ids=lambda m: m.value)
CONFIGS = pytest.mark.parametrize(
    "meta_blocking",
    [MetaBlockingConfig.none(), MetaBlockingConfig.all()],
    ids=["no-meta-blocking", "all-meta-blocking"],
)


def _tables(nulls: bool = False):
    orgs, _ = generate_organizations(60, seed=72)
    names = [row["name"] for row in orgs]
    people, _ = generate_people(120, organisations=names[:30], seed=73)
    projects, _ = generate_projects(80, organisations=names, seed=74)
    if nulls:
        people = _with_nulls(people, "organisation", every=4)
        projects = _with_nulls(projects, "organisation", every=5)
    return people, orgs, projects


def _with_nulls(table: Table, column: str, every: int) -> Table:
    """*table* with *column* set to NULL on every *every*-th row."""
    position = table.schema.position(column)
    rows = [
        tuple(None if (i % every == 0 and j == position) else v for j, v in enumerate(row.values))
        for i, row in enumerate(table)
    ]
    return Table(table.name, table.schema, rows)


def _engines(meta_blocking, nulls: bool = False):
    """The product engine and the reference engine, each over its own
    copy of the tables (an INSERT appends to the registered table)."""
    engines = (
        QueryEREngine(meta_blocking=meta_blocking),
        reference_engine(meta_blocking=meta_blocking),
    )
    for engine in engines:
        for table in _tables(nulls):
            engine.register(table)
    return engines


def _assert_same(engines, sql, mode):
    product, reference = (engine.execute(sql, mode=mode) for engine in engines)
    assert product.columns == reference.columns, sql
    assert product.rows == reference.rows, sql
    assert product.comparisons == reference.comparisons, sql
    return product


def _run_matrix(engines, mode):
    """Each statement issued then re-issued on both engines; the answers
    per statement."""
    answers = {}
    for name, sql in QUERIES.items():
        answers[name] = _assert_same(engines, sql, mode)
        _assert_same(engines, sql, mode)
    return answers


@MODES
@CONFIGS
def test_matrix_equals_row_reference(mode, meta_blocking):
    engines = _engines(meta_blocking)
    answers = _run_matrix(engines, mode)
    assert all(answers[name].rows for name in QUERIES), "every statement answers rows"

    for engine in engines:
        engine.clear_caches()
    _run_matrix(engines, mode)

    org = engines[0].index_of("OAO").table[0]["name"]
    for engine in engines:
        engine.execute(INSERT.format(org=org))
    _run_matrix(engines, mode)


@MODES
def test_null_join_values_equal_row_reference(mode):
    engines = _engines(MetaBlockingConfig.none(), nulls=True)
    answers = _run_matrix(engines, mode)
    assert answers["select-star"].rows


# -- the granularity itself ---------------------------------------------------
def _recording(engine):
    """The join states *engine*'s Group-Entities reads, one per statement,
    each with the columns the tail reads."""
    states = []
    group = engine._executor._group

    def recording(state, read):
        states.append((state, read))
        return group(state, read)

    engine._executor._group = recording
    return states


def _counting_merge(monkeypatch):
    calls = []
    merge = planner.merge_values

    def counting(values):
        calls.append(None)
        return merge(values)

    monkeypatch.setattr(planner, "merge_values", counting)
    return calls


@MODES
def test_state_holds_one_entry_per_cluster_combination(mode):
    product, reference = _engines(MetaBlockingConfig.none())
    product_states, reference_states = _recording(product), _recording(reference)
    collapsed = 0
    for name in PRODUCT_QUERIES:
        product.execute(QUERIES[name], mode=mode)
        reference.execute(QUERIES[name], mode=mode)
        (state, _), (reference_state, _) = product_states[-1], reference_states[-1]
        keys = set(
            zip(
                *(
                    _key_parts(column, reference_state.results[binding].links.representative)
                    for binding, column in zip(reference_state.bindings, zip(*reference_state.rows))
                )
            )
        )
        assert len(state.entries) == len(keys), name
        assert {entry_keys for entry_keys, _ in state.entries} == keys, name
        combinations = sum(math.prod(map(len, clusters)) for _, clusters in state.entries)
        assert combinations == len(reference_state.rows), name
        collapsed += len(reference_state.rows) - len(state.entries)
    assert collapsed > 0, "some cluster holds more than one row"


#: Per query, the columns its tail reads, by binding in join-state order
#: (ALL: every column of the binding).
ALL = "*"
READ = {
    "single": (ALL,),
    "two-way": (("surname",), ("name",)),
    "residual-or": (("surname", "state"), ("country",)),
    "residual-compare": (("given_name",), ("name",)),
    "select-star": (ALL, ALL),
    "group-count": ((), ("org_type",)),
    "distinct-order-limit": (("state",), ("name",)),
    "three-way": (("title",), ("name",), ("surname",)),
    "three-way-reversed": (("surname",), ("name",), ("title",)),
    "aggregate-unselected": (("given_name",), ("org_type",)),
    "group-key-unselected": ((), ("country",)),
    "alias-star": (ALL, ("name",)),
}


def test_fuses_only_clusters_of_two_or_more_rows(monkeypatch):
    """Only clusters of two or more rows fuse, and of those only the
    columns the tail reads (each binding here is its table's name)."""
    engine = QueryEREngine(meta_blocking=MetaBlockingConfig.none())
    for table in _tables():
        engine.register(table)
    states = _recording(engine)
    calls = _counting_merge(monkeypatch)
    fused_fewer = 0
    for name in QUERIES:
        before = len(calls)
        engine.execute(QUERIES[name])
        state, read = states[-1]
        schemas = [engine.index_of(binding).table.schema for binding in state.bindings]
        names = tuple(
            tuple(schema.names[p] for p in positions) for schema, positions in zip(schemas, read)
        )
        expected_names = tuple(
            tuple(schema.names) if columns == ALL else columns
            for schema, columns in zip(schemas, READ[name])
        )
        assert names == expected_names, name
        every = sum(
            len(cluster[0].values)
            for _, clusters in state.entries
            for cluster in clusters
            if len(cluster) > 1
        )
        expected = sum(
            len(read[binding])
            for _, clusters in state.entries
            for binding, cluster in enumerate(clusters)
            if len(cluster) > 1
        )
        assert len(calls) - before == expected, name
        fused_fewer += every - expected
    assert calls, "some answer fuses a duplicate cluster"
    assert fused_fewer, "some answer leaves an unread column of a cluster unfused"



def test_all_singleton_answer_calls_no_merge(monkeypatch):
    cities = Table(
        "CITY",
        Schema.of("id", "name", "river"),
        [(1, "Lisbon", "Tagus"), (2, "Vienna", "Danube"), (3, "Cairo", "Nile")],
    )
    people = Table(
        "RESIDENT",
        Schema.of("id", "given", "city"),
        [(10, "Amara", "Lisbon"), (11, "Bodil", "Vienna"), (12, "Cyprian", "Cairo")],
    )
    engine = QueryEREngine()
    engine.register(cities)
    engine.register(people)
    calls = _counting_merge(monkeypatch)
    single = engine.execute("SELECT DEDUP * FROM CITY")
    joined = engine.execute(
        "SELECT DEDUP RESIDENT.given, CITY.river FROM RESIDENT "
        "JOIN CITY ON RESIDENT.city = CITY.name"
    )
    assert single.rows == [row.values for row in cities]
    assert sorted(joined.rows) == [("Amara", "Tagus"), ("Bodil", "Danube"), ("Cyprian", "Nile")]
    assert calls == []
