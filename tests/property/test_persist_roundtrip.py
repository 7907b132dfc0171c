"""Property test: ``load(save(engine))`` ≡ the live engine ≡ a fresh one.

The persistence contract (repro.persist): snapshotting an engine — base
segment plus any number of epoch-tagged delta checkpoints from committed
``INSERT INTO`` batches — and loading it back yields an engine whose
every ``SELECT DEDUP`` answer is bit-identical to both the live engine
it was saved from and a fresh engine registered with the final rows.
Meta-blocking is off so equality is provable (identical indices ⇒
identical candidate pairs, and the matcher is deterministic) — the same
convention as ``test_incremental_equivalence``.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import QueryEREngine
from repro.datagen import generate_people
from repro.er.meta_blocking import MetaBlockingConfig
from repro.sql.ast import Literal
from repro.storage.table import Table


def engine_for(table):
    engine = QueryEREngine(meta_blocking=MetaBlockingConfig.none())
    engine.register(table)
    return engine


def insert_sql(rows):
    rendered = ", ".join(
        "(" + ", ".join(str(Literal(value)) for value in row) + ")" for row in rows
    )
    return f"INSERT INTO PPL VALUES {rendered}"


WHERE_TEMPLATES = [
    "state = 'nt'",
    "state IN ('nsw', 'vic')",
    "MOD(id, {mod}) < 1",
    "id <= {bound}",
    "surname LIKE '{prefix}%'",
]


@st.composite
def scenarios(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    size = draw(st.integers(min_value=40, max_value=80))
    base_fraction = draw(st.floats(min_value=0.5, max_value=0.9))
    batches = draw(st.integers(min_value=0, max_value=2))

    def where():
        template = draw(st.sampled_from(WHERE_TEMPLATES))
        return template.format(
            mod=draw(st.integers(min_value=2, max_value=9)),
            bound=draw(st.integers(min_value=5, max_value=100)),
            prefix=draw(st.sampled_from("abcdgjmsw")),
        )

    return seed, size, base_fraction, batches, where()


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=scenarios())
def test_snapshot_roundtrip_equals_live_and_fresh(tmp_path_factory, scenario):
    seed, size, base_fraction, batches, final = scenario
    directory = tmp_path_factory.mktemp("snap")
    table, _ = generate_people(size, seed=seed)
    rows = [tuple(r.values) for r in table]
    split = max(1, int(size * base_fraction)) if batches else size

    live = engine_for(Table("PPL", table.schema, rows[:split], coerce=False))
    live.enable_checkpointing(directory)  # base snapshot now, deltas per commit

    pending = rows[split:]
    per_batch = max(1, len(pending) // batches) if batches else len(pending) or 1
    for start in range(0, len(pending), per_batch):
        live.execute(insert_sql(pending[start : start + per_batch]))

    warm = QueryEREngine.load(directory)
    fresh = engine_for(Table("PPL", table.schema, rows, coerce=False))

    assert warm.table_epochs() == live.table_epochs()
    sql = f"SELECT DEDUP id, given_name, surname, state FROM PPL WHERE {final}"
    live_rows = live.execute(sql).sorted_rows()
    assert warm.execute(sql).sorted_rows() == live_rows
    assert fresh.execute(sql).sorted_rows() == live_rows


#: PPL Q1/Q3/Q5 of the paper's SP workload (≈5%, ≈35%, ≈80% selectivity).
WARM_QUERIES = [
    "SELECT DEDUP id, given_name, surname, state FROM PPL WHERE state IN ('nt')",
    "SELECT DEDUP id, given_name, surname, state FROM PPL "
    "WHERE state IN ('nt', 'act', 'tas', 'sa', 'wa')",
    "SELECT DEDUP id, given_name, surname, state FROM PPL "
    "WHERE state IN ('nt', 'act', 'tas', 'sa', 'wa', 'qld', 'vic')",
]


def test_warm_restart_answers_from_the_persisted_link_index(tmp_path):
    """Why a warm restart beats a cold build, without a stopwatch.

    The live engine resolves the pool once and saves; the loaded engine
    then answers every query from the persisted Link Index — identical
    rows, zero comparisons — where a cold engine over the same final rows
    must match them all again.  Default meta-blocking, as served.
    """
    base, inserted = 1000, 40
    table, _ = generate_people(base + inserted, seed=90, name="PPL")
    rows = [tuple(row.values) for row in table]

    with QueryEREngine() as live:
        live.register(Table("PPL", table.schema, rows[:base], coerce=False))
        live.enable_checkpointing(tmp_path)
        live.execute(insert_sql(rows[base:]))
        live_results = [live.execute(sql) for sql in WARM_QUERIES]
        live.save(tmp_path)

    with QueryEREngine() as cold:
        cold.register(Table("PPL", table.schema, rows, coerce=False))
        cold_results = [cold.execute(sql) for sql in WARM_QUERIES]

    with QueryEREngine.load(tmp_path) as warm:
        for sql, live_result, cold_result in zip(WARM_QUERIES, live_results, cold_results):
            result = warm.execute(sql)
            assert result.sorted_rows() == live_result.sorted_rows()
            assert result.sorted_rows() == cold_result.sorted_rows()
            assert result.comparisons == 0
            assert cold_result.comparisons > 0
