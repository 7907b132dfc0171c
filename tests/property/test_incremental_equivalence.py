"""Property test: insert-then-``SELECT DEDUP`` ≡ fresh-engine results.

The incremental subsystem's contract: for any sequence of ``INSERT
INTO`` batches, every subsequent ``SELECT DEDUP`` returns exactly the
rows a fresh engine registered with the final table state returns.
Meta-blocking is off so equality is provable (identical indices ⇒
identical candidate pairs, and the matcher is deterministic) — the same
convention as ``test_dq_equivalence``.  Queries run *between* batches so
resolved entities and recorded links actually exist when the Link-Index
invalidation runs.
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
    size = draw(st.integers(min_value=40, max_value=90))
    base_fraction = draw(st.floats(min_value=0.5, max_value=0.9))
    batches = draw(st.integers(min_value=1, max_value=3))

    def where():
        template = draw(st.sampled_from(WHERE_TEMPLATES))
        return template.format(
            mod=draw(st.integers(min_value=2, max_value=9)),
            bound=draw(st.integers(min_value=5, max_value=100)),
            prefix=draw(st.sampled_from("abcdgjmsw")),
        )

    interleaved = [where() for _ in range(batches)]
    final = where()
    return seed, size, base_fraction, batches, interleaved, final


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_insert_then_dedup_equals_fresh_engine(scenario):
    seed, size, base_fraction, batches, interleaved, final = scenario
    table, _ = generate_people(size, seed=seed)
    rows = [tuple(r.values) for r in table]
    split = max(1, int(size * base_fraction))
    engine = engine_for(Table("PPL", table.schema, rows[:split], coerce=False))

    pending = rows[split:]
    per_batch = max(1, len(pending) // batches)
    for start in range(0, len(pending), per_batch):
        batch = pending[start : start + per_batch]
        # Query first so there is progressive-cleaning state to invalidate.
        engine.execute(
            "SELECT DEDUP id, surname FROM PPL WHERE "
            + interleaved[min(start // per_batch, batches - 1)]
        )
        engine.execute(insert_sql(batch))

    fresh = engine_for(Table("PPL", table.schema, rows, coerce=False))
    sql = f"SELECT DEDUP id, given_name, surname, state FROM PPL WHERE {final}"
    assert engine.execute(sql).sorted_rows() == fresh.execute(sql).sorted_rows()
