"""Property-based end-to-end test: DQ ≡ BAQ on random dirty datasets.

The paper's central correctness claim (§5, §6.1): for any query, the
Dedupe Query over dirty data returns the same deduplicated grouped
entities as the Batch Approach.  We generate random small dirty people
datasets and random selections and check exact result equality with
meta-blocking off (same candidate pairs ⇒ provable equality) across all
execution strategies.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import QueryEREngine
from repro.core.planner import ExecutionMode
from repro.datagen import generate_people
from repro.er.meta_blocking import MetaBlockingConfig


def engine_for(table):
    engine = QueryEREngine(meta_blocking=MetaBlockingConfig.none())
    engine.register(table)
    return engine


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
    size = draw(st.integers(min_value=40, max_value=120))
    template = draw(st.sampled_from(WHERE_TEMPLATES))
    where = template.format(
        mod=draw(st.integers(min_value=2, max_value=9)),
        bound=draw(st.integers(min_value=5, max_value=100)),
        prefix=draw(st.sampled_from("abcdgjmsw")),
    )
    return seed, size, where


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_dq_equals_baq_for_random_data_and_queries(scenario):
    seed, size, where = scenario
    table, _ = generate_people(size, seed=seed)
    sql = f"SELECT DEDUP id, given_name, surname, state FROM PPL WHERE {where}"
    baseline = engine_for(table).execute(sql, ExecutionMode.BATCH).sorted_rows()
    for mode in (ExecutionMode.AES, ExecutionMode.NES, ExecutionMode.NAIVE_SCAN):
        assert engine_for(table).execute(sql, mode).sorted_rows() == baseline


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=5_000))
def test_progressive_queries_agree_with_fresh_engine(seed):
    """Queries answered from a warm Link Index equal cold-engine answers."""
    table, _ = generate_people(80, seed=seed)
    warm = engine_for(table)
    warm.execute("SELECT DEDUP id FROM PPL WHERE state = 'nsw'")
    warm_result = warm.execute("SELECT DEDUP id, surname FROM PPL WHERE state IN ('nsw', 'vic')")
    cold_result = engine_for(table).execute(
        "SELECT DEDUP id, surname FROM PPL WHERE state IN ('nsw', 'vic')"
    )
    assert warm_result.sorted_rows() == cold_result.sorted_rows()
