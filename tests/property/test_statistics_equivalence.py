"""The planner's §7.2.1 comparison estimate ≡ its dict reference, and
``EXPLAIN`` ≡ its golden text.

* The comparison estimate runs candidate derivation's BP/BF stage; it
  must equal, integer for integer, the string-keyed ``BlockCollection``
  estimator below, built on the dict reference's BP/BF over a TBI
  re-tokenized from the table's rows.  Its selected set S_E — literal
  tokens looked up in the postings — must equal the same TBI's block
  intersection, for unknown tokens and for tokens only a rolled-back
  ``INSERT`` interned too.
* A single-table ``EXPLAIN``'s annotations must equal those references
  (the table's rows, the reference S_E's size, the dict estimate over
  it) at every match threshold: fresh, after the statement was answered,
  after ``INSERT INTO`` and after a snapshot reload.  ``EXPLAIN
  ANALYZE`` must report that estimate next to the rows and comparisons
  a plain run of the statement reports, and estimating must leave the
  table's matcher, vocabulary and signature columns untouched.
* ``EXPLAIN`` over a fixed set of single-table and join statements must
  render byte-identically to ``explain_golden.json``, written by
  running this module as a script.  Its annotations are the table rows
  (``TableScan``), |S_E| (``Filter``) and the comparison estimate C
  (``Deduplicate``: the planner's own for the first join's two sides,
  else the estimator's).
"""

from __future__ import annotations

import json
import math
import random
import unicodedata
from pathlib import Path

import pytest
from reference.dict_pipeline import (
    Block,
    BlockCollection,
    purge_threshold,
    reference_tbi,
    retained_keys,
)
from reference.signature_oracle import column_state

from repro import QueryEREngine
from repro.core import statistics
from repro.core.indices import TableIndex
from repro.datagen import (
    generate_oagp,
    generate_organizations,
    generate_people,
    generate_projects,
)
from repro.datagen.corruptor import Corruptor
from repro.er.tokenizer import tokenize_value
from repro.incremental import IngestError
from repro.er.meta_blocking import MetaBlockingConfig
from repro.resilience import FaultPlan, clear_plan, install_plan
from repro.sql.parser import parse
from repro.storage.schema import Schema
from repro.storage.table import Table

GOLDEN = Path(__file__).with_name("explain_golden.json")


# -- datasets -----------------------------------------------------------------
def people():
    return generate_people(70, seed=5)[0]


def papers():
    return generate_oagp(45, seed=9)[0]


def organisations():
    return generate_organizations(50, seed=3)[0]


def edge_cases():
    """NULL, empty-string, token-less and non-string profiles."""
    return Table(
        "EDGE",
        Schema.of("id", "name", "city", "note"),
        [
            (1, None, None, None),
            (2, None, None, None),
            (3, "", "", ""),
            (4, "", "melbourne", None),
            (5, "!!", "??", "-"),
            (6, "x", "y", "z"),
            (7, "john smith", None, None),
            (8, None, "melbourne", None),
            (9, "john smith", "melbourne", "regular customer"),
            (10, "john smith", "melbourne", "regular customer"),
            (11, "jon smith", "melbourne", "regular custmer"),
            (12, "smith john", "sydney", None),
            (13, 42, 4.5, True),
            (14, "42", "4.5", "true"),
        ],
    )


def greek():
    """Modern-Greek values with NFD, accent-stripped and final-sigma variants."""
    base = [
        ("οδός αθηνάς 12", "θεσσαλονίκη"),
        ("λεωφόρος κηφισίας", "αθήνα"),
        ("πλατεία συντάγματος", "αθήνα"),
        ("οδός ερμού", "πάτρα"),
        ("ΟΔΟΣ ΣΤΑΔΙΟΥ", "ΑΘΗΝΑ"),
        ("naïve café", "zürich"),
    ]
    corruptor = Corruptor(random.Random(11))
    rows = []
    for street, city in base:
        rows.append((len(rows) + 1, street, city))
        rows.append((len(rows) + 1, unicodedata.normalize("NFD", street), city))
        for _ in range(3):
            rows.append(
                (len(rows) + 1, corruptor.unicode_variant(street), corruptor.unicode_variant(city))
            )
    return Table("GR", Schema.of("id", "street", "city"), rows)


DATASETS = {
    "people": people,
    "papers": papers,
    "organisations": organisations,
    "edge_cases": edge_cases,
    "greek": greek,
}


def copies(table, count):
    """The first *count* rows again under fresh ids: exact duplicates."""

    def fresh(entity_id):
        return entity_id + 100_000 if isinstance(entity_id, int) else f"copy-{entity_id}"

    return [(fresh(row.id),) + tuple(row.values[1:]) for row in list(table)[:count]]


# -- references ---------------------------------------------------------------
def dict_estimate(index, selected, smoothing=1.025, ratio=0.8):
    """The string-keyed BP/BF comparison estimate (§7.2.1)."""
    pending = {e for e in selected if not index.link_index.is_resolved(e)}
    if not pending:
        return 0
    tbi = reference_tbi(index)
    itbi = tbi.inverted()
    sb = BlockCollection()
    for entity_id in pending:
        for key in itbi.get(entity_id, ()):
            if key not in sb:
                sb.put(Block(key, tbi.get(key).entities))
    threshold = purge_threshold(sb, smoothing=smoothing)
    purged = BlockCollection({b.key: b for b in sb if 0 < b.cardinality <= threshold})
    kept = retained_keys(purged, ratio=ratio) if len(purged) else {}
    filtered = BlockCollection()
    for entity_id, keys in kept.items():
        for key in keys:
            filtered.add(key, entity_id)
    total = 0.0
    for block in filtered:
        q_b = sum(1 for e in block.entities if e in pending)
        if q_b:
            total += q_b * (block.size - (q_b + 1) / 2.0)
    return max(0, int(math.ceil(total)))


def reference_selected(index, literal):
    """Entities in every reference-TBI block of the literal's tokens."""
    tbi = reference_tbi(index)
    selected = None
    for token in tokenize_value(literal):
        block = tbi.get(token)
        members = set(block.entities) if block is not None else set()
        selected = members if selected is None else selected & members
    return selected or set()


def engine_with(table, threshold=0.75):
    engine = QueryEREngine(match_threshold=threshold)
    engine.register(table)
    return engine


# -- comparison estimate ------------------------------------------------------
ESTIMATED = ("people", "papers", "organisations", "edge_cases", "greek")
RATIOS = (0.5, 0.8, 1.0)


def selections(table, seed=17):
    """Empty, single, random subsets of several sizes, and the whole table."""
    rng = random.Random(seed)
    ids = list(table.ids)
    subsets = [set(), {ids[0]}]
    for size in (2, 5, len(ids) // 4, len(ids) // 2):
        subsets.append(set(rng.sample(ids, size)))
    subsets.append(set(ids))
    return subsets


def assert_estimates_match(index, ratio=0.8):
    estimator = statistics.ComparisonEstimator(index, filter_ratio=ratio)
    for selected in selections(index.table):
        expected = dict_estimate(index, selected, ratio=ratio)
        assert estimator.estimate_for_entities(selected) == expected


@pytest.mark.parametrize("dataset", ESTIMATED)
class TestComparisonEstimate:
    @pytest.mark.parametrize("ratio", RATIOS)
    def test_selections(self, dataset, ratio):
        assert_estimates_match(TableIndex(DATASETS[dataset]()), ratio)

    def test_unknown_literal_and_whole_table(self, dataset):
        table = DATASETS[dataset]()
        index = TableIndex(table)
        estimator = statistics.ComparisonEstimator(index)
        column = table.schema.names[1]
        unknown = parse(f"SELECT id FROM {table.name} WHERE {column} = 'zzznope'").where
        assert estimator.estimate(unknown) == 0
        everything = set(table.ids)
        assert estimator.estimate(None) == dict_estimate(index, everything)

    def test_partially_and_fully_resolved_link_index(self, dataset):
        table = DATASETS[dataset]()
        index = TableIndex(table)
        ids = list(table.ids)
        index.link_index.mark_resolved(ids[::3])
        assert_estimates_match(index)
        index.link_index.mark_resolved(ids)
        estimator = statistics.ComparisonEstimator(index)
        assert estimator.estimate_for_entities(set(ids)) == 0 == dict_estimate(index, set(ids))

    def test_after_queries_and_insert(self, dataset):
        table = DATASETS[dataset]()
        engine = engine_with(table)
        index = engine.index_of(table.name)
        engine.dedup_operator(index).deduplicate(set(list(table.ids)[::4]))
        assert 0 < index.link_index.resolved_count < len(table)
        assert_estimates_match(index)
        engine.insert(table.name, copies(table, 15))
        assert_estimates_match(index)


def literals(table):
    """Multi-token values of the table's first attribute, plus unknown tokens."""
    values = [row.values[1] for row in table]
    known = [v for v in values[:: max(1, len(values) // 8)] if isinstance(v, str)]
    return known + ["zzznope", f"{known[-1]} zzznope", "!!", ""]


def where_of(table, condition):
    return parse(f"SELECT id FROM {table.name} WHERE {condition}").where


@pytest.mark.parametrize("dataset", ESTIMATED)
class TestSelectedEntities:
    def test_literals_equal_reference_intersection(self, dataset):
        table = DATASETS[dataset]()
        index = TableIndex(table)
        estimator = statistics.ComparisonEstimator(index)
        column = table.schema.names[1]
        for literal in literals(table):
            quoted = literal.replace("'", "''")
            expected = reference_selected(index, literal)
            for condition in (f"{column} = '{quoted}'", f"{column} LIKE '%{quoted}%'"):
                assert estimator.selected_entities(where_of(table, condition)) == expected

    def test_tokens_of_a_rolled_back_insert_select_nothing(self, dataset):
        table = DATASETS[dataset]()
        engine = engine_with(table)
        index = engine.index_of(table.name)
        row = list(copies(table, 1)[0])
        row[1] = "zqxalpha zqxbeta"
        install_plan(FaultPlan().add("dml.before_commit"))
        try:
            with pytest.raises(IngestError):
                engine.insert(table.name, [tuple(row)])
        finally:
            clear_plan()
        assert "zqxalpha" in index.vocabulary
        assert index.block_count == len(reference_tbi(index))
        estimator = statistics.ComparisonEstimator(index)
        column = table.schema.names[1]
        for literal in ("zqxalpha", "zqxalpha zqxbeta"):
            where = where_of(table, f"{column} = '{literal}'")
            assert estimator.selected_entities(where) == set() == reference_selected(index, literal)

    def test_after_insert(self, dataset):
        table = DATASETS[dataset]()
        engine = engine_with(table)
        engine.insert(table.name, copies(table, 10))
        index = engine.index_of(table.name)
        assert index.block_count == len(reference_tbi(index))
        estimator = statistics.ComparisonEstimator(index)
        column = table.schema.names[1]
        for literal in literals(table):
            quoted = literal.replace("'", "''")
            where = where_of(table, f"{column} = '{quoted}'")
            assert estimator.selected_entities(where) == reference_selected(index, literal)


# -- EXPLAIN annotations ------------------------------------------------------
THRESHOLDS = (0.0, 0.75, 1.0)


def probe(table):
    """A ``SELECT DEDUP`` on the first attribute's first literal that
    selects entities, and that literal."""
    index = TableIndex(table)
    column = table.schema.names[1]
    literal = next(v for v in literals(table) if reference_selected(index, v))
    quoted = literal.replace("'", "''")
    return f"SELECT DEDUP * FROM {table.name} WHERE {column} = '{quoted}'", literal


def annotations(text):
    """The ``{…}`` annotation of each operator line of an ``EXPLAIN`` text."""
    notes = {}
    for line in text.splitlines():
        operator = line.strip().split("[")[0].split(" ")[0]
        if "{" in line:
            notes[operator] = line[line.index("{") :]
    return notes


def reference_annotations(index, literal):
    """``TableScan``, ``Filter`` and ``Deduplicate`` annotations from the
    table's row count, the reference S_E and the dict estimate over it."""
    selected = reference_selected(index, literal)
    return {
        "Deduplicate": f"{{est comparisons={dict_estimate(index, selected)}}}",
        "Filter": f"{{est rows={len(selected)}}}",
        "TableScan": f"{{rows={len(index.table)}}}",
    }


def assert_annotations_match(engine, table, sql, literal):
    index = engine.index_of(table.name)
    assert annotations(engine.explain(sql)) == reference_annotations(index, literal)


def matcher_and_index_state(engine, index):
    matcher = engine.matcher_for(index)
    return (
        dict(matcher.cascade_stats),
        len(matcher._pair_cache),
        len(index.vocabulary),
        column_state(index),
    )


@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("dataset", sorted(DATASETS))
class TestExplainAnnotations:
    """A single-table ``EXPLAIN`` prints the table's rows, the reference
    |S_E| and the dict estimate C over the Link Index as the match
    threshold left it: fresh, answered, grown, reloaded."""

    def test_fresh_and_answered(self, dataset, threshold):
        table = DATASETS[dataset]()
        engine = engine_with(table, threshold)
        sql, literal = probe(table)
        assert_annotations_match(engine, table, sql, literal)
        engine.execute(sql)
        assert engine.index_of(table.name).link_index.resolved_count > 0
        assert_annotations_match(engine, table, sql, literal)

    def test_after_insert(self, dataset, threshold):
        table = DATASETS[dataset]()
        engine = engine_with(table, threshold)
        sql, literal = probe(table)
        engine.execute(sql)
        before = engine.explain(sql)
        engine.insert(table.name, copies(table, 10))
        assert engine.explain(sql) != before  # the scan grew
        assert_annotations_match(engine, table, sql, literal)

    def test_after_load(self, dataset, threshold, tmp_path):
        table = DATASETS[dataset]()
        engine = engine_with(table, threshold)
        sql, literal = probe(table)
        engine.execute(sql)
        engine.insert(table.name, copies(table, 5))
        engine.save(tmp_path / "snapshot")
        loaded = QueryEREngine.load(tmp_path / "snapshot")
        assert loaded.explain(sql) == engine.explain(sql)
        assert_annotations_match(loaded, table, sql, literal)

    def test_analyze_reports_the_estimate_and_the_run(self, dataset, threshold):
        table = DATASETS[dataset]()
        analyzed = engine_with(table, threshold)
        answered = engine_with(DATASETS[dataset](), threshold)
        sql, literal = probe(table)
        index = analyzed.index_of(table.name)
        estimate = dict_estimate(index, reference_selected(index, literal))
        lines = analyzed.execute("EXPLAIN ANALYZE " + sql).plan_description.splitlines()
        result = answered.execute(sql)
        assert f"rows: actual={len(result.rows)}" in lines
        assert f"comparisons: estimated={estimate} actual={result.comparisons}" in lines

    def test_estimating_leaves_matcher_and_index_untouched(self, dataset, threshold):
        table = DATASETS[dataset]()
        engine = engine_with(table, threshold)
        sql, _ = probe(table)
        engine.execute(sql)
        index = engine.index_of(table.name)
        before = matcher_and_index_state(engine, index)
        engine.explain(sql)
        engine.explain(f"SELECT DEDUP * FROM {table.name}")
        assert matcher_and_index_state(engine, index) == before


# -- EXPLAIN golden -----------------------------------------------------------
EXPLAINED = {
    "single-filter": "SELECT DEDUP id, surname FROM PPL WHERE state = 'nsw'",
    "single-in": "SELECT DEDUP id, given_name, surname FROM PPL WHERE state IN ('vic', 'tas')",
    "single-whole": "SELECT DEDUP * FROM OAO",
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
    "bad-order": (
        "SELECT DEDUP PPL.surname, OAO.name, OAP.title "
        "FROM PPL "
        "JOIN OAO ON PPL.organisation = OAO.name "
        "JOIN OAP ON OAP.organisation = OAO.name "
        "WHERE OAP.programme = 'fp7'"
    ),
}


#: Answered between the "fresh" and "answered" renderings, filling the
#: Link Index (the three-way joins are too slow without meta-blocking).
ANSWERED = ("single-filter", "single-whole", "two-way")


def explained_engine(config):
    """The engine the golden texts are rendered on, and a step function
    moving it to the next phase: ``"answered"`` answers some statements,
    ``"inserted"`` then inserts into PPL and OAO."""
    # Fresh tables per engine: inserts append to the registered table.
    organisations_table, _ = generate_organizations(150, seed=71)
    names = [row["name"] for row in organisations_table]
    people_table, _ = generate_people(1200, organisations=names[:75], seed=72)
    projects_table, _ = generate_projects(200, organisations=names, seed=73)
    engine = QueryEREngine(meta_blocking=getattr(MetaBlockingConfig, config)())
    for table in (people_table, organisations_table, projects_table):
        engine.register(table)

    def step(phase):
        if phase == "answered":
            for name in ANSWERED:
                engine.execute(EXPLAINED[name])
        elif phase == "inserted":
            engine.insert("PPL", copies(people_table, 40))
            engine.insert("OAO", copies(organisations_table, 10))

    return engine, step


def explain_texts():
    """``EXPLAIN`` of every statement: fresh, after answering some, after an insert."""
    texts = {}
    for config in ("all", "none"):
        engine, step = explained_engine(config)
        for phase in ("fresh", "answered", "inserted"):
            step(phase)
            for name, sql in EXPLAINED.items():
                texts[f"{config}/{phase}/{name}"] = engine.explain(sql)
    return texts


def test_explain_is_byte_identical_to_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert explain_texts() == golden


@pytest.mark.parametrize("config", ["all", "none"])
def test_loaded_engine_explains_like_the_golden(config, tmp_path):
    """Plans are not persisted: an engine loaded, with no override, from
    a snapshot plans and estimates again and renders the golden text.

    The "answered" phase is left out: there the golden engine renders
    the plans it cached in the "fresh" phase (a cached join plan keeps
    its clean-first choice after the Link Index fills), while a loaded
    engine starts with no plan cached.  Every explained statement reads
    PPL or OAO, so the inserts into them retire its plan and the
    "inserted" phase is planned afresh on both.
    """
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    engine, step = explained_engine(config)
    for phase in ("fresh", "answered", "inserted"):
        step(phase)
        if phase == "answered":
            continue
        engine.save(tmp_path / phase)
        loaded = QueryEREngine.load(tmp_path / phase)
        for name, sql in EXPLAINED.items():
            assert loaded.explain(sql) == golden[f"{config}/{phase}/{name}"], name


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(explain_texts(), indent=1, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
