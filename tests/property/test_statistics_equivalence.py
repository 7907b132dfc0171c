"""The planner's §7.2.1 statistics ≡ their scalar and dict references.

* The duplication-factor sample runs its pairs through the batched
  ``ProfileMatcher.match_pair_indices`` on a private matcher; it must
  count exactly the duplicates an all-pairs ``ProfileMatcher.matches``
  loop counts on the same sampled rows — fresh, after ``INSERT INTO``
  made it stale, and after a snapshot reload — and leave the table's own
  matcher, vocabulary and signatures untouched.
* The comparison estimate runs candidate derivation's BP/BF stage; it
  must equal, integer for integer, the string-keyed ``BlockCollection``
  estimator below, built on the dict reference's BP/BF.
* ``EXPLAIN`` over a fixed set of single-table and join statements must
  render byte-identically to ``explain_golden.json``.  That file was
  written by running this module as a script against the engine as it
  was before both changes (statistics sampled eagerly at registration,
  dict BP/BF in the estimator); every table there holds at most 4 000
  rows, so the sampled rows are the first 200 picks either way.
"""

from __future__ import annotations

import json
import math
import random
import unicodedata
from itertools import combinations
from pathlib import Path

import pytest
from reference.dict_pipeline import purge_threshold, retained_keys

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
from repro.er.blocking import Block, BlockCollection
from repro.er.matching import ProfileMatcher
from repro.er.meta_blocking import MetaBlockingConfig
from repro.sql.parser import parse
from repro.storage.schema import Schema
from repro.storage.table import Table

THRESHOLDS = (0.0, 0.75, 1.0)
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
def scalar_duplicates(index, matcher, rows):
    """All-pairs ``matches`` over *rows* on a fresh, identically configured matcher."""
    reference = ProfileMatcher(threshold=matcher.threshold, exclude=matcher.exclude)
    attributes = index.entities.attributes_of_row
    return sum(
        1
        for left, right in combinations(rows, 2)
        if reference.matches(attributes(left), attributes(right))
    )


def assert_sample_matches_reference(index, matcher, stats, **sample):
    rows = statistics.sample_rows(index.table, **sample)
    duplicates = scalar_duplicates(index, matcher, rows)
    assert stats.sample_size == len(rows)
    assert stats.sample_duplicates == duplicates
    assert stats.duplication_factor == (duplicates / len(rows) if rows else 0.0)


def dict_estimate(index, selected, smoothing=1.025, ratio=0.8):
    """The string-keyed BP/BF comparison estimate (§7.2.1)."""
    pending = {e for e in selected if not index.link_index.is_resolved(e)}
    if not pending:
        return 0
    sb = BlockCollection()
    for entity_id in pending:
        for key in index.itbi.get(entity_id, ()):
            table_block = index.tbi.get(key)
            if table_block is not None and key not in sb:
                sb.put(Block(key, table_block.entities))
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


def engine_with(table, threshold=0.75):
    engine = QueryEREngine(match_threshold=threshold, execution=1)
    engine.register(table)
    return engine


# -- duplication factor -------------------------------------------------------
@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("dataset", sorted(DATASETS))
class TestDuplicationSample:
    def test_default_sample(self, dataset, threshold):
        table = DATASETS[dataset]()
        engine = engine_with(table, threshold)
        index = engine.index_of(table.name)
        stats = engine.statistics_of(table.name)
        assert_sample_matches_reference(index, engine.matcher_for(index), stats)

    def test_whole_table_sample(self, dataset, threshold):
        """Every pair of the table, not just a 5% sample's."""
        table = DATASETS[dataset]()
        index = TableIndex(table)
        matcher = ProfileMatcher(threshold=threshold, exclude=(table.schema.id_column,))
        stats = statistics.TableStatistics(index, matcher, sample_fraction=1.0, max_sample=500)
        assert_sample_matches_reference(
            index, matcher, stats, sample_fraction=1.0, max_sample=500
        )

    def test_stale_recompute_after_insert(self, dataset, threshold):
        table = DATASETS[dataset]()
        engine = engine_with(table, threshold)
        index = engine.index_of(table.name)
        before = engine.statistics_of(table.name)
        engine.insert(table.name, copies(table, 20))
        assert before.stale
        after = engine.statistics_of(table.name)
        assert after is not before and not after.stale
        assert after.base_rows == before.base_rows + min(20, before.base_rows)
        assert_sample_matches_reference(index, engine.matcher_for(index), after)

    def test_after_load(self, dataset, threshold, tmp_path):
        table = DATASETS[dataset]()
        engine = engine_with(table, threshold)
        engine.save(tmp_path / "unread")
        expected = engine.statistics_of(table.name).to_state()
        engine.save(tmp_path / "read")
        for snapshot in ("unread", "read"):
            loaded = QueryEREngine.load(tmp_path / snapshot, execution=1)
            assert loaded.statistics_of(table.name).to_state() == expected
            loaded.insert(table.name, copies(table, 5))
            index = loaded.index_of(table.name)
            stale = loaded.statistics_of(table.name)
            assert_sample_matches_reference(index, loaded.matcher_for(index), stale)


class TestPrivateMatcher:
    def test_table_matcher_and_index_untouched(self):
        table = people()
        engine = engine_with(table)
        engine.execute("SELECT DEDUP id, surname FROM PPL WHERE state = 'nsw'")
        index = engine.index_of("PPL")
        matcher = engine.matcher_for(index)
        before = (
            dict(matcher.cascade_stats),
            len(matcher._pair_cache),
            len(index.vocabulary),
            index.signature_count,
        )
        stats = statistics.TableStatistics(index, matcher, sample_fraction=1.0)
        assert stats.sample_duplicates > 0
        engine.statistics_of("PPL")
        after = (
            dict(matcher.cascade_stats),
            len(matcher._pair_cache),
            len(index.vocabulary),
            index.signature_count,
        )
        assert after == before


# -- comparison estimate ------------------------------------------------------
ESTIMATED = ("people", "papers", "organisations", "edge_cases")
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


def explain_texts():
    """``EXPLAIN`` of every statement: fresh, after answering some, after an insert."""
    texts = {}
    for config in ("all", "none"):
        # Fresh tables per engine: inserts append to the registered table.
        organisations_table, _ = generate_organizations(150, seed=71)
        names = [row["name"] for row in organisations_table]
        people_table, _ = generate_people(1200, organisations=names[:75], seed=72)
        projects_table, _ = generate_projects(200, organisations=names, seed=73)
        meta_blocking = getattr(MetaBlockingConfig, config)()
        engine = QueryEREngine(meta_blocking=meta_blocking, execution=1)
        for table in (people_table, organisations_table, projects_table):
            engine.register(table)
        for phase in ("fresh", "answered", "inserted"):
            if phase == "answered":
                for name in ANSWERED:
                    engine.execute(EXPLAINED[name])
            elif phase == "inserted":
                engine.insert("PPL", copies(people_table, 40))
                engine.insert("OAO", copies(organisations_table, 10))
            for name, sql in EXPLAINED.items():
                texts[f"{config}/{phase}/{name}"] = engine.explain(sql)
    return texts


def test_explain_is_byte_identical_to_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert explain_texts() == golden


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(explain_texts(), indent=1, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
