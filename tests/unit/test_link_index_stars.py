"""The Link Index's star memo on the re-issue path.

A Deduplicate reads a resolved entity's Link Index cluster in place and
the Link Index records that entity's star (a pair to every other member
of the cluster it read) when the statement commits, skipping a star
whose cluster has not grown since it was last recorded.  Over three rows
e, a and b that all block together, a matcher that links only the pairs
a test allows drives the clusters: e ≡ a first, a ≡ b in a later query.
Every step is replayed on :class:`reference.star_copy.StarCopyDeduplicate`,
which copies each cluster it reads as a star and has no memo.
"""

from reference.star_copy import StarCopyDeduplicate
from repro.core.dedup_operator import DeduplicateOperator
from repro.core.engine import QueryEREngine
from repro.core.indices import TableIndex
from repro.er.linkset import canonical_pair
from repro.er.meta_blocking import MetaBlockingConfig
from repro.storage.schema import Schema
from repro.storage.table import Table

E_A = canonical_pair("e", "a")
A_B = canonical_pair("a", "b")
E_B = canonical_pair("e", "b")
SELECT_E = "SELECT DEDUP * FROM T WHERE id = 'e'"


class AllowedPairs:
    """A matcher that links exactly the pairs in ``allowed``."""

    def __init__(self, *pairs):
        self.allowed = set(pairs)

    def match_pair_indices(self, pairs, signatures):
        return [i for i, pair in enumerate(pairs) if canonical_pair(*pair) in self.allowed]


def table():
    return Table(
        "T",
        Schema.of("id", "name", "city"),
        [("e", "anna berg", "oslo"), ("a", "anna berg", "oslo"), ("b", "anna berg", "oslo")],
    )


def operators(matcher):
    """The product operator and the star-copy oracle, each on its own index."""
    return [
        cls(TableIndex(table()), matcher=matcher, meta_blocking=MetaBlockingConfig.none())
        for cls in (DeduplicateOperator, StarCopyDeduplicate)
    ]


def pairs_of(operator):
    return set(operator.index.link_index.links)


def run(ops, query):
    results = [op.deduplicate(query) for op in ops]
    assert results[0].entity_ids == results[1].entity_ids
    assert pairs_of(ops[0]) == pairs_of(ops[1])
    return results[0]


def test_a_grown_cluster_records_its_star_again():
    matcher = AllowedPairs(E_A)
    ops = operators(matcher)
    run(ops, ["e"])  # first issue: e ≡ a, b compared and left apart
    assert pairs_of(ops[0]) == {E_A}
    run(ops, ["e"])  # re-issue: e's cluster {e, a} read, its star recorded
    assert ops[0].index.link_index._star_sizes == {"e": 2}

    matcher.allowed.add(A_B)
    run(ops, ["b"])  # a later query links a to b
    assert pairs_of(ops[0]) == {E_A, A_B}
    assert ops[0].index.link_index.is_resolved("e")

    result = run(ops, ["e"])  # e's cluster grew to {e, a, b}
    assert E_B in pairs_of(ops[0])
    assert result.entity_ids == {"e", "a", "b"}
    assert result.duplicate_ids == {"a", "b"}


def test_a_repeated_re_issue_adds_nothing():
    ops = operators(AllowedPairs(E_A, A_B))
    run(ops, ["e"])
    run(ops, ["e"])
    link_index = ops[0].index.link_index
    before = (set(link_index.links), dict(link_index._star_sizes))
    run(ops, ["e"])
    assert (set(link_index.links), link_index._star_sizes) == before
    run(ops, ["e", "b"])  # b's star (b, a), (b, e) holds no new pair
    assert set(link_index.links) == before[0] == {E_A, A_B, E_B}
    assert link_index._star_sizes == {"e": 3, "b": 3}


def test_a_cleared_index_records_stars_again():
    matcher = AllowedPairs(E_A)
    ops = operators(matcher)
    run(ops, ["e"])
    matcher.allowed.add(A_B)
    run(ops, ["b"])
    run(ops, ["e"])  # e's star over {e, a, b} recorded: the memo holds 3
    assert ops[0].index.link_index._star_sizes["e"] == 3

    for op in ops:
        op.index.link_index.clear()
    run(ops, ["e"])  # one query finds e ≡ a ≡ b: pairs (e, a) and (a, b)
    assert pairs_of(ops[0]) == {E_A, A_B}
    run(ops, ["e"])  # a memo that outlived clear() would skip this star
    assert E_B in pairs_of(ops[0])


def test_a_loaded_engine_records_stars_again(tmp_path):
    matcher = AllowedPairs(E_A, A_B)
    saved = QueryEREngine(meta_blocking=MetaBlockingConfig.none())
    saved.register(table())
    saved._matchers["t"] = matcher
    saved.execute(SELECT_E)  # e ≡ a ≡ b in one query: no star yet
    saved.save(tmp_path / "snapshot")
    expected = saved.execute(SELECT_E)  # e's star recorded after the save
    assert saved.index_of("T").link_index._star_sizes == {"e": 3}

    loaded = QueryEREngine.load(tmp_path / "snapshot")
    loaded._matchers["t"] = matcher
    link_index = loaded.index_of("T").link_index
    assert set(link_index.links) == {E_A, A_B}
    assert link_index._star_sizes == {}

    assert loaded.execute(SELECT_E).rows == expected.rows
    assert set(link_index.links) == set(saved.index_of("T").link_index.links)
    assert E_B in link_index.links
    assert link_index._star_sizes == {"e": 3}
