"""The Link Index member index against the adjacency-walk oracle.

Random sequences of ``add`` (self-pairs and repeats included, ids mixing
ints and strings so pair canonicalization takes its ``repr`` fallback),
``add_all``, ``update``, ``join`` (a whole cluster put in one component
without a pair; the oracle links it as a chain it keeps out of the
expected pairs) and ``copy``, with ``representative`` reads
interleaved so a memo that outlives a merge shows; after each sequence
every cluster read of :class:`~repro.er.linkset.LinkSet` must equal
:class:`reference.linkset_oracle.AdjacencyLinks` fed the same pairs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from reference.linkset_oracle import AdjacencyLinks
from repro.er.linkset import LinkSet, canonical_pair

ids = st.one_of(st.integers(min_value=0, max_value=12), st.sampled_from("abcdefgh"))
pair = st.tuples(ids, ids)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), pair),
        st.tuples(st.just("add_all"), st.tuples(ids, st.lists(ids, max_size=5))),
        st.tuples(st.just("update"), st.lists(pair, max_size=6)),
        st.tuples(st.just("update_linkset"), st.lists(pair, max_size=6)),
        st.tuples(st.just("join"), st.lists(ids, max_size=6)),
        st.tuples(st.just("copy"), st.none()),
        st.tuples(st.just("read"), ids),
    ),
    max_size=40,
)


def replay(script):
    """Apply *script* to a LinkSet and the oracle; returns both plus the
    canonical pairs, and the pre-copy snapshots that must stay intact."""
    links, oracle, expected = LinkSet(), AdjacencyLinks(), set()
    snapshots = []

    def record(a, b):
        oracle.add(a, b)
        if a != b:
            expected.add(canonical_pair(a, b))

    for kind, argument in script:
        if kind == "add":
            a, b = argument
            known = a == b or canonical_pair(a, b) in expected
            assert links.add(a, b) is (not known)
            record(a, b)
        elif kind == "add_all":
            entity_id, others = argument
            links.add_all(entity_id, others)
            for other in others:
                record(entity_id, other)
        elif kind in ("update", "update_linkset"):
            other = LinkSet(argument) if kind == "update_linkset" else argument
            links.update(other)
            for a, b in argument:
                record(a, b)
        elif kind == "join":
            links.join(set(argument))
            for a, b in zip(argument, argument[1:]):
                oracle.add(a, b)
        elif kind == "read":
            assert links.representative(argument) == min(
                oracle.cluster_of(argument), key=repr
            )
        else:
            snapshots.append((links, set(expected), [set(c) for c in links.clusters()]))
            links = links.copy()
    return links, oracle, expected, snapshots


def universe(oracle, extra=("zz", 99)):
    return list(oracle.entities()) + list(extra)


@settings(max_examples=200, deadline=None)
@given(operations)
def test_cluster_reads_equal_the_oracle(script):
    links, oracle, expected, _ = replay(script)
    assert set(links) == expected
    assert len(links) == len(expected)
    assert links.entities() == oracle.entities()
    for entity_id in universe(oracle):
        cluster = oracle.cluster_of(entity_id)
        assert links.cluster_of(entity_id) == cluster
        assert links.representative(entity_id) == min(cluster, key=repr)
    assert sorted(map(sorted_repr, links.clusters())) == sorted(
        map(sorted_repr, oracle.clusters())
    )
    representatives = [min(c, key=repr) for c in links.clusters()]
    assert [repr(r) for r in representatives] == sorted(repr(r) for r in representatives)


@settings(max_examples=200, deadline=None)
@given(operations, st.lists(ids, max_size=8))
def test_closure_equals_the_oracle(script, query):
    links, oracle, _, _ = replay(script)
    assert links.closure(query) == oracle.closure(query)


@settings(max_examples=100, deadline=None)
@given(operations)
def test_copies_do_not_share_state(script):
    _, _, _, snapshots = replay(script + [("add", ("a", 0)), ("add", ("h", 12))])
    for original, pairs, clusters in snapshots:
        assert set(original) == pairs
        assert [set(c) for c in original.clusters()] == clusters


def test_representative_memo_is_dropped_on_merge():
    links = LinkSet([("m", "n"), ("n", "p")])
    assert links.representative("p") == "m"
    links.add("n", "b")  # a new member joins
    assert links.representative("m") == "b"
    links.add("x", "a")
    assert links.representative("x") == "a"
    links.add("x", "m")  # the smaller cluster is absorbed
    assert {links.representative(e) for e in "abmnpx"} == {"a"}


def test_join_reads_as_one_cluster_without_pairs():
    links = LinkSet([("a", "b")])
    links.join({"c", "d", "e"})  # none linked yet: a new component
    links.join({"e", "b", "f"})  # overlaps two components: merged
    assert set(links) == {("a", "b")}
    assert links.cluster_of("d") == set("abcdef")
    assert links.representative("f") == "a"
    assert links.component("zz") is None
    root, members = links.component("c")
    assert members == set("abcdef") and links.component("a")[0] == root


def sorted_repr(cluster):
    return sorted(map(repr, cluster))
