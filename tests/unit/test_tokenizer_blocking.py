"""Unit tests for tokenization and Token Blocking."""

from repro.er.blocking import Block, BlockCollection, TokenBlocking
from repro.er.matching import ProfileMatcher, build_signature
from repro.er.tokenizer import TokenVocabulary, normalize_value, tokenize_entity, tokenize_value


class TestNormalizeValue:
    """The contract every comparison string and blocking key is built on."""

    def test_is_str_then_lower(self):
        for value in ("ACM SIGMOD", "  Mixed Case\t", "", "straße", "İstanbul"):
            assert normalize_value(value) == str(value).lower()

    def test_non_strings_are_stringified(self):
        assert normalize_value(2017) == "2017"
        assert normalize_value(4.50) == "4.5"
        assert normalize_value(1.0) == "1.0"  # not folded onto the int 1
        assert normalize_value(True) == "true"

    def test_none_is_not_a_value(self):
        # Callers skip NULLs; stringified it would be the word "none".
        assert normalize_value(None) == "none"
        assert tokenize_value(None) == []
        signature = build_signature("e", {"name": None}, TokenVocabulary())
        assert dict(signature.norms) == {}

    def test_greek_lowering_knows_the_final_sigma(self):
        assert normalize_value("ΟΔΟΣ") == "οδος"
        assert normalize_value("ΟΔΟΣ")[-1] == "\u03c2"  # ς, not σ
        assert normalize_value("ΣΟΦΟΣ ΣΟΦΟΣ") == "σοφος σοφος"

    def test_nothing_else_is_folded(self):
        # No trimming, no Unicode composition, no accent stripping.
        assert normalize_value(" a ") == " a "
        assert normalize_value("e\u0301") != normalize_value("\u00e9")
        assert normalize_value("οδός") != normalize_value("οδος")

    def test_every_consumer_sees_the_same_string(self):
        value = "ΟΔΟΣ Ermou 12"
        signature = build_signature("e", {"street": value}, TokenVocabulary())
        assert signature.norms["street"] == normalize_value(value)
        assert tokenize_value(value) == ["ermou", "12"]
        matcher = ProfileMatcher()
        assert matcher._aligned_similarity({"street": value}, {"street": value.lower()}) == 1.0


class TestTokenizeValue:
    def test_lowercases_and_splits(self):
        assert tokenize_value("ACM SIGMOD") == ["acm", "sigmod"]

    def test_splits_on_punctuation(self):
        assert tokenize_value("entity-resolution, 2008") == ["entity", "resolution", "2008"]

    def test_none_yields_nothing(self):
        assert tokenize_value(None) == []

    def test_short_tokens_dropped(self):
        assert tokenize_value("a of e.r x") == ["of"]

    def test_numbers_are_tokens(self):
        assert tokenize_value(2017) == ["2017"]

    def test_min_length_configurable(self):
        assert "x" in tokenize_value("x y", min_length=1)


class TestTokenizeEntity:
    def test_union_across_attributes(self):
        tokens = tokenize_entity({"title": "big data", "venue": "sigmod"})
        assert tokens == {"big", "data", "sigmod"}

    def test_exclusion(self):
        tokens = tokenize_entity({"id": "rec77", "title": "data"}, exclude=("id",))
        assert tokens == {"data"}

    def test_duplicate_tokens_collapse(self):
        assert tokenize_entity({"a": "data", "b": "data"}) == {"data"}


class TestBlock:
    def test_size_and_cardinality(self):
        block = Block("k", ["a", "b", "c"])
        assert block.size == 3
        assert block.cardinality == 3

    def test_singleton_has_zero_cardinality(self):
        assert Block("k", ["a"]).cardinality == 0

    def test_membership(self):
        assert "a" in Block("k", ["a"])


class TestBlockCollection:
    def test_add_groups_by_key(self):
        bc = BlockCollection()
        bc.add("tok", "e1")
        bc.add("tok", "e2")
        bc.add("other", "e1")
        assert len(bc) == 2
        assert bc.get("tok").entities == {"e1", "e2"}

    def test_cardinality_sums_blocks(self):
        bc = BlockCollection()
        for e in "abc":
            bc.add("k1", e)
        bc.add("k2", "a")
        bc.add("k2", "b")
        assert bc.cardinality == 3 + 1

    def test_non_singleton_filters(self):
        bc = BlockCollection()
        bc.add("k1", "a")
        bc.add("k2", "a")
        bc.add("k2", "b")
        assert bc.non_singleton().keys() == ["k2"]

    def test_inverted_sorted_ascending_by_size(self):
        bc = BlockCollection()
        for e in "abc":
            bc.add("big", e)
        bc.add("small", "a")
        bc.add("small", "b")
        assert bc.inverted()["a"] == ["small", "big"]

    def test_comparison_pairs_unique(self):
        bc = BlockCollection()
        bc.add("k1", "a")
        bc.add("k1", "b")
        bc.add("k2", "a")
        bc.add("k2", "b")
        assert bc.comparison_pairs() == {("a", "b")}

    def test_entity_ids(self):
        bc = BlockCollection()
        bc.add("k", "a")
        bc.add("j", "b")
        assert bc.entity_ids() == {"a", "b"}


class TestTokenBlocking:
    def test_build_from_entities(self):
        tb = TokenBlocking()
        bc = tb.build([("e1", {"t": "big data"}), ("e2", {"t": "big ideas"})])
        assert bc.get("big").entities == {"e1", "e2"}
        assert bc.get("data").entities == {"e1"}

    def test_excluded_attributes_do_not_block(self):
        tb = TokenBlocking(exclude_attributes=("id",))
        bc = tb.build([("e1", {"id": "shared", "t": "x1y2"})])
        assert bc.get("shared") is None

    def test_same_function_for_tbi_and_qbi(self):
        tb = TokenBlocking()
        entities = [("e1", {"t": "alpha beta"}), ("e2", {"t": "beta gamma"})]
        tbi = tb.build(entities)
        qbi = tb.build(entities[:1])
        assert set(qbi.keys()) <= set(tbi.keys())
