"""Unit tests for tokenization and Token Blocking."""

from reference.signature_oracle import ReferenceMatcher, profile_of

from repro.core.indices import TableIndex
from repro.er.blocking import TokenBlocking
from repro.er.tokenizer import normalize_value, tokenize_entity, tokenize_value
from repro.storage.schema import Schema
from repro.storage.table import Table


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
        index = TableIndex(Table("N", Schema.of("id", "name"), [("e", None)]))
        assert profile_of(index.signature_of("e")).norms == {}
        assert index.signatures.shape_of(0)[0].tolist() == [-1]

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
        index = TableIndex(Table("S", Schema.of("id", "street"), [("e", value)]))
        assert profile_of(index.signature_of("e")).norms["street"] == normalize_value(value)
        assert index.signatures.shape_of(0)[0].tolist() == [len(normalize_value(value))]
        assert tokenize_value(value) == ["ermou", "12"]
        matcher = ReferenceMatcher()
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


class TestTokenBlocking:
    def test_keys_from_attributes(self):
        tb = TokenBlocking()
        assert tb.keys_for({"t": "big data"}) == {"big", "data"}
        assert tb.keys_for({"t": "big ideas", "u": "big"}) == {"big", "ideas"}

    def test_excluded_attributes_do_not_block(self):
        tb = TokenBlocking(exclude_attributes=("id",))
        assert tb.keys_for({"id": "shared", "t": "x1y2"}) == {"x1y2"}

    def test_same_function_for_tbi_and_qbi(self):
        table = Table(
            "T", Schema.of("id", "t"), [("e1", "alpha beta"), ("e2", "beta gamma")]
        )
        index = TableIndex(table)
        postings = index.postings
        for row in table:
            dense = postings.dense_frontier([row.id])
            keys = {index.vocabulary.token_of(t) for t in postings.tokens_of_entities(dense).tolist()}
            assert keys == index.blocking.keys_for(index.entities.attributes(row.id))
