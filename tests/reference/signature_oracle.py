"""Per-entity profile signatures: the scalar oracle of the signature columns.

The engine keeps every table's signatures as columns
(:class:`repro.er.matching.SignatureColumns`) and screens candidate
pairs with popcount kernels over them.  This module spells one entity's
signature the obvious way — a sorted token-id tuple, a dict of
normalized values and a character ``Counter`` per value — so the scalar
cascade (:meth:`~repro.er.matching.ProfileMatcher.match_signatures`)
can run on objects built without the columns, and the kernels can be
diffed against plain Python arithmetic.  It also keeps the length-only
Jaro-Winkler bound, the reference the cascade's character bound
tightens.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, FrozenSet, Mapping, Tuple

from repro.er.tokenizer import TokenVocabulary, normalize_value, tokenize_value


class ProfileSignature:
    """What :meth:`ProfileMatcher.match_signatures` reads, for one entity.

    ``token_ids`` — sorted interned ids of the whole-profile tokens;
    ``norms`` — attribute → normalized value of each non-null,
    non-excluded attribute, in attribute order; ``char_counts`` — their
    character counts; ``attributes`` — the raw mapping; ``exclude`` —
    the lowered attribute names left out.
    """

    def __init__(
        self,
        entity_id: Any,
        attributes: Mapping[str, Any],
        norms: Dict[str, str],
        token_ids: Tuple[int, ...],
        exclude: FrozenSet[str],
    ):
        self.entity_id = entity_id
        self.attributes = attributes
        self.norms = norms
        self.token_ids = token_ids
        self.exclude = exclude
        self.char_counts = {name: Counter(norm) for name, norm in norms.items()}


def build_signature(
    entity_id: Any,
    attributes: Mapping[str, Any],
    vocabulary: TokenVocabulary,
    exclude: FrozenSet[str] = frozenset(),
) -> ProfileSignature:
    """Intern *attributes* into a :class:`ProfileSignature`."""
    norms: Dict[str, str] = {}
    tokens = []
    for name, value in attributes.items():
        if value is None or name.lower() in exclude:
            continue
        norms[name] = normalize_value(value)
        tokens.extend(tokenize_value(value))
    return ProfileSignature(
        entity_id, attributes, norms, vocabulary.intern_all(tokens), exclude
    )


def jaro_winkler_bound(a: str, b: str, prefix_scale: float = 0.1, max_prefix: int = 4) -> float:
    """Upper bound on ``jaro_winkler(a, b)`` from lengths and prefix only.

    Jaro's match count *m* is at most ``min(len_a, len_b)``, so with
    ``s = min``, ``l = max``::

        jaro ≤ (m/len_a + m/len_b + (m - t)/m) / 3 ≤ (1 + s/l + 1) / 3

    and Jaro-Winkler is monotone in both the Jaro base and the actual
    common-prefix length.  The cascade's
    :func:`~repro.er.similarity.jaro_winkler_char_bound` takes the
    smaller of this cap and a character-count one.
    """
    len_a, len_b = len(a), len(b)
    if len_a == 0 or len_b == 0:
        # Exact values: jaro() returns 1.0 for two empty strings and 0.0
        # when exactly one side is empty.
        return 1.0 if len_a == len_b else 0.0
    shorter, longer = (len_a, len_b) if len_a <= len_b else (len_b, len_a)
    jaro_ub = (2.0 + shorter / longer) / 3.0
    prefix = 0
    for ca, cb in zip(a[:max_prefix], b[:max_prefix]):
        if ca != cb:
            break
        prefix += 1
    return jaro_ub + prefix * prefix_scale * (1.0 - jaro_ub)


def column_state(index: Any) -> list:
    """A table index's signature columns, row by row, in history-free terms.

    Per row: its token strings, its lengths and leading code points, and
    its ``(slot, code point, k)`` elements.  Token ids and element bit
    positions depend on the order rows were registered and inserted;
    these do not, so two indices over the same rows compare equal
    however they got there.
    """
    columns = index.signatures
    token_of = columns.vocabulary.token_of
    return [
        (
            sorted(token_of(token_id) for token_id in columns.token_ids_of(row)),
            columns.shape_of(row).tolist(),
            columns.elements_of(row),
        )
        for row in range(len(columns))
    ]
