"""Schema-agnostic token extraction for Token Blocking.

Every token of every attribute value becomes a candidate blocking key
(paper §6.1(i), following Papadakis et al. [23]).  Tokenization is
deliberately simple and deterministic: lowercase, split on any
non-alphanumeric character, drop tokens shorter than a minimum length.
Purely-numeric tokens get no special treatment by default; callers that
want to suppress short numeric noise (years, street numbers, page
counts — near-meaningless as blocking keys yet frequent enough to form
oversized blocks) can opt in via ``numeric_min_length``.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")

#: Tokens shorter than this carry almost no discriminating power
#: ("a", "of", initials) and would only inflate the oversized blocks that
#: Block Purging removes anyway; dropping them here keeps the postings small.
MIN_TOKEN_LENGTH = 2


def normalize_value(value: Any) -> str:
    """The one normalization every comparison and blocking key sees.

    ``str(value).lower()``: non-strings are stringified (``1`` and
    ``"1"`` compare equal, ``1.0`` stays ``"1.0"``), case folds through
    Unicode's context-aware lowering (Greek ``"ΟΔΟΣ"`` ends in the final
    sigma ``"ς"``), and nothing else changes — no trimming, no Unicode
    composition, no accent stripping.  NULL is not a value: callers skip
    ``None`` before normalizing (stringified it would read ``"none"``).
    """
    return str(value).lower()


def tokenize_value(
    value: Any,
    min_length: int = MIN_TOKEN_LENGTH,
    numeric_min_length: Optional[int] = None,
) -> List[str]:
    """Extract blocking tokens from one attribute value.

    ``None`` yields no tokens.  Non-strings are stringified first so
    numeric attributes still participate in schema-agnostic blocking.
    With *numeric_min_length* set, purely-numeric tokens additionally
    must reach that length — the optional numeric-noise filter; the
    default (``None``) applies no numeric-specific rule.
    """
    if value is None:
        return []
    tokens = [
        tok for tok in _TOKEN_SPLIT.split(normalize_value(value)) if len(tok) >= min_length
    ]
    if numeric_min_length is None:
        return tokens
    return [
        tok
        for tok in tokens
        if len(tok) >= numeric_min_length or not tok.isdigit()
    ]


def tokenize_entity(
    attributes: Mapping[str, Any],
    exclude: Iterable[str] = (),
    min_length: int = MIN_TOKEN_LENGTH,
    numeric_min_length: Optional[int] = None,
) -> Set[str]:
    """Distinct tokens across all attribute values of one entity.

    Parameters
    ----------
    attributes:
        Column name → value mapping of the entity.
    exclude:
        Attribute names to skip — the identifier column never contributes
        blocking keys (its values are unique by definition).
    numeric_min_length:
        Optional minimum length for purely-numeric tokens (see
        :func:`tokenize_value`); ``None`` disables the numeric rule.
    """
    skip = {name.lower() for name in exclude}
    tokens: Set[str] = set()
    for name, value in attributes.items():
        if name.lower() in skip:
            continue
        tokens.update(
            tokenize_value(
                value, min_length=min_length, numeric_min_length=numeric_min_length
            )
        )
    return tokens


class TokenVocabulary:
    """Bijective token-string ↔ integer-id interning table.

    Every distinct token is assigned a dense integer id exactly once;
    signature columns and the blocking-graph fast path then work on
    int arrays instead of repeated string hashing.  Grown incrementally —
    registration interns a table's blocking keys and ``INSERT`` batches
    intern only what their rows introduce; a query interns nothing.
    """

    __slots__ = ("_ids", "_tokens")

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._tokens: List[str] = []

    def intern(self, token: str) -> int:
        """The id of *token*, assigning a fresh one on first sight."""
        token_id = self._ids.get(token)
        if token_id is None:
            token_id = len(self._tokens)
            self._ids[token] = token_id
            self._tokens.append(token)
        return token_id

    def intern_all(self, tokens: Iterable[str]) -> Tuple[int, ...]:
        """Sorted, de-duplicated ids of *tokens* (a signature row's ids)."""
        intern = self.intern
        return tuple(sorted({intern(token) for token in tokens}))

    def token_of(self, token_id: int) -> str:
        return self._tokens[token_id]

    def tokens(self, start: int = 0) -> List[str]:
        """The interned tokens in id order, from *start* on.

        Interning is append-only, so ``tokens(n)`` is exactly what was
        interned since the vocabulary had ``n`` entries — the
        persistence layer's delta checkpoints are built on this.
        """
        return self._tokens[start:]

    def id_of(self, token: str) -> int:
        """The id of an already-interned token (KeyError when unknown)."""
        return self._ids[token]

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def __len__(self) -> int:
        return len(self._tokens)

    def __repr__(self) -> str:
        return f"TokenVocabulary({len(self._tokens)} tokens)"
