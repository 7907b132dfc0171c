"""Token kinds and the token record produced by the lexer."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any


class TokenType(enum.Enum):
    """Lexical categories of the SQL dialect."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    STRING = "string"
    NUMBER = "number"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    EOF = "eof"


#: Reserved words (case-insensitive).  ``DEDUP`` is QueryER's extension;
#: ``INSERT``/``INTO``/``VALUES`` belong to the incremental-ingestion DML;
#: ``EXPLAIN``/``ANALYZE`` front the plan-inspection statement.
KEYWORDS = frozenset(
    {
        "SELECT",
        "DEDUP",
        "EXPLAIN",
        "ANALYZE",
        "INSERT",
        "INTO",
        "VALUES",
        "DISTINCT",
        "FROM",
        "WHERE",
        "AND",
        "OR",
        "NOT",
        "IN",
        "IS",
        "NULL",
        "LIKE",
        "BETWEEN",
        "JOIN",
        "INNER",
        "LEFT",
        "RIGHT",
        "OUTER",
        "ON",
        "AS",
        "ORDER",
        "GROUP",
        "BY",
        "ASC",
        "DESC",
        "LIMIT",
        "TRUE",
        "FALSE",
    }
)

#: Multi-character operators first so the lexer prefers the longest match.
OPERATORS = ("<>", "!=", "<=", ">=", "=", "<", ">", "+", "-", "*", "/", "%")

PUNCTUATION = ("(", ")", ",", ".", ";")


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position (for error messages)."""

    type: TokenType
    value: Any
    position: int

    def is_keyword(self, *names: str) -> bool:
        """True when this token is one of the given keywords."""
        return self.type is TokenType.KEYWORD and self.value in names

    def __repr__(self) -> str:
        return f"Token({self.type.value}, {self.value!r}@{self.position})"
