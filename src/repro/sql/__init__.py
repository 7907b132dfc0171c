"""SQL substrate: lexer, parser, planner, volcano operators, executor.

Implements the flat SPJ dialect of the paper (§5): conjunctive and
disjunctive WHERE clauses with ``col op constant`` and equi-join
conditions, plus the ``SELECT DEDUP`` extension that triggers
analysis-aware deduplication (§3) and the multi-row ``INSERT INTO``
DML form that feeds incremental ingestion (:mod:`repro.incremental`).
"""

from repro.sql.lexer import Lexer, LexError
from repro.sql.parser import Parser, ParseError, parse
from repro.sql import ast
from repro.sql.schema import Field, PlanSchema
from repro.sql.normalize import normalize_sql
from repro.sql.planner import RelationalPlanner
from repro.sql.executor import QueryResult, execute_plan

__all__ = [
    "Lexer",
    "LexError",
    "Parser",
    "ParseError",
    "parse",
    "ast",
    "Field",
    "PlanSchema",
    "normalize_sql",
    "RelationalPlanner",
    "QueryResult",
    "execute_plan",
]
