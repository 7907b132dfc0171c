"""QueryER — analysis-aware deduplication over dirty data.

A complete reproduction of *QueryER: A Framework for Fast Analysis-Aware
Deduplication over Dirty Data* (Alexiou et al., EDBT): an SQL engine
whose plans weave Entity-Resolution operators into SPJ query evaluation
so that ``SELECT DEDUP`` queries over dirty data return the same grouped
entities a full batch deduplication would, at a fraction of the cost.

Quickstart::

    from repro import QueryEREngine, read_csv

    engine = QueryEREngine()
    engine.register(read_csv("publications.csv", name="P"))
    engine.register(read_csv("venues.csv", name="V"))
    result = engine.execute(
        "SELECT DEDUP P.title, V.rank "
        "FROM P JOIN V ON P.venue = V.title WHERE P.venue = 'EDBT'")
    for row in result:
        print(row)

Registered tables stay mutable: ``INSERT INTO`` appends records with
delta-aware index maintenance instead of a rebuild (see
:mod:`repro.incremental`)::

    engine.execute(
        "INSERT INTO P (id, title, venue) VALUES ('P9', 'Collective E R', 'EDBT')")
"""

from repro.core import (
    DedupResult,
    DeduplicateOperator,
    ExecutionMode,
    QueryEREngine,
    batch_deduplicate,
)
from repro.er.meta_blocking import MetaBlockingConfig
from repro.incremental import IngestResult
from repro.storage import Catalog, Schema, Table, read_csv, write_csv

__version__ = "1.2.0"

__all__ = [
    "QueryEREngine",
    "ExecutionMode",
    "MetaBlockingConfig",
    "IngestResult",
    "DeduplicateOperator",
    "DedupResult",
    "batch_deduplicate",
    "Table",
    "Schema",
    "Catalog",
    "read_csv",
    "write_csv",
    "__version__",
]
