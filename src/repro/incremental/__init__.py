"""Incremental ingestion: DML over registered tables without index rebuilds.

The paper's engine registers a frozen entity collection, builds the
Table Block Index (TBI), its inverse (ITBI) — here one CSR
:class:`~repro.er.blocking.TokenPostings` — and an empty Link Index (LI)
once, and then answers ``SELECT DEDUP`` queries against that snapshot.
This package makes registered tables *mutable* — ``INSERT INTO`` (SQL or
:meth:`repro.core.engine.QueryEREngine.insert`) appends records while
keeping every subsequent query result identical to what a fresh engine
registered with the final table state would return.

Four coordinated maintenance steps per batch (:class:`IndexMaintainer`):

1. **Storage append** — rows are validated and appended atomically via
   :meth:`repro.storage.table.Table.append_rows`.
2. **Delta-aware index maintenance** — the new records are appended to
   the token postings, their new keys interned in ascending
   (block size, key) order
   (:meth:`repro.core.indices.TableIndex.add_records`); no rebuild.
3. **Link-Index invalidation** — see below.
4. **Epoch advance** — ``QueryEREngine.note_appended`` advances the
   table's epoch.  Every plan that read the table is keyed on the old
   epoch, so it is unreachable, and the engine's plan cache evicts it.

Link-Index invalidation
-----------------------

Progressive cleaning (paper §6.1, Fig. 11) records in the LI which
entities are *resolved*: their duplicates have been computed and future
queries trust the recorded link-sets instead of re-resolving.  A newly
inserted record can be a duplicate of an entity already marked resolved,
which would silently freeze an incomplete cluster.

A new record can only ever be linked to an existing entity it shares at
least one block with (a pair that never co-occurs in a block is never
compared, by construction of the ER pipeline).  So the maintainer
un-resolves exactly (a) the resolved entities sharing a block with any
inserted record, expanded to (b) the full LI clusters of those entities.
Step (b) matters: if E ≡ A is recorded and a new record X shares a
block with A only, then E's true cluster now potentially contains X
too, so E must also be re-resolved or a query evaluating only E would
trust its stale cluster.  Recorded links are *kept* — the matcher is
deterministic over immutable attributes, so links are facts; only
resolved-ness is revoked.

Everything here is exercised by ``tests/unit/test_incremental_maintenance.py``
(index-equivalence and invalidation units) and
``tests/property/test_incremental_equivalence.py`` (randomized
insert-then-query ≡ fresh-engine equality).
"""

from repro.incremental.dml import DmlExecutor
from repro.incremental.maintainer import (
    IndexMaintainer,
    IngestError,
    IngestResult,
)

__all__ = [
    "DmlExecutor",
    "IndexMaintainer",
    "IngestError",
    "IngestResult",
]
