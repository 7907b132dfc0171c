"""Parallel execution subsystem: one resident worker runtime.

QueryER's dominant cost is Comparison-Execution — blocking-graph
construction plus per-pair similarity matching.  An engine runs it
serially by default (``workers == 1``).  With ``workers > 1`` its large
invocations go to resident shard workers, with output **bit-identical**
to serial:

* :class:`~repro.parallel.shards.ShardRuntime` forks ``N``
  hash-partitioned worker processes once per engine; they keep every
  table's indices and matcher resident, receive committed inserts as
  delta segments, and recover from faults by re-running a failed
  shard's work serially in the parent;
* :class:`~repro.parallel.planner.PartitionPlanner` cuts a graph build's
  blocks into balanced *contiguous* spans;
* :class:`~repro.parallel.merger.DeterministicMerger` recombines
  per-span results in fixed partition order, reassembling the exact
  serial visit order — so edge weights, pruning decisions and match sets
  carry the same bits as a single-core run;
* :class:`~repro.parallel.executor.ParallelComparisonExecutor`
  orchestrates the above, falling back to serial when the runtime
  cannot serve.

Configuration enters through
:class:`~repro.parallel.config.ExecutionConfig` (``workers=N``; the
``REPRO_WORKERS`` environment variable sets the default, else 1).
"""

from repro.parallel.config import ExecutionConfig, usable_cores
from repro.parallel.executor import ParallelComparisonExecutor
from repro.parallel.merger import DeterministicMerger
from repro.parallel.planner import Partition, PartitionPlanner
from repro.parallel.shards import (
    ShardRuntime,
    ShardUnavailable,
    TaskExecutionError,
    owner_of,
)

__all__ = [
    "ExecutionConfig",
    "ParallelComparisonExecutor",
    "DeterministicMerger",
    "Partition",
    "PartitionPlanner",
    "ShardRuntime",
    "ShardUnavailable",
    "TaskExecutionError",
    "owner_of",
    "usable_cores",
]
