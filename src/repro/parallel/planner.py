"""Partition planning: balanced, contiguous spans of a graph build.

The postings-span blocking-graph build is partitioned over its blocks,
each costing its comparison cardinality ||b||.  Partitions are always
*contiguous spans* of the block sequence: concatenating per-partition
outputs in partition order reproduces the serial visit order exactly,
which is what lets the deterministic merger re-create the serial
computation bit for bit.  Balance comes from cost-weighted span
boundaries, not from reordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence


@dataclass(frozen=True)
class Partition:
    """One contiguous span ``[start, stop)`` of a partitioned sequence."""

    index: int
    start: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.start


class PartitionPlanner:
    """Splits work into balanced contiguous partitions for the shards.

    Parameters
    ----------
    workers:
        Shard count the plan targets.
    partitions_per_worker:
        Oversubscription factor: planning more (smaller) partitions than
        workers evens out spans whose true cost deviates from the
        estimate.
    """

    def __init__(self, workers: int, partitions_per_worker: int = 4):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if partitions_per_worker < 1:
            raise ValueError("partitions_per_worker must be at least 1")
        self.workers = workers
        self.partitions_per_worker = partitions_per_worker

    def _target_partitions(self, items: int) -> int:
        if items <= 0:
            return 0
        return max(1, min(self.workers * self.partitions_per_worker, items))

    def partition_costs(self, costs: Sequence[int]) -> List[Partition]:
        """Contiguous spans of a cost-weighted item sequence.

        Greedy span cutting against the ideal per-partition cost: a span
        closes once its accumulated cost reaches the remaining-work
        average.  Oversized single items become singleton partitions —
        they cannot be split without breaking visit-order contiguity.
        """
        costs = [max(1, int(cost)) for cost in costs]
        total = sum(costs)
        parts = self._target_partitions(len(costs))
        if parts <= 1:
            return [Partition(0, 0, len(costs))] if costs else []
        partitions: List[Partition] = []
        start = 0
        accumulated = 0
        remaining = total
        for position, cost in enumerate(costs):
            accumulated += cost
            remaining_parts = parts - len(partitions)
            # Keep enough items for the remaining partitions to be
            # non-empty; otherwise close the span at the cost target.
            items_left = len(costs) - position - 1
            must_close = items_left < remaining_parts - 1
            target = remaining / remaining_parts if remaining_parts else remaining
            if (accumulated >= target or must_close) and remaining_parts > 1:
                partitions.append(Partition(len(partitions), start, position + 1))
                start = position + 1
                remaining -= accumulated
                accumulated = 0
        if start < len(costs):
            partitions.append(Partition(len(partitions), start, len(costs)))
        return partitions
