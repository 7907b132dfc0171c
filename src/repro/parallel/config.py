"""Execution configuration for the parallel Comparison-Execution subsystem.

:class:`ExecutionConfig` is the one knob surface: how many workers, and
the thresholds below which a query stays serial even on a multi-worker
engine.  The default is serial — ``REPRO_WORKERS`` if set, otherwise
one worker — because on every committed workload a second worker costs
more than it saves (see the README's "Parallel execution" section).
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Optional

#: Environment variable setting the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: cgroup v2 CPU bandwidth file: ``"<quota> <period>"`` in microseconds,
#: or ``"max <period>"`` when unthrottled.
_CGROUP_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _cgroup_quota_cores(path: str = _CGROUP_CPU_MAX) -> Optional[int]:
    """Whole cores the cgroup v2 CPU quota allows, or ``None``.

    A container pinned to ``200000 100000`` may *see* 32 cores in its
    affinity mask yet only ever get 2 cores of bandwidth.
    """
    try:
        with open(path, "r", encoding="ascii") as handle:
            fields = handle.read().split()
        quota, period = fields[0], int(fields[1])
    except (OSError, ValueError, IndexError):
        return None
    if quota == "max" or period <= 0:
        return None
    try:
        return max(1, int(quota) // period)
    except ValueError:
        return None


def usable_cores() -> int:
    """Cores this process may actually run on.

    ``sched_getaffinity`` (where available) respects CPU masks that
    ``cpu_count`` ignores, and the cgroup v2 CPU-bandwidth quota caps
    the result further.  No env override, no cap beyond the quota —
    this is the hardware fact benchmarks report next to their ratios.
    """
    try:
        cores = max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        cores = max(1, os.cpu_count() or 1)
    quota = _cgroup_quota_cores()
    if quota is not None:
        cores = min(cores, quota)
    return cores


def env_workers() -> int:
    """The default worker count: ``REPRO_WORKERS`` if set, else 1.

    A value that is not a positive integer raises :class:`ValueError`
    naming the variable, the same way ``ExecutionConfig(workers=0)``
    does — a typo must not silently run a different configuration.
    """
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    return workers


def fork_available() -> bool:
    """Whether shard workers (forked processes) can run here."""
    return "fork" in multiprocessing.get_all_start_methods()


@dataclass(frozen=True)
class ExecutionConfig:
    """How DEDUP Comparison-Execution is scheduled.

    ``workers == 1`` runs everything serially in the calling process.
    ``workers > 1`` gives the engine a
    :class:`~repro.parallel.shards.ShardRuntime` of that many resident
    worker processes, forked on the first query that crosses a
    threshold below and kept current by per-insert delta segments.
    Results are bit-identical either way.

    Parameters
    ----------
    workers:
        Worker count; defaults to ``REPRO_WORKERS`` when set, else 1.
    min_parallel_pairs:
        How many pairs the matcher's batched cascade must leave
        *undecided* — pairs that need scalar Jaro-Winkler — before that
        remainder is routed to the shards.  The cascade's array stages
        always run in the calling process and settle most candidates.
    min_parallel_comparisons:
        Comparison cardinality of the post-BP/BF blocks below which the
        blocking graph is built serially.
    task_timeout_s:
        Per-dispatch wall-clock bound in seconds (hang containment): a
        shard not answering within it is terminated and its bucket
        recomputed serially in the parent.  ``None`` disables; the
        generous default only trips on genuine hangs.
    """

    workers: int = field(default_factory=env_workers)
    min_parallel_pairs: int = 4096
    min_parallel_comparisons: int = 131072
    task_timeout_s: Optional[float] = 300.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be positive seconds (or None)")

    @classmethod
    def serial(cls) -> "ExecutionConfig":
        """Strictly single-process execution."""
        return cls(workers=1)

    def resolved_workers(self) -> int:
        """The effective worker count."""
        return self.workers

    @property
    def parallel(self) -> bool:
        """Whether this configuration runs resident shard workers."""
        return self.workers > 1
