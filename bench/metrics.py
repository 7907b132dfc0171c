"""Measurement primitives: percentiles, operation log, process usage, spans,
and the clean environment every measured process gets."""

from __future__ import annotations

import hashlib
import math
import os
import resource
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: An operation slower than this counts as failed.
OP_TIMEOUT_S = 30.0

#: A percentile is supported only with this many samples beyond it.
MIN_BEYOND = 10

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: Environment overrides the product reads; a run with any of them set
#: would not measure the product default, so they never reach the engine.
STRIPPED_PREFIX = "REPRO_"


def strip_overrides(environ: Dict[str, str]) -> List[str]:
    """Remove every ``REPRO_*`` variable from *environ*; returns their names."""
    names = sorted(name for name in environ if name.startswith(STRIPPED_PREFIX))
    for name in names:
        del environ[name]
    return names


def percentile(samples: Sequence[float], q: float, strict: bool = True) -> Optional[float]:
    """The *q*-quantile (0 < q < 1) by linear interpolation.

    With *strict*, ``None`` unless at least :data:`MIN_BEYOND` samples
    lie on each side of it: a tail read off fewer samples is noise.
    """
    if not samples:
        return None
    ordered = sorted(samples)
    if strict and len(ordered) * min(q, 1.0 - q) < MIN_BEYOND - 1e-9:
        return None
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(samples: Sequence[float]) -> Optional[float]:
    return percentile(samples, 0.5, strict=False)


def rows_digest(rows: Iterable[Sequence[Any]]) -> str:
    """Order-insensitive digest of a result's rows."""
    lines = sorted(repr(tuple(row)) for row in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


#: Set-ups per untraced run (``setup_s`` is their median).  A library run
#: also measures and inserts after each of them, on that fresh engine.
REPEATS = 3


class OpLog:
    """Per-operation wall times by kind, with failure accounting.

    An operation fails when the caller says so (exception, non-200,
    stale epoch), when it exceeds :data:`OP_TIMEOUT_S`, or when its
    answer differs from the first answer recorded under the same key
    (statement, epoch map, …) in this run.
    """

    def __init__(self) -> None:
        #: kind → statement (or ``None``) → milliseconds of each success.
        self.ms: Dict[str, Dict[Any, List[float]]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._answers: Dict[Any, Any] = {}

    def record(
        self,
        kind: str,
        seconds: float,
        statement: Any = None,
        ok: bool = True,
        why: str = "",
        checks: Sequence[Tuple[Any, Any]] = (),
    ) -> bool:
        """Log one operation; *checks* are ``(key, answer)`` pairs."""
        self.attempted += 1
        if ok and seconds > OP_TIMEOUT_S:
            ok, why = False, f"took {seconds:.1f}s"
        for key, answer in checks if ok else ():
            if self._answers.setdefault(key, answer) != answer:
                ok, why = False, f"answer for {key!r} changed within the run"
        if ok:
            self.ms.setdefault(kind, {}).setdefault(statement, []).append(1000.0 * seconds)
        else:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{kind}: {why}")
        return ok

    def samples(self, kind: str) -> List[float]:
        return [ms for group in self.ms.get(kind, {}).values() for ms in group]

    def count(self, *kinds: str) -> int:
        return sum(len(self.samples(kind)) for kind in kinds)

    def busy_s(self) -> float:
        """Seconds callers spent waiting for successful operations."""
        return sum(sum(self.samples(kind)) for kind in self.ms) / 1000.0

    def fastest_ms(self, kind: str) -> List[float]:
        """Per statement, its fastest issue of the run.

        For operations that repeat identical work: the same statement
        from the same state costs the same every time but for what the
        machine adds.  This VM slows down by 30-40 % for seconds at a
        time, several times a minute when its neighbours are busy, and
        never speeds up; a median over the issues is then decided by how
        many of them fell into such a spell, the fastest issue is not.
        """
        return [min(group) for group in self.ms.get(kind, {}).values()]

    def typical_ms(self, kind: str) -> Optional[float]:
        """Median latency of *kind*, stratified by statement.

        For traffic whose operations do not repeat identical work (what
        a served read costs depends on what the other client is doing).
        The statements differ in cost by an order of magnitude, so the
        plain median of the pooled samples is whichever statement sits
        in the middle; the median is taken per statement and the
        statements averaged instead.
        """
        return mean([median(group) for group in self.ms.get(kind, {}).values()])


def mean(values: Sequence[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def undersampled(log: OpLog) -> List[str]:
    """Kinds whose median rests on fewer samples than the rule asks for."""
    return [kind for kind in log.ms if percentile(log.samples(kind), 0.5) is None]


def _descendants(pid: int) -> List[int]:
    """*pid* and every live process below it, from ``/proc``."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        parent = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(parent, []).append(int(entry))
    out, stack = [], [pid]
    while stack:
        current = stack.pop()
        out.append(current)
        stack.extend(children.get(current, ()))
    return out


def tree_usage(pid: int) -> Tuple[float, float]:
    """``(cpu_seconds, peak_rss_mib)`` of *pid*'s process tree.

    CPU is user + system time of every live process in the tree plus
    that of their reaped children (per-query fork workers are reaped
    long before anyone looks); peak RSS is the largest ``VmHWM`` among
    the live ones.  Forked workers are copy-on-write replicas of their
    parent, so a reaped worker's peak is bounded by its parent's.
    ``/proc`` counts CPU in clock ticks of 10 ms; this process reads its
    own clocks instead, which do not step.
    """
    cpu_s = 0.0
    peak_kib = 0
    for process in _descendants(pid):
        try:
            fields = Path(f"/proc/{process}/stat").read_text().rsplit(")", 1)[1].split()
            status = Path(f"/proc/{process}/status").read_text()
        except OSError:
            continue  # exited between the listing and the read
        if process == os.getpid():
            reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpu_s += time.process_time() + reaped.ru_utime + reaped.ru_stime
        else:
            # Fields after the command: index 11..14 = utime stime cutime cstime.
            cpu_s += sum(int(fields[i]) for i in (11, 12, 13, 14)) / _CLOCK_TICKS
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peak_kib = max(peak_kib, int(line.split()[1]))
    return cpu_s, peak_kib / 1024.0


class Tracer:
    """Benchmark-side spans, kept in memory until the run ends.

    Each span records name, start, end, the span that caused it and the
    workload pass it belongs to, plus counts taken at the same boundary.
    A disabled tracer records nothing, so the untraced passes of a
    traced run pay only the ``enabled`` test.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.enabled = False
        self.pass_id = 0
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **counts: Any) -> Iterator[Dict[str, Any]]:
        if not self.enabled:
            yield counts
            return
        record: Dict[str, Any] = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "pass": self.pass_id,
            **counts,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations_ms(self, name: str, **where: Any) -> List[float]:
        return [
            1000.0 * (s["end"] - s["start"])
            for s in self.spans
            if s["name"] == name and all(s.get(k) == v for k, v in where.items())
        ]
