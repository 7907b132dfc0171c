"""Resilience: deterministic fault injection and observable degradation.

Two halves, used together by the chaos property suite and the CI
``chaos-smoke`` job:

* :mod:`repro.resilience.faults` — a seedable **fault-injection
  registry**.  Named sites threaded through the shard runtime, the DML
  path and the serving layer call :func:`inject`; a :class:`FaultPlan`
  (armed programmatically, via ``REPRO_FAULTS``, or ``repro serve
  --faults``) decides deterministically which calls raise or hang.

* :mod:`repro.resilience.degradation` — the **degradation log**: every
  graceful fallback (shard serial re-run, shard respawn, packed→dict
  blocking fallback, DML rollback, serving 500) is recorded in the
  process-wide :data:`DEGRADATION` log, which ``GET /metrics`` and
  ``GET /healthz`` surface.

The recovery policies themselves live in the layers they protect:
``ShardRuntime`` (serial re-run of a failed shard's work, task timeouts),
``IndexMaintainer.append`` (transactional rollback), the Deduplicate
operator (packed→dict fallback), and ``EngineService`` (errors never
leak admission slots or the engine gate).
"""

from repro.resilience.degradation import DEGRADATION, DegradationEvent, DegradationLog
from repro.resilience.faults import (
    FAULTS_ENV,
    FAULTS_SEED_ENV,
    FaultError,
    FaultPlan,
    FaultSpec,
    active,
    active_plan,
    clear_plan,
    inject,
    install_plan,
    plan_from_env,
)

__all__ = [
    "DEGRADATION",
    "DegradationEvent",
    "DegradationLog",
    "FAULTS_ENV",
    "FAULTS_SEED_ENV",
    "FaultError",
    "FaultPlan",
    "FaultSpec",
    "active",
    "active_plan",
    "clear_plan",
    "inject",
    "install_plan",
    "plan_from_env",
]
