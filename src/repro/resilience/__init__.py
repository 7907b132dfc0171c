"""Resilience: deterministic fault injection and observable degradation.

Two halves, used together by the chaos property suite and the CI
``chaos-smoke`` job:

* :mod:`repro.resilience.faults` — a seedable **fault-injection
  registry**.  Named sites threaded through the DML path, candidate
  derivation, the checkpointer and the serving layer call
  :func:`inject`; a :class:`FaultPlan` (armed programmatically, via
  ``REPRO_FAULTS``, or ``repro serve --faults``) decides
  deterministically which calls raise or hang.

* :mod:`repro.resilience.degradation` — the **degradation log**: every
  graceful fallback (DML rollback, failed checkpoint, serving 500) is
  recorded in the process-wide :data:`DEGRADATION` log, which
  ``GET /metrics`` and ``GET /healthz`` surface.

The recovery policies themselves live in the layers they protect:
``IndexMaintainer.append`` (transactional rollback),
``CheckpointManager`` (a failed checkpoint leaves the previous
snapshot loadable) and ``EngineService`` (errors never leak admission
slots or the engine gate).  The Deduplicate operator has no fallback: a failed candidate
derivation fails the query and leaves the Link Index untouched.
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
