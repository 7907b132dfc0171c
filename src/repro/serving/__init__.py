"""Concurrent engine-as-a-service layer (stdlib-only).

Turns the single-caller :class:`~repro.core.engine.QueryEREngine`
library into a long-lived service safe under concurrent traffic:
epoch-stamped snapshot reads over the append-only tables, a result
cache keyed by (normalized SQL, table epochs), single-flight coalescing
of concurrent identical queries, bounded admission with 503 +
Retry-After on overload, and /healthz + /metrics observability with
p50/p99 per-stage latency.  See the module docstrings of
:mod:`repro.serving.service` (concurrency model) and
:mod:`repro.serving.http` (wire protocol).

Start one programmatically::

    from repro.serving import EngineService, make_server

    service = EngineService(engine)
    server = make_server(service, port=7531)
    server.serve_forever()

or from the CLI: ``repro serve --csv people.csv --port 7531``.
"""

from repro.serving.client import GaveUp, RetryingClient
from repro.serving.coalescer import CoalesceTimeout, SingleFlight
from repro.serving.http import ServingHTTPServer, make_server
from repro.serving.metrics import LatencyRecorder, ServiceMetrics
from repro.serving.service import (
    CachedResult,
    EngineService,
    OverloadError,
    RequestTimeout,
    ServedQuery,
)

__all__ = [
    "CachedResult",
    "GaveUp",
    "RetryingClient",
    "CoalesceTimeout",
    "SingleFlight",
    "ServingHTTPServer",
    "make_server",
    "LatencyRecorder",
    "ServiceMetrics",
    "EngineService",
    "OverloadError",
    "RequestTimeout",
    "ServedQuery",
]
