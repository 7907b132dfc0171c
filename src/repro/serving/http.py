"""Stdlib HTTP/JSON transport for :class:`~repro.serving.service.EngineService`.

A :class:`ThreadingHTTPServer` (one thread per connection, daemon
threads) exposing:

``GET /healthz``
    Liveness + the current table/epoch map.
``GET /metrics``
    Request counters, cache and coalescer statistics, p50/p99 latency
    per pipeline stage.
``POST /query``
    Body ``{"sql": ..., "mode"?: "aes", "timeout"?: seconds}``.
    SELECTs answer at one epoch snapshot; ``INSERT INTO`` SQL routes to
    the write path.  Responses carry the epoch stamp and whether the
    answer was a cache hit, a coalesced share, or a fresh execution.
``POST /insert``
    Body ``{"table": ..., "rows": [[...], ...], "columns"?: [...]}`` —
    the programmatic twin of ``INSERT INTO``.

Failure contract: every response is JSON, and every error response
carries a machine-readable ``error_kind`` next to the human ``error``
string — clients branch on the kind, never on message text.  Malformed
requests are 400 (``bad_request``), unknown paths 404 (``not_found``),
overload 503 (``overload``, with a ``Retry-After`` header — the service
sheds load instead of queueing into collapse), expired per-request
timeouts 504 (``timeout``), a rolled-back insert 500
(``ingest_failed`` with ``rolled_back: true``), an injected fault
500 (``injected_fault``), and anything else 500 (``internal``).  No
exception path ever wedges the service: handler errors release the
admission slot and engine gate on the way out (see
``EngineService``), the per-connection thread answers JSON instead of
dying with a traceback, and a client that disappeared mid-response is
simply dropped.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.incremental import IngestError
from repro.resilience import FaultError
from repro.serving.service import EngineService, OverloadError, RequestTimeout
from repro.sql.lexer import LexError
from repro.sql.parser import ParseError
from repro.storage.schema import SchemaError

#: Maximum accepted request body; anything larger is refused outright
#: (a malformed Content-Length must not let one client balloon memory).
MAX_BODY_BYTES = 8 * 1024 * 1024


class ServingHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server owning one :class:`EngineService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: EngineService):
        super().__init__(address, ServingHandler)
        self.service = service

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class ServingHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Small JSON request/response pairs over keep-alive connections are
    # exactly the traffic shape Nagle + delayed-ACK punishes (~40 ms per
    # round trip); serving latency is real latency, so turn it off.
    disable_nagle_algorithm = True
    server: ServingHTTPServer

    # -- routes ----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        service = self.server.service
        if self.path == "/healthz":
            self._handle(lambda _body: service.healthz(), needs_body=False)
        elif self.path == "/metrics":
            self._handle(lambda _body: service.metrics_snapshot(), needs_body=False)
        else:
            self._send(
                404, {"error": f"no such endpoint: {self.path}", "error_kind": "not_found"}
            )

    def do_POST(self) -> None:  # noqa: N802
        if self.path == "/query":
            self._handle(self._query)
        elif self.path == "/insert":
            self._handle(self._insert)
        else:
            self._send(
                404, {"error": f"no such endpoint: {self.path}", "error_kind": "not_found"}
            )

    # -- handlers --------------------------------------------------------
    def _query(self, body: Dict[str, Any]) -> Dict[str, Any]:
        sql = body.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise ValueError("body must carry a non-empty 'sql' string")
        served = self.server.service.execute(
            sql,
            mode=body.get("mode", "aes"),
            timeout=_optional_seconds(body.get("timeout")),
        )
        return served.as_dict()

    def _insert(self, body: Dict[str, Any]) -> Dict[str, Any]:
        table = body.get("table")
        rows = body.get("rows")
        if not isinstance(table, str) or not isinstance(rows, list):
            raise ValueError("body must carry 'table' (string) and 'rows' (list)")
        return self.server.service.insert_rows(
            table,
            rows,
            columns=body.get("columns"),
            timeout=_optional_seconds(body.get("timeout")),
        )

    # -- plumbing --------------------------------------------------------
    def _handle(self, handler, needs_body: bool = True) -> None:
        try:
            payload = handler(self._read_body() if needs_body else None)
        except OverloadError as error:
            self._send(
                503,
                {
                    "error": str(error),
                    "error_kind": "overload",
                    "retry_after_s": error.retry_after,
                },
                extra_headers={"Retry-After": str(max(1, int(error.retry_after)))},
            )
        except RequestTimeout as error:
            self._send(504, {"error": str(error), "error_kind": "timeout"})
        except IngestError as error:
            # The write failed but was rolled back below the gate: the
            # table (and every cached answer) still describes the
            # pre-insert epoch, so the client may simply retry.
            self._send(
                500,
                {"error": str(error), "error_kind": "ingest_failed", "rolled_back": True},
            )
        except FaultError as error:
            self._send(500, {"error": str(error), "error_kind": "injected_fault"})
        except (ValueError, KeyError, TypeError, ParseError, LexError, SchemaError) as error:
            self._send(400, {"error": str(error), "error_kind": "bad_request"})
        except Exception as error:  # defensive catch-all: thread must answer, not die
            self._send(500, {"error": f"internal error: {error}", "error_kind": "internal"})
        else:
            self._send(200, payload)

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length <= 0:
            raise ValueError("request body required")
        if length > MAX_BODY_BYTES:
            raise ValueError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ValueError(f"request body is not valid JSON: {error}") from None
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        return body

    def _send(
        self,
        status: int,
        payload: Dict[str, Any],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, default=str).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (extra_headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except OSError:
            # The client hung up mid-response (broken pipe / reset).
            # Its admission slot was already released; dropping the
            # write is the whole recovery.
            self.close_connection = True

    def log_message(self, format: str, *args: Any) -> None:
        """Suppressed: the service emits structured JSON request logs."""


def _optional_seconds(value: Any) -> Optional[float]:
    if value is None:
        return None
    seconds = float(value)
    if seconds <= 0:
        raise ValueError("timeout must be positive seconds")
    return seconds


def make_server(
    service: EngineService, host: str = "127.0.0.1", port: int = 0
) -> ServingHTTPServer:
    """A bound (not yet serving) server; ``port=0`` picks a free port."""
    return ServingHTTPServer((host, port), service)
