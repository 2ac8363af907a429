"""Stdlib HTTP gateway over a :class:`~repro.serve.service.DatasetService`.

Endpoints::

    GET  /healthz                     liveness + dataset identity (JSON)
    GET  /metrics                     per-query counters/latency/inflight
                                      (JSON by default; Prometheus text
                                      via ?format=prometheus or an
                                      Accept: text/plain header)
    GET  /v1/<endpoint>?a=b&c=d       query-string parameters (JSON)
    POST /v1/<endpoint>  {...}        JSON-body parameters (JSON)

``<endpoint>`` is one of the :data:`~repro.serve.schemas.QUERY_ENDPOINTS`
names.  GET and POST validate identically (the schemas coerce
query-string forms), so ``curl`` one-liners and programmatic clients
see the same behavior.  Every client error is a structured body
``{"error": {"code", "message"[, "field"]}}`` with a 4xx status;
unexpected server failures answer 500 with code ``internal`` and no
traceback leakage.

Concurrency: ``ThreadingHTTPServer`` spawns unboundedly by default, so
:class:`DatasetHTTPServer` routes connections through a bounded
``ThreadPoolExecutor`` -- ``--workers N`` is a real cap on concurrent
request threads, and excess connections queue instead of piling up
threads.  Responses carry accurate ``Content-Length`` so HTTP/1.1
keep-alive works for closed-loop load generators.
"""

from __future__ import annotations

import json
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping, Optional

from repro.obs import Tracer
from repro.obs.exposition import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.serve.errors import RequestError
from repro.serve.schemas import QUERY_ENDPOINTS
from repro.serve.service import DatasetService
from repro.serve.tracing import RequestTraceLog, measure_ms

#: Largest accepted request body; queries are tiny, anything bigger is
#: a client bug or abuse.
MAX_BODY_BYTES = 1 << 20


class DatasetHTTPServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` with a bounded request-thread pool."""

    daemon_threads = True

    def __init__(self, address, handler_class, service: DatasetService,
                 *, workers: int = 8,
                 trace_log: Optional[RequestTraceLog] = None) -> None:
        super().__init__(address, handler_class)
        self.service = service
        #: When set, every /v1 request runs under its own Tracer and
        #: lands in the bounded on-disk trace ring (plus the slow-query
        #: log past its threshold).  None means requests run untraced.
        self.trace_log = trace_log
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="serve"
        )

    def process_request(self, request, client_address) -> None:
        # Submit to the bounded pool instead of one-thread-per-request.
        self._pool.submit(self.process_request_thread,
                          request, client_address)

    def server_close(self) -> None:
        super().server_close()
        self._pool.shutdown(wait=False)

    def close(self) -> None:
        """Stop accepting, drop the pool, release the dataset."""
        self.server_close()
        self.service.close()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: DatasetHTTPServer

    # --------------------------------------------------------- plumbing

    def log_message(self, format: str, *args) -> None:
        # Per-request stderr chatter off; /metrics is the signal.
        pass

    def _send(self, status: int, body: bytes,
              content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict) -> None:
        self._send(status, json.dumps(payload, sort_keys=True).encode("utf-8"))

    def _send_error_json(self, error: RequestError) -> None:
        self._send_json(error.status, {"error": error.to_dict()})

    def _read_body(self) -> Mapping:
        length = self.headers.get("Content-Length")
        if length is None:
            return {}
        try:
            size = int(length)
        except ValueError:
            raise RequestError("bad-request", "invalid Content-Length")
        if size > MAX_BODY_BYTES:
            raise RequestError("too-large", "request body too large",
                               status=413)
        raw = self.rfile.read(size)
        if not raw:
            return {}
        try:
            payload = json.loads(raw)
        except ValueError:
            raise RequestError("bad-json", "request body is not valid JSON")
        if not isinstance(payload, dict):
            raise RequestError("bad-type", "request body must be an object")
        return payload

    def _query_params(self) -> dict:
        parsed = urllib.parse.urlsplit(self.path)
        return {
            key: values[-1]
            for key, values in urllib.parse.parse_qs(
                parsed.query, keep_blank_values=True
            ).items()
        }

    def _endpoint(self) -> Optional[str]:
        path = urllib.parse.urlsplit(self.path).path
        if path.startswith("/v1/"):
            return path[len("/v1/"):]
        return None

    # ---------------------------------------------------------- methods

    def do_GET(self) -> None:
        path = urllib.parse.urlsplit(self.path).path
        if path == "/healthz":
            self._send_json(200, self.server.service.healthz())
            return
        if path == "/metrics":
            self._send_metrics()
            return
        endpoint = self._endpoint()
        if endpoint is None:
            self._send_error_json(RequestError(
                "not-found", f"no such path {path!r}; queries live under "
                f"/v1/<endpoint>", status=404))
            return
        self._answer(endpoint, self._query_params())

    def do_POST(self) -> None:
        endpoint = self._endpoint()
        if endpoint is None:
            self._send_error_json(RequestError(
                "not-found",
                "POST queries live under /v1/<endpoint>", status=404))
            return
        try:
            payload = self._read_body()
        except RequestError as exc:
            self._send_error_json(exc)
            return
        self._answer(endpoint, payload)

    def _send_metrics(self) -> None:
        """Answer /metrics with content negotiation.

        Explicit ``?format=json|prometheus`` wins; otherwise an
        ``Accept`` header asking for ``text/plain`` (a Prometheus
        scraper) gets exposition text, and everything else keeps the
        original JSON body for backward compatibility.
        """
        requested = self._query_params().get("format")
        if requested is None:
            accept = self.headers.get("Accept", "")
            requested = ("prometheus"
                         if "text/plain" in accept
                         and "application/json" not in accept
                         else "json")
        if requested == "json":
            self._send_json(200, self.server.service.metrics_snapshot())
        elif requested == "prometheus":
            self._send(
                200,
                render_prometheus(
                    self.server.service.metrics_snapshot()
                ).encode("utf-8"),
                PROMETHEUS_CONTENT_TYPE,
            )
        else:
            self._send_error_json(RequestError(
                "bad-format",
                f"unknown metrics format {requested!r}; expected "
                f"'json' or 'prometheus'", field="format"))

    def _answer(self, endpoint: str, payload: Mapping) -> None:
        trace_log = self.server.trace_log
        if trace_log is None:
            try:
                result = self.server.service.query(endpoint, payload)
            except RequestError as exc:
                self._send_error_json(exc)
                return
            except Exception:
                self._send_error_json(RequestError(
                    "internal", "internal server error", status=500))
                return
            self._send_json(200, result)
            return
        # Traced twin of the same flow: identical service call and
        # response bytes; the trace is written only after the answer
        # has been sent, so tracing adds no latency before the bytes.
        tracer = Tracer()
        start_ns = time.perf_counter_ns()
        status, error = 200, None
        try:
            result = self.server.service.query(endpoint, payload,
                                               tracer=tracer)
        except RequestError as exc:
            status, error = exc.status, exc.to_dict()
            self._send_error_json(exc)
        except Exception:
            internal = RequestError(
                "internal", "internal server error", status=500)
            status, error = internal.status, internal.to_dict()
            self._send_error_json(internal)
        else:
            self._send_json(200, result)
        trace_log.record(endpoint, payload=dict(payload), tracer=tracer,
                         duration_ms=measure_ms(start_ns), status=status,
                         error=error)


def create_server(service: DatasetService, *, host: str = "127.0.0.1",
                  port: int = 0, workers: int = 8,
                  trace_log: Optional[RequestTraceLog] = None
                  ) -> DatasetHTTPServer:
    """Bind a gateway for ``service``; ``port=0`` picks a free port.

    The caller runs ``serve_forever()`` (typically on a thread) and
    ``close()`` when done -- closing the server also closes the
    service's backing store.  Pass a :class:`RequestTraceLog` to trace
    every request into its bounded on-disk ring.
    """
    return DatasetHTTPServer((host, port), _Handler, service,
                             workers=workers, trace_log=trace_log)


__all__ = ["DatasetHTTPServer", "MAX_BODY_BYTES", "create_server"]
