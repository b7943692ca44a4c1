"""Stdlib HTTP front end for the simulation service.

A thin translation layer — parse, submit, render — over
:class:`~repro.service.scheduler.SimulationService`, built on
``http.server.ThreadingHTTPServer`` so the service adds **zero new
dependencies**.  Handlers never simulate and never block on job
completion (SVC001 enforces this): a request either hits the result
store, joins the queue, or is rejected with explicit backpressure.

Endpoints::

    POST /jobs            {"experiment": "fig2", "quick": true, ...}
                          -> 200 cached | 202 accepted/duplicate
                          -> 400 bad request | 429 queue full
    GET  /jobs/<id>       job status (state, attempts, error, result key)
    GET  /results/<key>   stored result payload
    GET  /catalog         catalog rows (?experiment=fig4&limit=20)
    GET  /reports/        HTML report index, rendered from the live store
    GET  /reports/<name>  one experiment's HTML report (inline SVG)
    GET  /healthz         liveness + queue depth + code version
    GET  /metrics         Prometheus text exposition of the registry

``/catalog`` and ``/reports`` re-render from the store's in-memory
index on every request, which is what turns the job API into a
self-updating results dashboard.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro import obs
from repro.errors import JobRejectedError, QueueFullError
from repro.service.scheduler import SimulationService
from repro.units import KiB

#: Request bodies above this size are rejected outright (a request spec
#: is a few hundred bytes; anything larger is abuse, not a sweep).
MAX_BODY_BYTES = 64 * KiB


class ServiceHTTPServer(ThreadingHTTPServer):
    """One HTTP listener bound to one :class:`SimulationService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: SimulationService) -> None:
        super().__init__(address, ServiceRequestHandler)
        self.service = service


def make_server(
    service: SimulationService, host: str = "127.0.0.1", port: int = 0
) -> ServiceHTTPServer:
    """Bind a server for ``service`` (``port=0`` picks an ephemeral port)."""
    return ServiceHTTPServer((host, port), service)


class ServiceRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> SimulationService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing ----------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        obs.get_logger("service.http").debug(format, *args)

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Optional[Dict[str, Any]]:
        # No header means an empty body.  Anything but a non-negative
        # integer is refused before a byte is read: ``read(-1)`` would
        # wait for the client to close the connection.  A refused body
        # stays unread, so the connection closes after the reply.
        declared = self.headers.get("Content-Length", "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            self.close_connection = True
            self._send_json(
                400, {"error": f"Content-Length must be a non-negative integer: {declared!r}"}
            )
            return None
        # int() refuses thousands of digits; so many are over the limit anyway.
        digits = declared.lstrip("0") or "0"
        if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
            self.close_connection = True
            self._send_json(413, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"})
            return None
        length = int(digits)
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw or b"{}")
        except json.JSONDecodeError as error:
            self._send_json(400, {"error": f"invalid JSON body: {error}"})
            return None
        if not isinstance(payload, dict):
            self._send_json(400, {"error": "body must be a JSON object"})
            return None
        return payload

    # -- routes ------------------------------------------------------

    def do_POST(self) -> None:
        if self.path.rstrip("/") != "/jobs":
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})
            return
        body = self._read_body()
        if body is None:
            return
        try:
            outcome = self.service.submit(
                experiment=body.get("experiment", ""),
                params=body.get("params") or {},
                quick=body.get("quick", False),
                priority=int(body.get("priority", 0)),
                timeout=body.get("timeout"),
                max_retries=body.get("max_retries"),
            )
        except JobRejectedError as error:
            self._send_json(400, {"error": str(error)})
            return
        except QueueFullError as error:
            # Explicit backpressure: the client owns the retry decision.
            self._send_json(
                429,
                {"error": str(error), "queue_depth": self.service.queue.depth},
            )
            return
        except (TypeError, ValueError) as error:
            self._send_json(400, {"error": f"bad request field: {error}"})
            return
        payload = outcome.describe()
        payload["result_url"] = f"/results/{outcome.key}"
        if outcome.status == "cached":
            self._send_json(200, payload)
        else:
            payload["job_url"] = f"/jobs/{outcome.job.id}"
            self._send_json(202, payload)

    def do_GET(self) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(200, self.service.health())
        elif path == "/metrics":
            self._send_text(
                200, self.service.metrics_text(), "text/plain; version=0.0.4"
            )
        elif path == "/catalog":
            self._get_catalog()
        elif path == "/reports":
            self._send_text(
                200, self.service.report_page(), "text/html; charset=utf-8"
            )
        elif path.startswith("/reports/"):
            self._get_report(path[len("/reports/"):])
        elif path.startswith("/jobs/"):
            self._get_job(path[len("/jobs/"):])
        elif path.startswith("/results/"):
            self._get_result(path[len("/results/"):])
        else:
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})

    def _get_catalog(self) -> None:
        query = parse_qs(urlparse(self.path).query)
        experiment = query.get("experiment", [None])[0]
        try:
            limit_raw = query.get("limit", [None])[0]
            limit = int(limit_raw) if limit_raw is not None else None
            if limit is not None and limit < 0:
                raise ValueError(f"negative limit {limit}")
        except ValueError:
            self._send_json(400, {"error": "limit must be a non-negative integer"})
            return
        rows = self.service.catalog_rows(experiment=experiment, limit=limit)
        self._send_json(
            200,
            {"experiment": experiment, "count": len(rows), "rows": rows},
        )

    def _get_report(self, name: str) -> None:
        # Static-bundle links say "<experiment>.html" / "index.html";
        # accept both spellings so the same pages work served live.
        if name.endswith(".html"):
            name = name[: -len(".html")]
        html = self.service.report_page(None if name == "index" else name)
        if html is None:
            self._send_json(
                404, {"error": f"no stored runs for experiment {name!r}"}
            )
            return
        self._send_text(200, html, "text/html; charset=utf-8")

    def _get_job(self, job_id: str) -> None:
        job = self.service.job(job_id)
        if job is None:
            self._send_json(404, {"error": f"unknown job {job_id!r}"})
            return
        payload = job.describe()
        if job.result_key is not None:
            payload["result_url"] = f"/results/{job.result_key}"
        self._send_json(200, payload)

    def _get_result(self, key: str) -> None:
        store = self.service.store
        if not store.has(key):  # also every string that is not a key
            self._send_json(404, {"error": f"no stored result for key {key!r}"})
            return
        # Serve the stored payload verbatim; it is already JSON.
        self._send_text(200, store.path_for(key).read_text(), "application/json")
