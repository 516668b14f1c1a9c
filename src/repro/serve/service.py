"""The HTTP front end: stdlib ``http.server`` over the scheduler.

Endpoints (all JSON):

* ``GET  /healthz`` — liveness plus queue stats.
* ``GET  /v1/stats`` — scheduler statistics.
* ``GET  /v1/tenants`` — registered tenants and their quota usage.
* ``POST /v1/query`` — submit a :class:`~repro.serve.query.QuerySpec`
  body.  Default is streaming: the response is ``application/x-ndjson``,
  one stream record per line (``queued``/``started``/``partial``/
  ``preempted``/``resumed``/``crash``/``result``/``error``/``billing``),
  held open until the query finishes and closed by one ``status`` record:
  the ``GET /v1/query/<id>`` document without its ``records``, so a
  streamed query is one round trip.  ``?wait=0`` returns the query id
  immediately instead (poll with ``GET /v1/query/<id>``).
* ``GET  /v1/query/<id>`` — status snapshot, records so far, billing.
* ``POST /v1/shutdown`` — stop accepting work and exit ``serve_forever``.

Admission failures map to 429, malformed specs to 400, unknown ids to
404.  :class:`ServeClient` is the urllib-based client the CLI and the
load-generator benchmark share.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Iterator, Tuple

from ..errors import AdmissionError, ExecutionError, GammaError
from .query import QuerySpec
from .scheduler import Scheduler

__all__ = ["MiningService", "ServeClient"]


def _json_bytes(doc: Any) -> bytes:
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


class _Handler(BaseHTTPRequestHandler):
    """One request; ``server.scheduler`` is the shared scheduler."""

    # HTTP/1.0 keeps streaming simple: no chunked framing needed, the
    # client reads lines until the connection closes.
    protocol_version = "HTTP/1.0"

    def log_message(self, fmt: str, *args) -> None:  # pragma: no cover
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(fmt, *args)

    @property
    def scheduler(self) -> Scheduler:
        return self.server.scheduler  # type: ignore[attr-defined]

    # -- plumbing ------------------------------------------------------------
    def _reply(self, status: int, doc: Any) -> None:
        body = _json_bytes(doc)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b"{}"
        try:
            return json.loads(raw.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ExecutionError(f"invalid JSON body: {exc}") from exc

    def _query_flag(self, name: str, default: bool) -> bool:
        path, _, query = self.path.partition("?")
        del path
        for pair in query.split("&"):
            key, _, value = pair.partition("=")
            if key == name:
                return value not in ("0", "false", "no")
        return default

    # -- routes --------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server casing)
        path = self.path.partition("?")[0]
        if path == "/healthz":
            self._reply(200, {"ok": True, **self.scheduler.stats()})
        elif path == "/v1/stats":
            self._reply(200, self.scheduler.stats())
        elif path == "/v1/tenants":
            self._reply(200, self.scheduler.queue.tenants())
        elif path.startswith("/v1/query/"):
            self._get_query(path[len("/v1/query/"):])
        else:
            self._reply(404, {"error": f"unknown path {path!r}"})

    def _get_query(self, ident: str) -> None:
        try:
            query_id = int(ident)
        except ValueError:
            self._reply(400, {"error": f"bad query id {ident!r}"})
            return
        state = self.scheduler.queue.get(query_id)
        if state is None:
            self._reply(404, {"error": f"no query {query_id}"})
            return
        self._reply(200, dict(state.snapshot(), billing=state.billing,
                              records=state.stream.records()))

    def do_POST(self) -> None:  # noqa: N802 (http.server casing)
        path = self.path.partition("?")[0]
        if path == "/v1/query":
            self._post_query()
        elif path == "/v1/shutdown":
            self._reply(200, {"ok": True, "stopping": True})
            threading.Thread(target=self.server.shutdown,
                             daemon=True).start()
        else:
            self._reply(404, {"error": f"unknown path {path!r}"})

    def _post_query(self) -> None:
        try:
            spec = QuerySpec.from_dict(self._read_body())
            state = self.scheduler.submit(spec)
        except AdmissionError as exc:
            self._reply(429, {"error": str(exc), "tenant": exc.tenant})
            return
        except (ExecutionError, GammaError, TypeError) as exc:
            self._reply(400, {"error": str(exc)})
            return
        if not self._query_flag("wait", True):
            self._reply(202, {"query": state.id, "status": state.status})
            return
        # Stream records until the query finishes; HTTP/1.0 close-delimits.
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        try:
            for record in state.stream.follow():
                self.wfile.write(_json_bytes(record))
                self.wfile.flush()
            self.wfile.write(_json_bytes(dict(
                state.snapshot(), billing=state.billing, type="status")))
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client went away; the query keeps running


class MiningService:
    """The long-lived server: scheduler + ThreadingHTTPServer."""

    def __init__(self, scheduler: Scheduler, host: str = "127.0.0.1",
                 port: int = 0, verbose: bool = False) -> None:
        self.scheduler = scheduler
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self._server.scheduler = scheduler  # type: ignore[attr-defined]
        self._server.verbose = verbose  # type: ignore[attr-defined]
        self._thread: "threading.Thread | None" = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "MiningService":
        """Run scheduler workers and serve HTTP on a background thread."""
        self.scheduler.start()
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True,
            name="gamma-serve-http")
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking mode for the CLI (returns after ``/v1/shutdown``)."""
        self.scheduler.start()
        try:
            self._server.serve_forever()
        finally:
            self.close()

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.scheduler.close()

    def __enter__(self) -> "MiningService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ServeClient:
    """Minimal urllib client for :class:`MiningService`."""

    def __init__(self, base_url: str, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _get(self, path: str) -> Dict[str, Any]:
        try:
            with urllib.request.urlopen(self.base_url + path,
                                        timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            detail = json.loads(exc.read().decode("utf-8") or "{}")
            raise ExecutionError(
                f"HTTP {exc.code}: {detail.get('error', exc.reason)}")

    def _post(self, path: str, doc: Any) -> Dict[str, Any]:
        request = urllib.request.Request(
            self.base_url + path, data=_json_bytes(doc),
            headers={"Content-Type": "application/json"}, method="POST")
        try:
            with urllib.request.urlopen(
                    request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            detail = json.loads(exc.read().decode("utf-8") or "{}")
            raise AdmissionError(detail.get("error", str(exc))) \
                if exc.code == 429 else ExecutionError(
                    f"HTTP {exc.code}: {detail.get('error', exc.reason)}")

    def health(self) -> Dict[str, Any]:
        return self._get("/healthz")

    def stats(self) -> Dict[str, Any]:
        return self._get("/v1/stats")

    def tenants(self) -> Dict[str, Any]:
        return self._get("/v1/tenants")

    def query(self, query_id: int) -> Dict[str, Any]:
        return self._get(f"/v1/query/{query_id}")

    def shutdown(self) -> Dict[str, Any]:
        return self._post("/v1/shutdown", {})

    def submit_nowait(self, spec: "QuerySpec | dict") -> Dict[str, Any]:
        doc = spec.to_dict() if isinstance(spec, QuerySpec) else spec
        return self._post("/v1/query?wait=0", doc)

    def submit(self, spec: "QuerySpec | dict",
               timeout: "float | None" = None) -> Iterator[Dict[str, Any]]:
        """Submit and yield the query's stream records as they arrive,
        then the closing ``status`` record."""
        doc = spec.to_dict() if isinstance(spec, QuerySpec) else spec
        request = urllib.request.Request(
            self.base_url + "/v1/query", data=_json_bytes(doc),
            headers={"Content-Type": "application/json"}, method="POST")
        try:
            response = urllib.request.urlopen(
                request, timeout=timeout or self.timeout)
        except urllib.error.HTTPError as exc:
            detail = json.loads(exc.read().decode("utf-8") or "{}")
            message = detail.get("error", str(exc))
            if exc.code == 429:
                raise AdmissionError(message, tenant=detail.get("tenant"))
            raise ExecutionError(f"HTTP {exc.code}: {message}")
        with response:
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))

    def run(self, spec: "QuerySpec | dict",
            timeout: "float | None" = None) -> Dict[str, Any]:
        """Submit, drain the stream, return the final status snapshot
        (what :meth:`query` would now return) — one request."""
        records = list(self.submit(spec, timeout=timeout))
        if not records or records[-1].get("type") != "status":
            raise ExecutionError("response stream ended without a status")
        doc = records.pop()
        del doc["type"]
        doc["records"] = records
        return doc
