"""Completion-as-a-service: the asyncio HTTP/1.1 front end.

A :class:`CompletionServer` owns an :class:`~repro.serve.pool.EnginePool`
and speaks a small JSON protocol (stdlib only — raw ``asyncio`` streams,
no third-party HTTP stack):

* ``POST /v1/complete`` — one query against a named workspace;
* ``POST /v1/complete_many`` — a batch sharing one scope;
* ``POST /v1/explain`` — ranking attribution;
* ``GET /v1/stats`` — per-tenant metrics / cache / run-log counters;
* ``GET /v1/healthz`` — liveness, protocol version, tenant warm state;
* ``GET /v1/metrics`` — every registry (server-wide HTTP + per-tenant
  engine) in Prometheus text exposition format.

Every query request carries a correlation ``request_id`` — client
supplied or server generated — echoed in the response, bound onto the
engine's own run-log records for the request (via
:meth:`~repro.obs.runlog.RunLog.bind` on the tenant thread), and
stamped on the ``server_request`` record together with the merged span
tree when the request opted into tracing.  See docs/OBSERVABILITY.md.

Engine work never runs on the event loop: each request is dispatched to
its tenant's single worker thread (session affinity,
:mod:`repro.serve.pool`), so the loop stays free to accept, shed, and
answer health checks even while every engine is busy.  Shutdown is
graceful by default: the listener closes first, in-flight connections
drain, then tenant threads stop and per-tenant run logs flush to disk.

``start_in_thread`` wraps the whole thing for synchronous callers
(tests, ``repro.api.serve``): it runs the event loop on a daemon thread
and hands back a :class:`ServerHandle`.
``run_server`` runs it in the foreground until SIGINT (``repro serve``).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)
from urllib.parse import parse_qs, urlsplit

from ..errors import http_status_for
from ..obs.expo import (
    EXPOSITION_CONTENT_TYPE,
    LATENCY_BOUNDS_MS,
    render_prometheus,
)
from ..ide.session import require_positive
from ..obs.metrics import Metrics
from . import protocol
from .pool import DEFAULT_UNIVERSES, AdmissionError, EnginePool
from .protocol import CompletionRequestBody, ProtocolError

#: largest accepted request body; a completion request is tiny, so this
#: only guards the listener against garbage
MAX_BODY_BYTES = 1 << 20
#: socket-level grace for reading one request's head + body
READ_TIMEOUT_S = 30.0


def _merge_spans(records: Iterable[Any]) -> Optional[List[dict]]:
    """Merge per-query span trees into one request-level tree.

    Each query's tracer numbers its spans from zero, so a batch's trees
    collide; renumber every tree past the previous one's ids to keep
    parent links intact and ids unique across the request."""
    merged: List[dict] = []
    offset = 0
    for record in records:
        spans = getattr(record, "trace", None) or []
        top = offset - 1
        for span in spans:
            span = dict(span)
            span["span"] += offset
            if span.get("parent") is not None:
                span["parent"] += offset
            top = max(top, span["span"])
            merged.append(span)
        offset = top + 1
    return merged or None


class CompletionServer:
    """A long-lived, multi-tenant completion service."""

    def __init__(
        self,
        pool: Optional[EnginePool] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        default_deadline_ms: Optional[float] = None,
        run_log_dir: Optional[str] = None,
        universes: Iterable[str] = DEFAULT_UNIVERSES,
        packs: Iterable[str] = (),
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        """The one server constructor: without ``pool``, a pool over the
        builtin ``universes``; plus one tenant per pack in ``packs``,
        each mount reported through ``log``.  A non-positive default
        deadline raises :class:`ValueError` before any universe is
        built; an unknown universe raises :class:`ValueError` and a pack
        that fails verification :class:`~repro.errors.PackError`."""
        self.default_deadline_ms = require_positive(
            "default_deadline_ms", default_deadline_ms)
        self.pool = pool or EnginePool(universes)
        for path in packs or ():
            from ..pack import load_pack

            workspace = load_pack(path)
            self.pool.add_workspace(workspace.name, workspace)
            if log is not None:
                log("mounted pack {} as workspace {!r}".format(
                    path, workspace.name))
        self.host = host
        self.port = port  # 0 until start() binds an ephemeral port
        self.run_log_dir = run_log_dir
        #: server-wide HTTP registry (the tenants keep their own)
        self.metrics = Metrics()
        self.started = time.monotonic()
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.Task] = set()
        #: connection tasks currently processing a request — the only
        #: ones a graceful drain waits for (idle keep-alive connections
        #: are cancelled, or the drain would hang on their next read)
        self._busy: Set[asyncio.Task] = set()
        self._in_flight = 0
        self._draining = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Warm every tenant, open per-tenant run-log streams, bind."""
        self.pool.warm_all()
        if self.run_log_dir is not None:
            os.makedirs(self.run_log_dir, exist_ok=True)
            for name, tenant in self.pool.tenants.items():
                path = os.path.join(self.run_log_dir,
                                    "serve_{}.ndjson".format(name))
                tenant.run_log.attach_stream(open(path, "w"))
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return "http://{}:{}".format(self.host, self.port)

    async def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: stop accepting, let in-flight requests
        finish (``drain=True``), stop tenant threads, flush run logs."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in set(self._connections):
            if drain and task in self._busy:
                continue
            task.cancel()
        if self._connections:
            await asyncio.gather(*set(self._connections),
                                 return_exceptions=True)
        self.pool.shutdown(drain=drain)

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, body, keep_alive = request
                self._in_flight += 1
                if task is not None:
                    self._busy.add(task)
                try:
                    dispatched = time.monotonic()
                    status, payload = await self._dispatch(method, path, body)
                    self.metrics.record(
                        counters={"http_requests": 1,
                                  "http_status_{}".format(status): 1},
                        observations=[(
                            "http_latency_ms",
                            (time.monotonic() - dispatched) * 1000.0,
                            LATENCY_BOUNDS_MS)],
                    )
                    await self._write_response(writer, status, payload,
                                               keep_alive)
                finally:
                    self._in_flight -= 1
                    if task is not None:
                        self._busy.discard(task)
                if not keep_alive or self._draining:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError,
                asyncio.TimeoutError):
            pass
        except asyncio.CancelledError:
            # a stop cancels idle keep-alive connections: end quietly, or
            # the stream callback reports the cancellation as an error
            if not self._draining:
                raise
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes, bool]]:
        """One HTTP/1.1 request head + body; None on clean EOF."""
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=READ_TIMEOUT_S)
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None
            raise
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            return None
        method, path, _version = parts
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if ":" in line:
                key, _, value = line.partition(":")
                headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            return None
        body = b""
        if length:
            body = await asyncio.wait_for(
                reader.readexactly(length), timeout=READ_TIMEOUT_S)
        keep_alive = headers.get("connection", "keep-alive") != "close"
        return method, path, body, keep_alive

    async def _write_response(
        self, writer: asyncio.StreamWriter, status: int,
        payload: Union[dict, str], keep_alive: bool,
    ) -> None:
        if isinstance(payload, str):
            # /v1/metrics answers exposition text, everything else JSON
            body = payload.encode("utf-8")
            content_type = EXPOSITION_CONTENT_TYPE
        else:
            body = json.dumps(payload, sort_keys=True).encode()
            content_type = "application/json"
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 422: "Unprocessable Entity",
                  429: "Too Many Requests", 500: "Internal Server Error",
                  504: "Gateway Timeout"}.get(status, "OK")
        head = (
            "HTTP/1.1 {} {}\r\n"
            "Content-Type: {}\r\n"
            "Content-Length: {}\r\n"
            "Connection: {}\r\n"
            "\r\n"
        ).format(status, reason, content_type, len(body),
                 "keep-alive" if keep_alive else "close")
        writer.write(head.encode() + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, Union[dict, str]]:
        split = urlsplit(target)
        path = split.path
        if path == "/v1/healthz":
            if method != "GET":
                return self._error(protocol.METHOD_NOT_ALLOWED,
                                   "use GET for {}".format(path))
            return 200, self._healthz()
        if path == "/v1/metrics":
            if method != "GET":
                return self._error(protocol.METHOD_NOT_ALLOWED,
                                   "use GET for {}".format(path))
            return 200, self._metrics_text()
        if path == "/v1/stats":
            if method != "GET":
                return self._error(protocol.METHOD_NOT_ALLOWED,
                                   "use GET for {}".format(path))
            return self._stats(parse_qs(split.query))
        if path in ("/v1/complete", "/v1/complete_many", "/v1/explain"):
            if method != "POST":
                return self._error(protocol.METHOD_NOT_ALLOWED,
                                   "use POST for {}".format(path))
            return await self._query_endpoint(path, body)
        return self._error(protocol.NOT_FOUND,
                           "no route for {} {}".format(method, target))

    def _error(self, code: str, message: str) -> Tuple[int, dict]:
        payload = protocol.error_body(code, message)
        return payload.pop("status"), payload

    def _healthz(self) -> dict:
        return {
            "ok": True,
            "protocol": protocol.PROTOCOL_VERSION,
            "uptime_s": round(time.monotonic() - self.started, 3),
            "in_flight": self._in_flight,
            "workspaces": {
                name: {"warmed": tenant.warmed, "pending": tenant.pending}
                for name, tenant in sorted(self.pool.tenants.items())
            },
        }

    def _metrics_text(self) -> str:
        """Every registry, rendered for a Prometheus scrape."""
        sections: List[Tuple[Dict[str, str], Dict[str, Any]]] = [
            ({}, self.metrics.to_dict())]
        gauges: List[Tuple[str, Dict[str, str], float]] = [
            ("server_uptime_seconds", {},
             time.monotonic() - self.started),
            ("server_in_flight", {}, float(self._in_flight)),
        ]
        for name, tenant in sorted(self.pool.tenants.items()):
            labels = {"workspace": name}
            sections.append((labels, tenant.workspace.metrics()))
            gauges.append(("tenant_pending", labels, float(tenant.pending)))
            if tenant.warm_probe_ms is not None:
                gauges.append(
                    ("tenant_warm_probe_ms", labels, tenant.warm_probe_ms))
        return render_prometheus(sections, gauges=gauges)

    def _stats(self, query: Dict[str, list]) -> Tuple[int, dict]:
        names = query.get("workspace")
        if names:
            try:
                tenant = self.pool.get(names[0])
            except AdmissionError as error:
                return self._error(error.code, str(error))
            return 200, tenant.stats()
        return 200, {"workspaces": self.pool.stats()}

    # ------------------------------------------------------------------
    # the completion endpoints
    # ------------------------------------------------------------------
    async def _query_endpoint(
        self, path: str, raw_body: bytes
    ) -> Tuple[int, dict]:
        admitted = time.monotonic()
        endpoint = path.rsplit("/", 1)[1]
        try:
            body = json.loads(raw_body.decode() or "null")
        except (ValueError, UnicodeDecodeError) as error:
            return self._error(protocol.BAD_REQUEST,
                               "body is not valid JSON: {}".format(error))
        try:
            request = CompletionRequestBody(
                body, many=(endpoint == "complete_many"))
        except ProtocolError as error:
            return self._error(error.code, str(error))
        if request.request_id is None:
            request.request_id = protocol.new_request_id()
        if request.deadline_ms is None:
            request.deadline_ms = self.default_deadline_ms
        try:
            tenant = self.pool.get(request.workspace)
        except AdmissionError as error:
            status, payload = self._error(error.code, str(error))
            payload["request_id"] = request.request_id
            return status, payload

        queued = time.monotonic()
        metrics = tenant.workspace.engine.metrics
        metrics.incr("server_requests")
        loop = asyncio.get_running_loop()
        degraded: List[str] = []
        truncated = 0
        spans: Optional[List[dict]] = None
        try:
            if endpoint == "explain":
                completions = await loop.run_in_executor(
                    None, tenant.explain, request)
                status, payload = 200, {
                    "workspace": request.workspace,
                    "query": request.queries[0],
                    "completions": [protocol.completion_to_dict(c)
                                    for c in completions],
                }
                code, query_count, completion_count = (
                    "ok", 1, len(completions))
            else:
                records = await loop.run_in_executor(
                    None, tenant.complete, request)
                results = [protocol.record_to_dict(r) for r in records]
                if endpoint == "complete":
                    payload = dict(results[0])
                    payload["workspace"] = request.workspace
                else:
                    payload = {"workspace": request.workspace,
                               "results": results}
                status = 200
                code = ("parse_error" if results[0].get("parse_error")
                        else "ok")
                if endpoint == "complete" and code == "parse_error":
                    status = http_status_for(protocol.PARSE_ERROR)
                query_count = len(records)
                completion_count = sum(len(r.suggestions) for r in records)
                degraded = sorted(
                    set().union(*(r.degraded for r in records)))
                truncated = sum(1 for r in records if r.truncated)
                if request.trace:
                    spans = _merge_spans(records)
                    if endpoint == "complete" and spans is not None:
                        payload["spans"] = spans
        except (AdmissionError, ProtocolError) as error:
            status, payload = self._error(error.code, str(error))
            code, query_count, completion_count = error.code, 0, 0
            metrics.incr("server_shed" if code in (
                protocol.SHED, protocol.DEADLINE_EXCEEDED)
                else "server_rejected")
        except Exception as error:  # noqa: BLE001 - last-resort boundary
            status, payload = self._error(
                protocol.INTERNAL, "{}: {}".format(type(error).__name__,
                                                   error))
            code, query_count, completion_count = protocol.INTERNAL, 0, 0
            metrics.incr("server_errors")
        else:
            metrics.incr("server_ok")
        payload["request_id"] = request.request_id

        now = time.monotonic()
        elapsed_ms = (now - admitted) * 1000.0
        shed = code in (protocol.SHED, protocol.DEADLINE_EXCEEDED)
        metrics.observe("server_latency_ms", elapsed_ms,
                        bounds=LATENCY_BOUNDS_MS)
        tenant.run_log.server_request(
            endpoint="/v1/{}".format(endpoint),
            status=status,
            code=code,
            elapsed_ms=elapsed_ms,
            workspace=request.workspace,
            queue_ms=(queued - admitted) * 1000.0,
            deadline_ms=request.deadline_ms,
            queries=query_count,
            completions=completion_count,
            shed=shed,
            request_id=request.request_id,
            degraded=degraded or None,
            truncated=truncated or None,
            spans=spans,
        )
        return status, payload


# ----------------------------------------------------------------------
# synchronous embedding
# ----------------------------------------------------------------------

class ServerHandle:
    """A running server on a background event-loop thread."""

    def __init__(self, server: CompletionServer, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def url(self) -> str:
        return self.server.url

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Gracefully stop the server and join its thread."""
        if not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(drain=drain), self._loop)
        future.result(timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


def run_server(log: Callable[[str], None] = print,
               **options: Any) -> None:  # pragma: no cover - foreground
    """Build a :class:`CompletionServer` (same keywords) and serve on this
    thread's event loop until interrupted; Ctrl-C / SIGINT drains
    in-flight requests, then stops.  Progress goes to ``log``: one
    ``mounted pack …`` line per pack, the warm-up, then ``serving on
    <url>`` once the port is bound (``repro serve`` runs this;
    perfbench's serving probe waits for that line), and ``draining in-flight requests...`` and ``stopped`` on SIGINT.

    The SIGINT handler is the event loop's own, so the drain runs inside
    the loop (``asyncio.run`` would otherwise turn the signal into a
    cancellation of the serving task), and it replaces an inherited
    ignore, as background jobs of a non-interactive shell have."""
    server = CompletionServer(log=log, **options)

    async def run() -> None:
        log("warming {} workspace(s): {}".format(
            len(server.pool.tenants), ", ".join(server.pool.tenants)))
        loop = asyncio.get_running_loop()
        interrupted = asyncio.Event()
        loop.add_signal_handler(signal.SIGINT, interrupted.set)
        await server.start()
        log("serving on {} (Ctrl-C to drain and stop)".format(server.url))
        await interrupted.wait()
        loop.remove_signal_handler(signal.SIGINT)
        log("draining in-flight requests...")
        await server.stop(drain=True)
        log("stopped")

    asyncio.run(run())


def start_in_thread(
    universes: Iterable[str] = DEFAULT_UNIVERSES, **options: Any
) -> ServerHandle:
    """Start a :class:`CompletionServer` (same keywords) on a daemon
    thread and return once it is warm and listening (the handle knows
    the bound port)."""
    server = CompletionServer(universes=universes, **options)
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    startup_error: list = []

    def run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except Exception as error:  # pragma: no cover - bind failures
            startup_error.append(error)
            ready.set()
            return
        ready.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=run, name="repro-serve", daemon=True)
    thread.start()
    ready.wait()
    if startup_error:  # pragma: no cover - bind failures
        raise startup_error[0]
    return ServerHandle(server, loop, thread)
