"""Clients for the completion service: one sync, one async.

:class:`ServeClient` wraps a persistent ``http.client`` connection —
what perfbench's serving probe, CI's serve smoke and the tests use.  The
``async_request`` coroutine speaks the same protocol over raw asyncio
streams, for callers already inside an event loop (the concurrency
battery's "N async clients" scenario).  Both return ``(http_status,
decoded_json_body)`` and never raise on protocol-level errors — a shed
or a parse failure is a structured body, not an exception
(docs/SERVING.md).
"""

from __future__ import annotations

import asyncio
import http.client
import json
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlsplit

Response = Tuple[int, Dict[str, Any]]


class ServeClient:
    """A synchronous client over one keep-alive connection."""

    def __init__(self, url: str, timeout: float = 60.0) -> None:
        split = urlsplit(url)
        if split.scheme != "http" or split.hostname is None:
            raise ValueError("expected an http://host:port URL, "
                             "got {!r}".format(url))
        self.host = split.hostname
        self.port = split.port or 80
        self.timeout = timeout
        self._connection: Optional[http.client.HTTPConnection] = None

    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._connection

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def request(self, method: str, path: str,
                body: Optional[dict] = None) -> Response:
        """One request; reconnects once on a dropped keep-alive."""
        payload = (json.dumps(body).encode() if body is not None else None)
        headers = {"Content-Type": "application/json"} if payload else {}
        for attempt in (0, 1):
            connection = self._connect()
            try:
                connection.request(method, path, body=payload,
                                   headers=headers)
                response = connection.getresponse()
                text = response.read().decode()
                return response.status, json.loads(text)
            except (http.client.HTTPException, ConnectionError, OSError):
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    def request_text(self, method: str, path: str) -> Tuple[int, str]:
        """Like :meth:`request` but returns the raw body text — for
        endpoints that do not speak JSON (``/v1/metrics``)."""
        for attempt in (0, 1):
            connection = self._connect()
            try:
                connection.request(method, path)
                response = connection.getresponse()
                return response.status, response.read().decode("utf-8")
            except (http.client.HTTPException, ConnectionError, OSError):
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    # endpoint helpers
    # ------------------------------------------------------------------
    def healthz(self) -> Response:
        return self.request("GET", "/v1/healthz")

    def metrics(self) -> Tuple[int, str]:
        """The Prometheus exposition scrape."""
        return self.request_text("GET", "/v1/metrics")

    def stats(self, workspace: Optional[str] = None) -> Response:
        path = "/v1/stats"
        if workspace is not None:
            path += "?workspace={}".format(workspace)
        return self.request("GET", path)

    def complete(self, workspace: str, query: str, **fields: Any) -> Response:
        body = {"workspace": workspace, "query": query}
        body.update(fields)
        return self.request("POST", "/v1/complete", body)

    def complete_many(self, workspace: str, queries, **fields: Any) -> Response:
        body = {"workspace": workspace, "queries": list(queries)}
        body.update(fields)
        return self.request("POST", "/v1/complete_many", body)

    def explain(self, workspace: str, query: str, **fields: Any) -> Response:
        body = {"workspace": workspace, "query": query}
        body.update(fields)
        return self.request("POST", "/v1/explain", body)


async def async_request(
    url: str, method: str, path: str, body: Optional[dict] = None,
    timeout: float = 60.0,
) -> Response:
    """One request over a fresh asyncio connection (no pooling — each
    call is an independent client, which is exactly what the
    concurrency differentials want)."""
    split = urlsplit(url)
    reader, writer = await asyncio.open_connection(
        split.hostname, split.port or 80)
    try:
        payload = json.dumps(body).encode() if body is not None else b""
        head = (
            "{} {} HTTP/1.1\r\n"
            "Host: {}:{}\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: {}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).format(method, path, split.hostname, split.port or 80, len(payload))
        writer.write(head.encode() + payload)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionResetError:  # pragma: no cover - teardown race
            pass
    header_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    status_line = header_blob.split(b"\r\n", 1)[0].decode("latin-1")
    status = int(status_line.split(" ")[1])
    return status, json.loads(body_blob.decode())
