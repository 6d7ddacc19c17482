"""Structured NDJSON run logs: the whole-run counterpart of a trace.

A :class:`RunLog` records one *run* — an eval battery, a corpus build,
a fuzz run, a ``complete_many`` batch — as newline-delimited
JSON: a manifest record first (what produced the run: label, git SHA,
engine config signature, universe versions, seed), then one record per
event as the run proceeds:

* ``{"kind": "run", ...}`` — the manifest (always the first record);
* ``{"kind": "phase", ...}`` — a named, timed stretch of the run
  (one experiment family, one corpus project);
* ``{"kind": "query", ...}`` — one completed query: source, status,
  latency, steps, cache hit, and (when the query was traced) its full
  span tree embedded under ``spans``;
* ``{"kind": "event", ...}`` — anything else worth recording (batch
  boundaries, skipped corpus programs, ``repro fuzz``'s per-iteration
  ``fuzz_iteration`` / ``fuzz_counterexample`` records, ...),
  free-form ``data``;
* ``{"kind": "server_request", ...}`` — one request answered (or shed)
  by the completion server (:mod:`repro.serve`): endpoint, tenant
  workspace, HTTP status, stable error/ok code, queue wait and total
  latency, the request's deadline when it carried one, and — for
  correlated requests — the ``request_id``, the embedded engine span
  tree (``spans``), degraded/truncated quality markers, and any
  injected fault events that fired (chaos-through-serve).

:meth:`RunLog.bind` attaches correlation fields (a ``request_id``) to
every ``query``/``event``/``server_request`` record appended from the
current thread for the dynamic extent of a block — how the server's
request id reaches the *engine's* own query records without the engine
knowing the serving layer exists.

Every record is appended under one lock and serialised as exactly one
NDJSON line, so logs written from a thread-pool-sharded
``complete_many`` never interleave.  The schema is checked in at
``runlog_schema.json`` next to this module and enforced by the same
dependency-free validator as traces (:mod:`repro.obs.schema`);
``repro stats --validate-runlog FILE`` is the CLI spelling.

Timing is a monotonic clock relative to the log's construction, the
same convention as :class:`~repro.obs.trace.Tracer` epochs.

This module sits below the engine: it never imports :mod:`repro.engine`
and reads outcome objects duck-typed (``status.value``, ``elapsed_ms``,
``steps``, ``cached``, ``completions``, ``degraded``, ``trace``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

#: format / version stamped on run-log manifests
RUNLOG_FORMAT = "repro-runlog"
RUNLOG_VERSION = 1

_run_counter = itertools.count(1)

_git_sha_cache: Optional[str] = None


def git_sha() -> str:
    """The repository HEAD SHA, best-effort (cached; ``"unknown"`` when
    git or the repository is unavailable — run logs must never fail a
    run over provenance)."""
    global _git_sha_cache
    if _git_sha_cache is None:
        try:
            _git_sha_cache = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=5, check=True,
            ).stdout.strip() or "unknown"
        except Exception:
            _git_sha_cache = "unknown"
    return _git_sha_cache


def signature_hex(value: Any) -> str:
    """A short stable hex digest of any reprable value — how engine
    config signatures (hashable tuples) land in a manifest without the
    manifest depending on their shape."""
    return hashlib.sha1(repr(value).encode()).hexdigest()[:16]


class RunLog:
    """A thread-safe, append-only structured log of one run."""

    def __init__(
        self,
        label: str = "run",
        config_signature: Optional[str] = None,
        universes: Optional[Dict[str, int]] = None,
        seed: Optional[int] = None,
        clock: Callable[[], float] = time.perf_counter,
        sha: Optional[str] = None,
    ) -> None:
        self._lock = threading.Lock()
        self._clock = clock
        self._epoch = clock()
        self._stream = None
        self._bound = threading.local()
        self.label = label
        self.run_id = "{}-{}-{}".format(label, os.getpid(),
                                        next(_run_counter))
        self._records: List[Dict[str, Any]] = [{
            "kind": "run",
            "format": RUNLOG_FORMAT,
            "version": RUNLOG_VERSION,
            "label": label,
            "run_id": self.run_id,
            "git_sha": sha if sha is not None else git_sha(),
            "config_signature": config_signature,
            "universes": dict(universes or {}),
            "seed": seed,
        }]

    def annotate(
        self,
        config_signature: Optional[str] = None,
        universes: Optional[Dict[str, int]] = None,
        seed: Optional[int] = None,
        cache: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Fill manifest fields discovered only after construction (a
        corpus's universe versions exist once it is built, but the log
        must exist first to record the build's phases; ``cache`` is the
        completion cache's invalidation attribution, stamped at the end
        of each batch)."""
        with self._lock:
            manifest = self._records[0]
            if config_signature is not None:
                manifest["config_signature"] = config_signature
            if universes is not None:
                manifest["universes"] = dict(universes)
            if seed is not None:
                manifest["seed"] = seed
            if cache is not None:
                manifest["cache"] = dict(cache)

    def _now_ms(self) -> float:
        return (self._clock() - self._epoch) * 1000.0

    @contextmanager
    def bind(self, **fields: Any) -> Iterator[None]:
        """Attach correlation ``fields`` (``request_id=...``) to every
        ``query``/``event``/``server_request`` record appended from
        *this thread* inside the block.  ``None`` values are dropped;
        explicit record fields win over bound ones; binds nest (inner
        fields shadow outer ones for their extent)."""
        previous = getattr(self._bound, "fields", None)
        merged = dict(previous or {})
        merged.update(
            (key, value) for key, value in fields.items()
            if value is not None)
        self._bound.fields = merged or None
        try:
            yield
        finally:
            self._bound.fields = previous

    _BINDABLE_KINDS = ("query", "event", "server_request")

    def _append(self, record: Dict[str, Any]) -> None:
        bound = getattr(self._bound, "fields", None)
        if bound and record.get("kind") in self._BINDABLE_KINDS:
            for key, value in bound.items():
                record.setdefault(key, value)
        with self._lock:
            self._records.append(record)
            if self._stream is not None:
                self._stream.write(json.dumps(record, sort_keys=True) + "\n")
                self._stream.flush()

    def attach_stream(self, handle) -> None:
        """Stream the log to an open text file as it grows: every record
        appended so far is written immediately (manifest first), then
        each future append lands as one flushed NDJSON line — how a
        long-lived server keeps an on-disk log without ever calling
        :meth:`write`.  Manifest fields back-filled by :meth:`annotate`
        after attachment only reach the file on a later :meth:`write`;
        the streamed manifest stays schema-valid without them."""
        with self._lock:
            self._stream = handle
            for record in self._records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def event(self, name: str, **data: Any) -> None:
        """A free-form event record (``data`` must be JSON-ready)."""
        self._append({
            "kind": "event",
            "name": name,
            "t_ms": round(self._now_ms(), 4),
            "data": data,
        })

    @contextmanager
    def phase(self, name: str, **data: Any) -> Iterator[None]:
        """Record a named, timed stretch of the run (emitted at exit,
        even when the body raises)."""
        start = self._now_ms()
        try:
            yield
        finally:
            end = self._now_ms()
            record: Dict[str, Any] = {
                "kind": "phase",
                "name": name,
                "start_ms": round(start, 4),
                "end_ms": round(end, 4),
                "duration_ms": round(end - start, 4),
            }
            if data:
                record["data"] = data
            self._append(record)

    def query_event(
        self,
        source: str,
        outcome: Optional[Any] = None,
        *,
        universe: Optional[str] = None,
        family: Optional[str] = None,
        project: Optional[str] = None,
        rank: Optional[int] = None,
        error: Optional[str] = None,
        status: Optional[str] = None,
        elapsed_ms: float = 0.0,
        steps: int = 0,
        cached: bool = False,
        completions: int = 0,
        degraded: Optional[Any] = None,
        spans: Optional[List[dict]] = None,
    ) -> None:
        """One completed query, either from a ``QueryOutcome``-shaped
        object (duck-typed) or from the explicit keyword fields."""
        if outcome is not None:
            status = outcome.status.value
            elapsed_ms = outcome.elapsed_ms
            steps = outcome.steps
            cached = outcome.cached
            completions = len(outcome.completions)
            degraded = outcome.degraded
            if spans is None:
                spans = outcome.trace
        record: Dict[str, Any] = {
            "kind": "query",
            "source": source,
            "t_ms": round(self._now_ms(), 4),
            "status": status if status is not None else "ok",
            "elapsed_ms": round(float(elapsed_ms), 4),
            "steps": int(steps),
            "cached": bool(cached),
            "completions": int(completions),
        }
        if degraded:
            record["degraded"] = sorted(degraded)
        if universe is not None:
            record["universe"] = universe
        if family is not None:
            record["family"] = family
        if project is not None:
            record["project"] = project
        if rank is not None:
            record["rank"] = rank
        if error is not None:
            record["error"] = error
        if spans is not None:
            record["spans"] = spans
        self._append(record)

    def server_request(
        self,
        endpoint: str,
        status: int,
        code: str,
        elapsed_ms: float,
        *,
        workspace: Optional[str] = None,
        queue_ms: Optional[float] = None,
        deadline_ms: Optional[float] = None,
        queries: Optional[int] = None,
        completions: Optional[int] = None,
        shed: bool = False,
        request_id: Optional[str] = None,
        degraded: Optional[Any] = None,
        truncated: Optional[int] = None,
        faults: Optional[List[str]] = None,
        spans: Optional[List[dict]] = None,
    ) -> None:
        """One request the completion server answered (or shed).

        ``status`` is the HTTP status sent back, ``code`` the stable
        machine-readable outcome (``"ok"``, ``"shed"``,
        ``"deadline_exceeded"``, ``"unknown_workspace"``, ...,
        docs/SERVING.md); ``queue_ms`` is time spent waiting for the
        tenant's engine, ``elapsed_ms`` the whole admission-to-response
        latency.  ``shed`` marks requests rejected by admission control
        without touching the engine.

        ``request_id`` is the correlation id echoed in the response;
        ``degraded`` lists the ranking features the engine degraded,
        ``truncated`` counts budget-truncated queries, ``faults`` names
        the injected fault events that fired (``"site@call"``), and
        ``spans`` embeds the request's merged engine span tree when the
        client opted into tracing (docs/OBSERVABILITY.md).
        """
        record: Dict[str, Any] = {
            "kind": "server_request",
            "endpoint": endpoint,
            "t_ms": round(self._now_ms(), 4),
            "status": int(status),
            "code": code,
            "elapsed_ms": round(float(elapsed_ms), 4),
            "shed": bool(shed),
        }
        if workspace is not None:
            record["workspace"] = workspace
        if queue_ms is not None:
            record["queue_ms"] = round(float(queue_ms), 4)
        if deadline_ms is not None:
            record["deadline_ms"] = float(deadline_ms)
        if queries is not None:
            record["queries"] = int(queries)
        if completions is not None:
            record["completions"] = int(completions)
        if request_id is not None:
            record["request_id"] = request_id
        if degraded:
            record["degraded"] = sorted(degraded)
        if truncated:
            record["truncated"] = int(truncated)
        if faults:
            record["faults"] = list(faults)
        if spans is not None:
            record["spans"] = spans
        self._append(record)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def records(self) -> List[Dict[str, Any]]:
        """A snapshot of the records appended so far (manifest first)."""
        with self._lock:
            return list(self._records)

    def to_ndjson(self) -> str:
        """The whole log as NDJSON, one record per line."""
        return "\n".join(
            json.dumps(record, sort_keys=True) for record in self.records()
        ) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_ndjson())

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


def read_run_log(text: str) -> List[Dict[str, Any]]:
    """Parse run-log NDJSON back into record dicts; raises ``ValueError``
    on malformed lines or a document whose first record is no manifest."""
    from .trace import ndjson_to_dicts

    records = ndjson_to_dicts(text)
    if not records or records[0].get("kind") != "run":
        raise ValueError("not a repro run log (no leading manifest record)")
    return records
