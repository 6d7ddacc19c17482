"""Lightweight span tracing for the query pipeline.

A :class:`Tracer` records a tree of :class:`Span` objects — named,
monotonic-clock-timed phases of one query (``preflight``, ``cache``,
``root_pool``, ``expand:*`` per stream combinator, ``dedup``,
``collect``) — each carrying a small counter map (steps charged,
candidates yielded, cache hit/miss, …).  The span taxonomy is
documented in ``docs/OBSERVABILITY.md``.

Tracing is strictly opt-in and the engine's call sites are guarded
(``if tracer is not None``), so a query with tracing disabled pays
nothing for it.  Tracing observes and never forks: a traced query
probes, fills and replays the cross-query cache exactly as an untraced
one does, so the counting wrappers it creates can end up inside cached
streams that later queries extend.  Once :meth:`Tracer.finish` runs
they pass items straight through, and an ended :class:`Span` ignores
further counter writes, so an exported trace never changes.  A cached
stream keeps its finished tracer alive until the cache entry is
evicted or invalidated.

Spans export as plain dicts (JSON-ready) or NDJSON — one JSON object
per line, a ``{"kind": "trace", ...}`` header followed by
``{"kind": "span", ...}`` records — the format
``repro stats --validate-trace`` checks against the schema shipped in
:mod:`repro.obs.schema`.

Two timing notions per span:

* ``start_ms`` / ``end_ms`` / ``duration_ms`` — wall-clock extent
  relative to the tracer's epoch;
* ``busy_ms`` (a counter, present on stream spans) — cumulative time
  spent actually pulling items out of the lazy stream.  Lazy spans can
  overlap arbitrarily, so their wall extents overlap too.  A stream's
  pull usually pulls the streams it reads from, so ``busy_ms`` nests;
  ``self_ms`` (also on stream spans) is the pull time minus the nested
  pulls and spans, and ``pulled_ms`` (on the synchronous span current
  when an outermost pull ran) is what the span spent in pulls.  Those
  two are what :class:`~repro.obs.profile.Profile` adds up, so a
  query's path self-times sum to its wall time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

#: format / version stamped on NDJSON trace headers
TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1


class Span:
    """One named, timed phase with a counter map.

    ``start_ms``/``end_ms`` are relative to the owning tracer's epoch;
    ``end_ms`` is ``None`` while the span is open.  Counters are frozen
    once the span has ended: later :meth:`add`/:meth:`set` calls are
    no-ops.
    """

    __slots__ = ("name", "span_id", "parent_id", "start_ms", "end_ms",
                 "counters")

    def __init__(self, name: str, span_id: int, parent_id: Optional[int],
                 start_ms: float) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_ms = start_ms
        self.end_ms: Optional[float] = None
        self.counters: Dict[str, float] = {}

    def add(self, counter: str, value: float = 1) -> None:
        """Accumulate into a counter (created at 0)."""
        if self.end_ms is None:
            self.counters[counter] = self.counters.get(counter, 0) + value

    def set(self, counter: str, value: float) -> None:
        """Overwrite a counter."""
        if self.end_ms is None:
            self.counters[counter] = value

    @property
    def duration_ms(self) -> Optional[float]:
        if self.end_ms is None:
            return None
        return self.end_ms - self.start_ms

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "span",
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_ms": round(self.start_ms, 4),
            "end_ms": round(self.end_ms, 4) if self.end_ms is not None
            else None,
            "duration_ms": round(self.duration_ms, 4)
            if self.duration_ms is not None else None,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Span {} {!r} {}>".format(
            self.span_id, self.name,
            "open" if self.end_ms is None else
            "{:.2f}ms".format(self.duration_ms))


#: what :meth:`Tracer.start` returns once the tracer has finished: ended,
#: so it drops every counter write, and exported by no tracer
_DETACHED = Span("detached", -1, None, 0.0)
_DETACHED.end_ms = 0.0


class Tracer:
    """Collects the span tree of one traced query.

    Synchronous phases use the :meth:`span` context manager (nesting
    follows the with-stack).  Lazy stream phases use
    :meth:`wrap_stream`, which starts a span when the wrapper is
    created (parented to the span current *at creation*), counts items
    and pull time as the stream is consumed, and ends the span when the
    stream is exhausted or the tracer is finished — whichever comes
    first.  :meth:`finish` closes everything still open; after it, the
    tracer is inert: wrapped streams that keep being pulled (a cached
    stream extended by a later query) pass items straight through, and
    spans started after it are ended at once and never exported.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._epoch = clock()
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        #: stream spans with a pull in progress -> the time (ms) of the
        #: pulls and spans nested in it so far
        self._pulling: Dict[Span, float] = {}
        self._next_id = 0
        self.closed = False

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------
    def _now_ms(self) -> float:
        return (self._clock() - self._epoch) * 1000.0

    def start(self, name: str) -> Span:
        """Begin a span parented to the current stack top, without
        pushing it (for lazy phases ended explicitly via :meth:`end`).
        On a finished tracer the span is already ended and detached."""
        if self.closed:
            return _DETACHED
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(name, self._next_id, parent, self._now_ms())
        self._next_id += 1
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        if span.end_ms is None:
            span.end_ms = self._now_ms()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """A synchronous child span of whatever span is current."""
        span = self.start(name)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            self.end(span)
            parent = self._stack[-1] if self._stack else None
            if parent in self._pulling:
                # opened by a pull: not the pulling stream's own time
                self._pulling[parent] += span.end_ms - span.start_ms

    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def finish(self) -> None:
        """End every still-open span and stop counting.  Idempotent."""
        if self.closed:
            return
        self.closed = True
        self._stack.clear()
        self._pulling.clear()
        for span in self.spans:
            if span.end_ms is None:
                self.end(span)

    # ------------------------------------------------------------------
    # lazy streams
    # ------------------------------------------------------------------
    def wrap_stream(
        self,
        name: str,
        stream: Iterable,
        steps: Optional[Callable[[], int]] = None,
        span: Optional[Span] = None,
    ) -> Iterator:
        """Yield ``stream`` through, accounting items / pull time / steps
        into a span.  While an item is pulled the span is the current
        one, so spans started by the pull are its children.

        ``steps`` (when given) reads a monotone step counter — usually
        the query meter's — so the span records the expansion steps
        charged while this stream was being pulled.  ``span`` is an
        already started span to account into instead of a new one named
        ``name`` (a stream that counts into its own span, like
        ``dedup``).
        """
        if self.closed:
            return iter(stream)
        if span is None:
            span = self.start(name)
        steps_at_start = steps() if steps is not None else 0

        def generator() -> Iterator:
            iterator = iter(stream)
            try:
                while not self.closed:
                    outer = self._stack[-1] if self._stack else None
                    self._stack.append(span)
                    self._pulling[span] = 0.0
                    pulled_at = self._clock()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        elapsed = (self._clock() - pulled_at) * 1000.0
                        nested = self._pulling.pop(span, 0.0)
                        if self._stack and self._stack[-1] is span:
                            self._stack.pop()
                        span.add("busy_ms", elapsed)
                        span.add("self_ms", elapsed - nested)
                        if outer in self._pulling:
                            self._pulling[outer] += elapsed
                        elif outer is not None:
                            outer.add("pulled_ms", elapsed)
                    span.add("items")
                    yield item
                yield from iterator
            finally:
                if span.end_ms is None:
                    if steps is not None:
                        span.set("steps", steps() - steps_at_start)
                    self.end(span)

        return generator()

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_dicts(self) -> List[Dict[str, Any]]:
        """The span tree as JSON-ready dicts, in creation order."""
        return [span.to_dict() for span in self.spans]

    def to_ndjson(self, **meta: Any) -> str:
        """The trace as NDJSON: a header line plus one line per span."""
        return trace_to_ndjson(self.to_dicts(), **meta)


def trace_to_ndjson(spans: List[Dict[str, Any]], **meta: Any) -> str:
    """Serialise exported span dicts as NDJSON with a trace header."""
    header: Dict[str, Any] = {
        "kind": "trace",
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
    }
    header.update(meta)
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(span, sort_keys=True) for span in spans)
    return "\n".join(lines) + "\n"


def ndjson_to_dicts(text: str) -> List[Dict[str, Any]]:
    """Parse NDJSON back into record dicts (header and span lines alike);
    raises ``ValueError`` on a non-JSON or non-object line."""
    records = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError("line {}: not JSON: {}".format(number, error))
        if not isinstance(record, dict):
            raise ValueError("line {}: not a JSON object".format(number))
        records.append(record)
    return records
