"""A deterministic self-time profiler over exported span trees.

The :class:`~repro.obs.trace.Tracer` answers *where did this one query
spend its time*; a :class:`Profile` aggregates many traces — a whole
battery or a session history — into per-stack-path totals:

* **inclusive time** — a synchronous span's wall extent
  (``duration_ms``); a lazy stream span's pull time (``busy_ms``): its
  wall extent overlaps its siblings by design
  (``docs/OBSERVABILITY.md``), so only the time spent pulling it is its
  own.  Summed over every occurrence of the same stack path;
* **self (exclusive) time** — for a stream span, its ``self_ms``
  counter: pull time minus the pulls and spans nested in it, so each
  pull is counted once, by the stream it was spent in.  For a
  synchronous span, inclusive time minus the wall extent of its
  synchronous children and minus ``pulled_ms``, the time it spent
  pulling streams.  With both, a query's path self-times sum to its
  wall time.  A trace written without those counters falls back to
  inclusive time minus the inclusive time of the direct children,
  clamped at zero;
* **counter rollups** — every span counter (``items``, ``steps``,
  ``busy_ms``, ...) summed per path.

Aggregation is keyed by the *stack path* (root name down to the span's
name, e.g. ``query;expand:hole``), so the same phase reached through
different parents stays distinct.  Everything is computed from the
plain span dicts the tracer exports (``QueryOutcome.trace``,
``QueryRecord.trace``).

Export formats:

* :meth:`Profile.rows` / :meth:`Profile.render` — a text table sorted
  by self time (the ``repro profile`` output);
* :meth:`Profile.to_collapsed` — collapsed-stack lines
  (``query;expand:hole 1234``, value = self time in microseconds),
  the input format of Brendan Gregg's ``flamegraph.pl`` and every
  compatible viewer.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple


class Profile:
    """Per-stack-path time and counter aggregation over span trees."""

    def __init__(self) -> None:
        #: path tuple -> {"calls", "inclusive_ms", "self_ms", "counters"}
        self._nodes: Dict[Tuple[str, ...], Dict[str, Any]] = {}
        #: how many traces (span trees) were aggregated
        self.traces = 0

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def add_trace(self, spans: Iterable[dict]) -> "Profile":
        """Fold one exported span tree (a list of span dicts) in.

        Open spans (``duration_ms is None`` — a tracer that was never
        finished) contribute their calls and counters with zero time.
        Returns ``self`` for chaining.
        """
        spans = [s for s in spans if s.get("kind", "span") == "span"]
        if not spans:
            return self
        self.traces += 1
        by_id = {span["span"]: span for span in spans}

        paths: Dict[int, Tuple[str, ...]] = {}

        def path_of(span: dict) -> Tuple[str, ...]:
            cached = paths.get(span["span"])
            if cached is not None:
                return cached
            parent = span["parent"]
            if parent is None or parent not in by_id:
                path: Tuple[str, ...] = (span["name"],)
            else:
                path = path_of(by_id[parent]) + (span["name"],)
            paths[span["span"]] = path
            return path

        def times(span: dict) -> Tuple[Optional[float], Optional[float]]:
            """``(inclusive, self)`` of a stream span by its counters,
            ``(duration, None)`` of any other span."""
            counters = span.get("counters", {})
            if "self_ms" in counters and "busy_ms" in counters:
                return counters["busy_ms"], counters["self_ms"]
            return span["duration_ms"], None

        child_ms: Dict[int, float] = {}
        for span in spans:
            parent = span["parent"]
            inclusive, own = times(span)
            if parent in by_id and inclusive is not None and own is None:
                child_ms[parent] = child_ms.get(parent, 0.0) + inclusive

        for span in spans:
            node = self._nodes.setdefault(path_of(span), {
                "calls": 0, "inclusive_ms": 0.0, "self_ms": 0.0,
                "counters": {},
            })
            node["calls"] += 1
            counters = span.get("counters", {})
            inclusive, own = times(span)
            if inclusive is not None:
                node["inclusive_ms"] += inclusive
                if own is None:
                    own = (inclusive - child_ms.get(span["span"], 0.0)
                           - counters.get("pulled_ms", 0.0))
                node["self_ms"] += max(0.0, own)
            rollup = node["counters"]
            for name, value in counters.items():
                rollup[name] = rollup.get(name, 0) + value
        return self

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def total_ms(self) -> float:
        """Total inclusive time of the root spans (depth-1 paths)."""
        return sum(node["inclusive_ms"]
                   for path, node in self._nodes.items() if len(path) == 1)

    def rows(self) -> List[Dict[str, Any]]:
        """One dict per stack path, sorted by self time (descending),
        ties broken by path for determinism."""
        rows = []
        for path, node in self._nodes.items():
            rows.append({
                "path": ";".join(path),
                "name": path[-1],
                "depth": len(path) - 1,
                "calls": node["calls"],
                "inclusive_ms": round(node["inclusive_ms"], 4),
                "self_ms": round(node["self_ms"], 4),
                "counters": {k: node["counters"][k]
                             for k in sorted(node["counters"])},
            })
        rows.sort(key=lambda row: (-row["self_ms"], row["path"]))
        return rows

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_collapsed(self) -> List[str]:
        """Collapsed-stack lines (``a;b;c <self-time-in-us>``), sorted by
        path — feed them to any flamegraph renderer."""
        return [
            "{} {}".format(";".join(path),
                           int(round(node["self_ms"] * 1000.0)))
            for path, node in sorted(self._nodes.items())
        ]

    def render(self, limit: Optional[int] = None) -> List[str]:
        """A text table of the hottest stack paths (all of them when
        ``limit`` is None)."""
        rows = self.rows()
        if limit is not None:
            rows = rows[:limit]
        lines = ["profile: {} trace{}, {:.2f} ms total".format(
            self.traces, "" if self.traces == 1 else "s", self.total_ms)]
        lines.append("  {:<40s}{:>7s}{:>12s}{:>12s}".format(
            "path", "calls", "incl ms", "self ms"))
        for row in rows:
            lines.append("  {:<40s}{:>7d}{:>12.2f}{:>12.2f}".format(
                row["path"][:40], row["calls"],
                row["inclusive_ms"], row["self_ms"]))
        return lines


def profile_traces(traces: Iterable[Iterable[dict]]) -> Profile:
    """A :class:`Profile` over many exported span trees (e.g. the
    ``QueryRecord.trace`` lists of a session history)."""
    profile = Profile()
    for spans in traces:
        if spans:
            profile.add_trace(spans)
    return profile
