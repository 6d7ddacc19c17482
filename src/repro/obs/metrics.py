"""Engine-wide metrics: named counters and bucketed histograms.

One :class:`Metrics` registry lives on each
:class:`~repro.engine.completer.CompletionEngine` and accumulates over
its whole life — every query ticks a handful of counters (queries,
cache replays, truncations, preflight rejections, degradations) and a
few histogram observations (steps per query, latency, completion
depth).  ``repro stats`` and the REPL's ``:stats`` print a snapshot;
:meth:`Metrics.to_dict` is the JSON export.

The registry is deliberately cheap — a lock, dict increments, one
bucket search per observation — so it stays on even when tracing is
off; the per-query cost is noise against a single stream expansion.
Metric names are documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import bisect
import json
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: default histogram bucket upper bounds (values above the last bound
#: land in the overflow bucket); roughly powers of four so both
#: microsecond latencies and six-figure step counts resolve
DEFAULT_BOUNDS: Sequence[float] = (
    1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144,
)


class Histogram:
    """Counts of observations per bucket, plus count/sum/min/max.

    ``bounds`` are inclusive upper bounds; one extra overflow bucket
    catches everything beyond the last bound.
    """

    __slots__ = ("bounds", "buckets", "count", "total", "min", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BOUNDS) -> None:
        self.bounds: List[float] = list(bounds)
        self.buckets: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.buckets[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def observe_many(self, values: Sequence[float]) -> None:
        """:meth:`observe` each of ``values`` in turn, with one update of
        the summary fields."""
        if not values:
            return
        bounds, buckets = self.bounds, self.buckets
        total = self.total
        for value in values:
            buckets[bisect.bisect_left(bounds, value)] += 1
            total += value
        self.count += len(values)
        self.total = total
        low, high = min(values), max(values)
        if self.min is None or low < self.min:
            self.min = low
        if self.max is None or high > self.max:
            self.max = high

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
        }


class Metrics:
    """A thread-safe registry of counters and histograms.

    Names are created on first use; histograms keep the bucket bounds
    they were created with (a later ``bounds`` argument is ignored).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def incr(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def observe(
        self,
        name: str,
        value: float,
        bounds: Sequence[float] = DEFAULT_BOUNDS,
    ) -> None:
        with self._lock:
            self._histogram(name, bounds).observe(value)

    def record(
        self,
        counters: Optional[Dict[str, int]] = None,
        observations: Optional[
            Sequence[Tuple[str, float, Sequence[float]]]
        ] = None,
        series: Optional[
            Sequence[Tuple[str, Sequence[float], Sequence[float]]]
        ] = None,
    ) -> None:
        """Apply a batch of increments, ``(name, value, bounds)``
        observations and ``(name, values, bounds)`` series (each the
        observations of its values in order; an empty one creates no
        histogram) under one lock acquisition — the per-query fast
        path."""
        with self._lock:
            if counters:
                for name, value in counters.items():
                    self._counters[name] = self._counters.get(name, 0) + value
            if observations:
                for name, value, bounds in observations:
                    self._histogram(name, bounds).observe(value)
            if series:
                for name, values, bounds in series:
                    if values:
                        self._histogram(name, bounds).observe_many(values)

    def _histogram(self, name: str, bounds: Sequence[float]) -> Histogram:
        """The histogram ``name``, created with ``bounds`` on first use
        (call with the lock held)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(bounds)
        return histogram

    def counter(self, name: str) -> int:
        """Current value of a counter (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def histogram(self, name: str) -> Optional[Histogram]:
        with self._lock:
            return self._histograms.get(name)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._histograms.clear()

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "counters": {
                    name: self._counters[name]
                    for name in sorted(self._counters)
                },
                "histograms": {
                    name: self._histograms[name].to_dict()
                    for name in sorted(self._histograms)
                },
            }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
