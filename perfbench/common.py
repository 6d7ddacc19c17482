"""Shared pieces of the benchmark: statistics, results, correctness checks."""

from __future__ import annotations

import bisect
import gc
import json
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: root of the checkout the benchmark runs in (the parent of ``perfbench``)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: scratch space for packs and server logs, inside the checkout
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

#: how often set-up is repeated in one run; ``setup_s`` is the median
SETUP_REPEATS = 5


def timed_setups(build: Callable[[], object], host: "HostSpeed"
                 ) -> Tuple[List[Tuple[float, float]], object]:
    """Run ``build`` ``SETUP_REPEATS`` times, each after the previous
    result was dropped and garbage collected, so no repeat pays for the
    one before, with a burst of host samples before each repeat and after
    the last; returns every repeat's (start, seconds) and the last
    result."""
    times: List[Tuple[float, float]] = []
    built = None
    for _ in range(SETUP_REPEATS):
        built = None
        gc.collect()
        host.sample()
        began = time.perf_counter()
        built = build()
        times.append((began, time.perf_counter() - began))
    host.sample()
    return times, built


def reference_loop() -> float:
    """Seconds one run of a fixed pure-Python loop of integer arithmetic
    takes.  It calls nothing of the program and allocates nothing that
    lives, so only the host's speed moves it: a change to the program
    cannot.  Of the loops tried while the benchmark was built (this one,
    an allocation-heavy object-graph walk, random reads over a large list
    and dict lookups), this one followed the slowdown of corpus queries
    most nearly in proportion (a fitted exponent of 0.9; the object-graph
    walk swung twice as far as the queries did)."""
    began = time.perf_counter()
    x = 0
    for i in range(100_000):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - began


#: seconds :func:`reference_loop` takes at reference host speed (about
#: its typical time on the 2-core virtual machine the benchmark was built
#: on); the unit of ``HostSpeed.slowdown_at``.  Fixed once: changing it
#: rescales every end-to-end time.
REFERENCE_LOOP_S = 0.010


class HostSpeed:
    """How fast the host ran, over one run.

    The benchmark was built on a shared 2-core virtual machine whose
    speed halves for seconds to minutes at a time, in CPU time as much as
    in wall time, so the same work on the same code read up to 2x slower
    from one run to the next.  A run therefore takes a burst of
    :func:`reference_loop` samples between its measured stretches (about
    one a second), and reports every end-to-end time *at reference host
    speed*: each measured time divided by the slowdown at the moment it
    was measured, the mean of the fastest samples of the bursts just
    before and just after it over ``REFERENCE_LOOP_S``.  The loop calls
    nothing of the program, so a change to the program moves the scaled
    times as much as the measured ones.  The measured times are printed
    too (``measured_<name>``)."""

    #: reference-loop runs per burst
    BURST = 5

    def __init__(self) -> None:
        #: end of each burst, and its fastest sample in seconds
        self.stamps: List[float] = []
        self.fastest: List[float] = []

    def sample(self) -> None:
        fastest = min(reference_loop() for _ in range(self.BURST))
        self.stamps.append(time.perf_counter())
        self.fastest.append(fastest)

    def slowdown_at(self, stamp: float) -> float:
        """The slowdown at ``stamp``, from the bursts around it."""
        after = bisect.bisect(self.stamps, stamp)
        near = self.fastest[max(0, after - 1):after + 1]
        return statistics.mean(near) / REFERENCE_LOOP_S

    def slowdown(self) -> float:
        """The median slowdown over the run's bursts."""
        return statistics.median(self.fastest) / REFERENCE_LOOP_S


def unscaled(_stamp: float) -> float:
    """The slowdown that leaves measured times as they are."""
    return 1.0


def per_item_median(repeats: Sequence[Sequence[float]]) -> List[float]:
    """Each item's median over repeats of the same work (``repeats[r][i]``
    is item ``i`` in repeat ``r``)."""
    return [statistics.median(values) for values in zip(*repeats)]


#: the builtin universes, pinned by ``tests/golden/<name>.json``
BUILTINS = ("paint", "geometry", "bcl")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of unsorted values."""
    ordered = sorted(values)
    index = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[index]


def beyond(count: int, q: float) -> int:
    """Samples above the nearest-rank ``q`` percentile of ``count``."""
    return count - max(1, math.ceil(q * count))


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Metric:
    value: float
    unit: str
    #: sample count behind a timing or a ratio (None for single values)
    samples: Optional[int] = None
    note: str = ""


@dataclass
class Result:
    """What one workload run reports."""

    metrics: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: why operations failed, first few only
    failures: List[str] = field(default_factory=list)
    #: extra deterministic facts printed above the result line
    info: Dict[str, object] = field(default_factory=dict)

    def add(self, name: str, value: float, unit: str,
            samples: Optional[int] = None, note: str = "") -> None:
        self.metrics[name] = Metric(float(value), unit, samples, note)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(reason)

    def add_latency(self, prefix: str, latencies_ms: Sequence[float],
                    note: str = "") -> None:
        """``<prefix>_p50_ms``, ``<prefix>_p90_ms`` and ``<prefix>_p99_ms``;
        p99 is the highest percentile with at least ten samples beyond it
        only when there are 1,000 or more samples, which every workload is
        sized for."""
        count = len(latencies_ms)
        self.add(prefix + "_p50_ms", percentile(latencies_ms, 0.50), "ms",
                 count, note)
        self.add(prefix + "_p90_ms", percentile(latencies_ms, 0.90), "ms",
                 count, note)
        if beyond(count, 0.99) < 10:
            note = "; ".join(filter(None, (note, "fewer than 10 beyond")))
        self.add(prefix + "_p99_ms", percentile(latencies_ms, 0.99), "ms",
                 count, note)

    def add_setup(self, prefix: str, setups: Sequence[Tuple[float, float]],
                  scale: Callable[[float], float]) -> None:
        """``<prefix>setup_s``: the median of the set-up repeats, each
        given as (start, seconds) and divided by ``scale(start)``."""
        self.add(prefix + "setup_s", statistics.median(
            seconds / scale(began) for began, seconds in setups), "s",
            len(setups), "median of {} repeats".format(len(setups)))

    def add_host(self, host: HostSpeed) -> None:
        self.add("host_slowdown", host.slowdown(), "x", len(host.fastest),
                 "median over sample bursts of the fastest reference loop "
                 "/ {:g} ms".format(REFERENCE_LOOP_S * 1000.0))

    def add_failure_metrics(self) -> None:
        """``ok_frac`` (bounded: it is never 0) and ``failed_frac``."""
        attempted = max(1, self.attempted)
        self.add("ok_frac", 1.0 - self.failed / attempted, "frac",
                 self.attempted)
        self.add("failed_frac", self.failed / attempted, "frac",
                 self.attempted)

    def render(self) -> List[str]:
        """Human-readable lines: every metric by name, value, unit and
        sample count, then the info facts and any failures."""
        lines = []
        for name in sorted(self.metrics):
            metric = self.metrics[name]
            samples = ("" if metric.samples is None
                       else "  n={}".format(metric.samples))
            note = "  ({})".format(metric.note) if metric.note else ""
            lines.append("{:<32} {:>14.6g} {:<6}{}{}".format(
                name, metric.value, metric.unit, samples, note))
        for key in sorted(self.info):
            lines.append("info {} = {}".format(key, self.info[key]))
        for reason in self.failures:
            lines.append("FAILED {}".format(reason))
        return lines

    def line(self, names: Sequence[str]) -> str:
        """The result object: exactly the metrics named by ``names``."""
        missing = [name for name in names if name not in self.metrics]
        if missing:
            raise RuntimeError("workload did not measure {}".format(missing))
        return json.dumps({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name].value,
                       "unit": self.metrics[name].unit}
                for name in names
            },
        }, sort_keys=False)


def answer_of(suggestions) -> List[Tuple[int, int, str]]:
    """(rank, score, text) triples from session suggestions."""
    return [(s.rank, s.score, s.text) for s in suggestions]


def answer_of_completions(completions) -> List[Tuple[int, int, str]]:
    """(rank, score, text) triples from engine completions."""
    from repro.lang.printer import to_source

    return [(rank, c.score, to_source(c.expr))
            for rank, c in enumerate(completions, start=1)]


def answer_of_wire(body: dict) -> List[Tuple[int, int, str]]:
    """(rank, score, text) triples from a ``/v1/complete`` body."""
    return [(s["rank"], s["score"], s["text"])
            for s in body.get("suggestions", [])]


def golden_answers() -> Dict[Tuple[str, str], List[Tuple[int, int, str]]]:
    """The pinned top-10 of every builtin battery query, by
    (universe, query)."""
    answers = {}
    for universe in BUILTINS:
        path = os.path.join(ROOT, "tests", "golden", universe + ".json")
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        for query, rows in document["queries"].items():
            answers[(universe, query)] = [
                (row["rank"], row["score"], row["text"]) for row in rows]
    return answers


def check_battery_in_process(result: Result) -> None:
    """Run every builtin battery query in-process on a fresh workspace and
    compare it with the golden file; a mismatch is a failed operation."""
    from repro.api import open_workspace
    from repro.eval.battery import battery_for

    golden = golden_answers()
    for universe in BUILTINS:
        battery = battery_for(universe)
        session = battery.session(open_workspace(universe))
        for query in battery.queries:
            result.attempted += 1
            record = session.complete(query)
            if answer_of(record.suggestions) != golden[(universe, query)]:
                result.fail("battery {}: {!r} differs from golden".format(
                    universe, query))
