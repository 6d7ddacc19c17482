"""The load generator: multi-worker replay against a live server.

``run_loadgen`` fans ``n_workers`` threads out against a completion
server — each worker owns one keep-alive connection and replays the
universe's pinned golden battery (:mod:`repro.eval.battery`) for
``duration_s`` seconds, every request carrying ``deadline_ms`` when one
is configured.  With no ``url`` it spawns an in-process server first
(the CI smoke path and the test fixture), so one call measures the
whole stack.

The result is a schema-versioned ``BENCH_serve_<label>.json`` document,
owned by this module (:func:`save`, :func:`load`, :func:`validate`).
Its wire shape is a contract: ``"format":
"repro-bench"``, ``"version": 1``, one ``serve/<universe>`` workload
entry with nearest-rank p50/p95 latency and total steps, and a
``serve`` section with the service-level numbers — throughput, shed
rate, per-worker request counts, the latency histogram and the slowest
request ids (docs/SERVING.md).
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..eval.battery import battery_for
from ..eval.speed import percentile
from ..obs.expo import LATENCY_BOUNDS_MS
from ..obs.metrics import Histogram
from .client import ServeClient

#: the document's wire identity
FORMAT = "repro-bench"
VERSION = 1

#: outcome categories a worker tallies per request
_OK, _SHED, _ERROR = "ok", "shed", "error"

#: how many of the slowest requests the document names by request_id
_SLOWEST_N = 10


class _WorkerStats:
    """One worker's tally (touched only by its own thread)."""

    __slots__ = ("latencies_ms", "samples", "ok", "shed", "errors",
                 "steps", "completions", "degraded", "truncated")

    def __init__(self) -> None:
        self.latencies_ms: List[float] = []
        #: (request_id, latency_ms) per ok request — the correlation
        #: trail back into the server's run log
        self.samples: List[Tuple[str, float]] = []
        self.ok = 0
        self.shed = 0
        self.errors = 0
        self.steps = 0
        self.completions = 0
        self.degraded = 0
        self.truncated = 0

    @property
    def requests(self) -> int:
        return self.ok + self.shed + self.errors


def _classify(status: int, body: Dict[str, Any]) -> str:
    if status == 200:
        return _OK
    error = body.get("error") or {}
    if error.get("code") in ("shed", "deadline_exceeded"):
        return _SHED
    return _ERROR


def _worker(
    url: str,
    universe: str,
    deadline_ms: Optional[float],
    n: int,
    deadline: float,
    stats: _WorkerStats,
    index: int,
) -> None:
    battery = battery_for(universe)
    body_base: Dict[str, Any] = {"locals": battery.locals, "n": n}
    if battery.this_type is not None:
        body_base["this"] = battery.this_type
    if deadline_ms is not None:
        body_base["deadline_ms"] = deadline_ms
    sequence = 0
    with ServeClient(url) as client:
        while time.monotonic() < deadline:
            for query in battery.queries:
                if time.monotonic() >= deadline:
                    break
                sequence += 1
                request_id = "w{}-{}".format(index, sequence)
                started = time.monotonic()
                try:
                    status, body = client.complete(
                        universe, query, request_id=request_id, **body_base)
                except OSError:
                    stats.errors += 1
                    continue
                elapsed_ms = (time.monotonic() - started) * 1000.0
                outcome = _classify(status, body)
                if outcome == _OK and body.get("request_id") != request_id:
                    # the correlation contract broke — that is an error,
                    # not a slow request
                    outcome = _ERROR
                if outcome == _OK:
                    stats.ok += 1
                    stats.latencies_ms.append(elapsed_ms)
                    stats.samples.append((request_id, elapsed_ms))
                    stats.steps += int(body.get("steps", 0))
                    stats.completions += len(body.get("suggestions", []))
                    if body.get("degraded"):
                        stats.degraded += 1
                    if body.get("truncated"):
                        stats.truncated += 1
                elif outcome == _SHED:
                    stats.shed += 1
                else:
                    stats.errors += 1


def run_loadgen(
    url: Optional[str] = None,
    universe: str = "paint",
    n_workers: int = 4,
    duration_s: float = 5.0,
    deadline_ms: Optional[float] = None,
    label: str = "serve",
    n: int = 10,
    run_log_dir: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
    fault_plan: Optional[Any] = None,
) -> Dict[str, Any]:
    """Drive the load and return the loadtest document.

    With ``url=None`` an in-process server over ``universe`` is spawned
    on an ephemeral port (and torn down afterwards); ``run_log_dir``
    then streams the spawned server's per-tenant run logs there, and
    ``fault_plan`` (a :class:`~repro.serve.chaos.ChaosSpec` source)
    mounts chaos-through-serve on the spawned server.  A tiny
    ``deadline_ms`` is a legitimate configuration: shed requests are
    counted, not raised — the document simply reports a high
    ``shed_rate``.
    """
    emit = log or (lambda _line: None)
    battery_for(universe)  # validate the universe key up front
    if n_workers <= 0:
        raise ValueError("n_workers must be positive")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    chaos_spec = None
    if fault_plan is not None:
        if url is not None:
            raise ValueError(
                "fault_plan only applies to a spawned in-process server; "
                "a remote server mounts its own via --fault-plan")
        from .chaos import ChaosSpec

        chaos_spec = ChaosSpec.from_source(fault_plan)

    handle = None
    if url is None:
        from .server import start_in_thread

        emit("spawning in-process server over {!r}{}...".format(
            universe, " with chaos" if chaos_spec is not None else ""))
        handle = start_in_thread((universe,), run_log_dir=run_log_dir,
                                 fault_plan=chaos_spec)
        url = handle.url
    try:
        emit("load: {} worker(s) x {:.1f}s against {} (deadline {})".format(
            n_workers, duration_s, url,
            "{:.0f} ms".format(deadline_ms) if deadline_ms else "none"))
        per_worker = [_WorkerStats() for _ in range(n_workers)]
        deadline = time.monotonic() + duration_s
        started = time.monotonic()
        threads = [
            threading.Thread(
                target=_worker,
                args=(url, universe, deadline_ms, n, deadline, stats,
                      index),
                name="loadgen-{}".format(index),
            )
            for index, stats in enumerate(per_worker)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.monotonic() - started
    finally:
        if handle is not None:
            handle.stop()

    latencies = sorted(
        value for stats in per_worker for value in stats.latencies_ms)
    requests = sum(stats.requests for stats in per_worker)
    ok = sum(stats.ok for stats in per_worker)
    shed = sum(stats.shed for stats in per_worker)
    errors = sum(stats.errors for stats in per_worker)
    histogram = Histogram(LATENCY_BOUNDS_MS)
    for value in latencies:
        histogram.observe(value)
    samples = sorted(
        (sample for stats in per_worker for sample in stats.samples),
        key=lambda sample: sample[1], reverse=True)
    slowest = [{"request_id": request_id,
                "latency_ms": round(latency_ms, 3)}
               for request_id, latency_ms in samples[:_SLOWEST_N]]
    document: Dict[str, Any] = {
        "format": FORMAT,
        "version": VERSION,
        "label": "serve_{}".format(label),
        "quick": False,
        "seed": None,
        "workloads": [{
            "name": "serve/{}".format(universe),
            "queries": ok,
            "repeats": 1,
            "p50_ms": percentile(latencies, 0.50),
            "p95_ms": percentile(latencies, 0.95),
            "steps": sum(stats.steps for stats in per_worker),
        }],
        "serve": {
            "url": url,
            "universe": universe,
            "n_workers": n_workers,
            "duration_s": duration_s,
            "wall_s": round(wall_s, 3),
            "deadline_ms": deadline_ms,
            "requests": requests,
            "ok": ok,
            "shed": shed,
            "errors": errors,
            "shed_rate": (shed / requests) if requests else 0.0,
            "throughput_rps": (requests / wall_s) if wall_s > 0 else 0.0,
            "completions": sum(s.completions for s in per_worker),
            "per_worker_requests": [s.requests for s in per_worker],
            "degraded": sum(s.degraded for s in per_worker),
            "truncated": sum(s.truncated for s in per_worker),
            "latency_histogram": {
                "bounds": list(histogram.bounds),
                "buckets": list(histogram.buckets),
                "count": histogram.count,
            },
            "slowest_requests": slowest,
        },
    }
    if chaos_spec is not None:
        document["serve"]["chaos"] = chaos_spec.to_dict()
    return document


def render_loadgen(document: Dict[str, Any]) -> List[str]:
    """Human-readable summary of one loadtest document."""
    serve = document["serve"]
    workload = document["workloads"][0]
    lines = ["loadtest '{}' against {}".format(
        document["label"], serve["url"])]
    lines.append(
        "  {} worker(s) x {:.1f}s on {!r}: {} requests "
        "({:.1f} req/s)".format(
            serve["n_workers"], serve["duration_s"], serve["universe"],
            serve["requests"], serve["throughput_rps"]))
    lines.append(
        "  ok {} / shed {} / errors {}  (shed rate {:.1%})".format(
            serve["ok"], serve["shed"], serve["errors"],
            serve["shed_rate"]))
    lines.append(
        "  latency p50 {:.2f} ms, p95 {:.2f} ms ({} steps)".format(
            workload["p50_ms"], workload["p95_ms"], workload["steps"]))
    if serve.get("degraded") or serve.get("truncated"):
        lines.append("  degraded {} / truncated {}".format(
            serve.get("degraded", 0), serve.get("truncated", 0)))
    if serve.get("chaos"):
        chaos = serve["chaos"]
        lines.append("  chaos: seed={} rate={:.0%} over {}".format(
            chaos["seed"], chaos["rate"], ", ".join(chaos["sites"])))
    slowest = serve.get("slowest_requests") or []
    if slowest:
        lines.append("  slowest: {}".format(", ".join(
            "{} ({:.1f} ms)".format(s["request_id"], s["latency_ms"])
            for s in slowest[:3])))
    return lines


def validate(document: Any) -> Dict[str, Any]:
    """Check a loadtest document's shape; raise ``ValueError``."""
    if not isinstance(document, dict) or document.get("format") != FORMAT:
        raise ValueError("not a loadtest document (format {!r})".format(
            FORMAT))
    if document.get("version") != VERSION:
        raise ValueError(
            "unsupported loadtest schema version {!r} (want {})".format(
                document.get("version"), VERSION))
    workloads = document.get("workloads")
    if not isinstance(workloads, list):
        raise ValueError("loadtest document has no workload list")
    for workload in workloads:
        for key in ("name", "p50_ms", "p95_ms", "steps"):
            if key not in workload:
                raise ValueError("workload entry missing {!r}".format(key))
    return document


def save(path: str, document: Dict[str, Any]) -> None:
    validate(document)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as error:
            raise ValueError("not valid JSON: {}".format(error))
    return validate(document)
