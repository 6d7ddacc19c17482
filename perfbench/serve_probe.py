"""Serving probe: the ``serve.*`` and ``pack.*`` layer metrics.

Packs of WiX and .NET are built (and each loaded once, verified) in this
process; then ``python -m repro serve --port 0`` runs in a subprocess,
serving the three builtin universes plus both packs mounted with
``--pack`` and writing its run log.  The benchmark process sends builtin
battery queries and corpus queries, half each, as an open loop at a fixed
rate over one keep-alive connection.  Server-side numbers come from
outside: ``/v1/metrics`` scrapes around the loop, the ``elapsed_ms`` and
``cached`` fields of each response, and the server's run log.

Serving is not a workload of the benchmark (see ``README.md``): on a small
shared host its end-to-end figures followed the host's CPU share.  Its
layer split is still worth reporting, so the traced ``corpus-edit-warm``
run ends with this probe.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

from common import (
    BUILTINS,
    ROOT,
    WORK_DIR,
    Result,
    answer_of_completions,
    answer_of_wire,
    golden_answers,
    percentile,
)
from corpus_queries import (
    ARGUMENT,
    ASSIGNMENT,
    COMPARISON,
    METHOD,
    ColdReference,
    build_corpus,
    draw_counts,
)
from layers import LayerTrace

PROJECTS = ("WiX", ".NET")
#: distinct corpus queries in the mix, per universe and family
CORPUS_QUERIES = {METHOD: 20, ARGUMENT: 2, ASSIGNMENT: 6, COMPARISON: 2}
#: the open-loop arrival rate: about a sixth of the closed-loop capacity
#: measured on a 2-core virtual machine when the benchmark was introduced
#: (840-1,180 requests/s in calm spells, 290-390 in slow ones), so slow
#: spells of the host do not saturate the server
RATE_PER_S = 150.0
#: how long the server may take to come up
START_TIMEOUT_S = 120.0
#: how often the backlog is scraped during the open loop
SCRAPE_EVERY_S = 0.2

Request = Tuple[str, str, Dict[str, object], object]


def _inputs(corpus, seed: int):
    """The distinct requests of the mix: the builtin batteries and a
    seeded draw of corpus queries."""
    from repro.eval.battery import battery_for

    rng = random.Random("serve-probe:{}".format(seed))
    battery: List[Request] = []
    for universe in BUILTINS:
        spec = battery_for(universe)
        scope: Dict[str, object] = {"locals": dict(spec.locals)}
        if spec.this_type is not None:
            scope["this"] = spec.this_type
        battery.extend((universe, query, scope, (universe, query))
                       for query in spec.queries)
    corpus_requests: List[Request] = []
    for name in PROJECTS:
        for query in draw_counts(corpus, rng, name, CORPUS_QUERIES):
            corpus_requests.append(
                (_workspace_name(name), query.source, query.wire_body(),
                 query))
    return rng, battery, corpus_requests


def _workspace_name(project: str) -> str:
    return "corpus-" + project.lower().replace(".", "")


def _schedule(rng: random.Random, battery, corpus_requests, count: int):
    """``count`` seeded picks from the mix: battery or corpus half and
    half, uniform within each half."""
    return [rng.choice(battery) if rng.random() < 0.5
            else rng.choice(corpus_requests) for _ in range(count)]


def _expected(corpus, corpus_requests):
    """Golden answers for the battery and cold in-process answers for the
    corpus queries."""
    expected: Dict[object, list] = dict(golden_answers())
    cold = ColdReference(corpus.type_systems())
    for _workspace, _source, _scope, query in corpus_requests:
        expected[query] = answer_of_completions(
            cold.outcome(query).completions)
    return expected


# ----------------------------------------------------------------------
# the server subprocess
# ----------------------------------------------------------------------
class _Server:
    """``python -m repro serve`` in a subprocess, stopped with SIGINT."""

    def __init__(self, packs: List[str], log_dir: str) -> None:
        os.makedirs(WORK_DIR, exist_ok=True)
        self.output_path = os.path.join(WORK_DIR, "serve.out")
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--universes", ",".join(BUILTINS),
                   "--run-log-dir", log_dir]
        for pack in packs:
            command += ["--pack", pack]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env["PYTHONUNBUFFERED"] = "1"
        self._output = open(self.output_path, "w")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=self._output,
            stderr=subprocess.STDOUT, preexec_fn=_default_sigint)
        self.url = self._wait_until_serving()

    def _wait_until_serving(self) -> str:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(self.output_path, "r") as handle:
                for line in handle:
                    if line.startswith("serving on "):
                        return line.split()[2]
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        with open(self.output_path, "r") as handle:
            raise RuntimeError("server did not come up:\n" + handle.read())

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._output.close()


def _default_sigint() -> None:
    """Let the server drain on SIGINT even when the benchmark was started
    with SIGINT ignored (as background jobs of a shell are): an ignored
    signal stays ignored across ``exec``."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _build_packs(corpus) -> List[str]:
    from repro.api import Workspace, build_pack

    os.makedirs(WORK_DIR, exist_ok=True)
    paths = []
    for name in PROJECTS:
        path = os.path.join(WORK_DIR, _workspace_name(name) + ".pack")
        workspace = Workspace(corpus.projects[name].ts,
                              name=_workspace_name(name))
        build_pack(workspace, path)
        paths.append(path)
    return paths


# ----------------------------------------------------------------------
# traffic
# ----------------------------------------------------------------------
class _Tally:
    """Outcomes of the requests sent."""

    def __init__(self) -> None:
        self.rtt_ms: List[float] = []
        self.lateness_ms: List[float] = []
        self.engine_ms: List[float] = []
        self.cached = 0
        self.attempted = 0
        self.failures: List[str] = []

    def record(self, due, sent, done, status, body, request, expected):
        workspace, source, _scope, key = request
        self.attempted += 1
        if status != 200:
            problem = "HTTP {} {}".format(status, body.get("error"))
        elif answer_of_wire(body) != expected[key]:
            problem = "answer differs from the in-process one"
        else:
            self.rtt_ms.append((done - sent) * 1000.0)
            self.lateness_ms.append((sent - due) * 1000.0)
            self.engine_ms.append(float(body.get("elapsed_ms") or 0.0))
            self.cached += bool(body.get("cached"))
            return
        self.failures.append("{} {!r}: {}".format(workspace, source, problem))

    def absorb_into(self, result: Result) -> None:
        result.attempted += self.attempted
        for reason in self.failures:
            result.fail(reason)


def _send(client, request):
    workspace, source, scope, _key = request
    return client.complete(workspace, source, n=10, **scope)


def _warm(url, requests, expected, tally: _Tally) -> None:
    """Send every distinct request once (untimed): fills the tenant caches
    and checks each served answer."""
    from repro.serve.client import ServeClient

    with ServeClient(url) as client:
        for request in requests:
            status, body = _send(client, request)
            now = time.perf_counter()
            tally.record(now, now, now, status, body, request, expected)


def _open_loop(url, requests, expected, tally: _Tally) -> None:
    """Send ``requests[i]`` at ``start + i / RATE_PER_S`` over one
    connection."""
    from repro.serve.client import ServeClient

    with ServeClient(url) as client:
        start = time.perf_counter() + 0.05
        for index, request in enumerate(requests):
            due = start + index / RATE_PER_S
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            sent = time.perf_counter()
            try:
                status, body = _send(client, request)
            except OSError as error:
                status, body = 0, {"error": repr(error)}
            tally.record(due, sent, time.perf_counter(), status, body,
                         request, expected)


def _scrape(url) -> Dict[str, float]:
    """Server latency sum and count, and the largest tenant backlog."""
    from repro.obs.expo import parse_exposition
    from repro.serve.client import ServeClient

    with ServeClient(url) as client:
        _status, text = client.metrics()
    totals = {"sum": 0.0, "count": 0.0, "pending": 0.0}
    for (name, _labels), value in parse_exposition(text)["samples"].items():
        if name == "repro_server_latency_ms_sum":
            totals["sum"] += value
        elif name == "repro_server_latency_ms_count":
            totals["count"] += value
        elif name == "repro_tenant_pending":
            totals["pending"] = max(totals["pending"], value)
    return totals


def _decode_ms(log_dir: str) -> float:
    """Mean ``queue_ms`` of the server's ``server_request`` records: the
    JSON decode, validation and tenant lookup before the executor hop."""
    values = []
    for name in sorted(os.listdir(log_dir)):
        with open(os.path.join(log_dir, name), "r", encoding="utf-8") as f:
            for line in f:
                record = json.loads(line)
                if record.get("kind") == "server_request":
                    values.append(float(record["queue_ms"]))
    return statistics.mean(values) if values else 0.0


# ----------------------------------------------------------------------
def serve_layers(result: Result, seed: int, seconds: float) -> None:
    """Add the ``serve.*`` and ``pack.*`` layer metrics to ``result``:
    pack build and load are wrapped in-process, the server is measured
    from outside during ``seconds`` of open-loop traffic."""
    from repro import pack

    corpus = build_corpus(PROJECTS)
    rng, battery, corpus_requests = _inputs(corpus, seed)
    schedule = _schedule(rng, battery, corpus_requests,
                         int(RATE_PER_S * seconds))
    expected = _expected(corpus, corpus_requests)

    layer_trace = LayerTrace()
    layer_trace.wrap(pack, "build_pack", "pack.build")
    layer_trace.wrap(pack, "load_pack", "pack.load")
    log_dir = os.path.join(WORK_DIR, "serve-logs")
    warmed, opened = _Tally(), _Tally()
    server = None
    try:
        packs = _build_packs(corpus)
        for path in packs:
            pack.load_pack(path)
        layer_trace.uninstall()
        pack_bytes = sum(os.path.getsize(path) for path in packs)
        server = _Server(packs, log_dir)
        _warm(server.url, battery + corpus_requests, expected, warmed)

        before = _scrape(server.url)
        pending = [0.0]
        stop = threading.Event()

        def watch() -> None:
            while not stop.wait(SCRAPE_EVERY_S):
                pending[0] = max(pending[0], _scrape(server.url)["pending"])

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        try:
            _open_loop(server.url, schedule, expected, opened)
        finally:
            stop.set()
            watcher.join(timeout=10)
        after = _scrape(server.url)
    finally:
        layer_trace.uninstall()
        if server is not None:
            server.stop()
    warmed.absorb_into(result)
    opened.absorb_into(result)
    decode_ms = _decode_ms(log_dir)
    shutil.rmtree(WORK_DIR, ignore_errors=True)

    result.add("pack.build_ms", layer_trace.busy_ms("pack.build"), "ms")
    result.add("pack.load_ms", layer_trace.busy_ms("pack.load"), "ms")
    result.add("pack.bytes", pack_bytes, "bytes")
    rtt = statistics.mean(opened.rtt_ms)
    served = after["count"] - before["count"]
    server_ms = (after["sum"] - before["sum"]) / max(1.0, served)
    engine_ms = statistics.mean(opened.engine_ms)
    result.add("serve.client.rtt_ms", rtt, "ms", len(opened.rtt_ms))
    result.add("serve.server.latency_mean_ms", server_ms, "ms", int(served))
    result.add("serve.engine.elapsed_ms", engine_ms, "ms",
               len(opened.engine_ms))
    result.add("serve.wire_ms", rtt - server_ms, "ms")
    result.add("serve.overhead_ms", server_ms - engine_ms, "ms")
    result.add("serve.decode_ms", decode_ms, "ms")
    result.add("serve.pending_max", max(pending[0], after["pending"]),
               "count")
    result.add("serve.cached_frac", opened.cached / max(1, len(opened.rtt_ms)),
               "frac", len(opened.rtt_ms))
    result.add("loadgen.lateness_p99_ms", percentile(opened.lateness_ms, 0.99),
               "ms", len(opened.lateness_ms))
