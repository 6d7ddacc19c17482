"""Protocol battery for the completion service (docs/SERVING.md).

Three guarantees pinned here:

* **Golden round-trips** — a completion served over HTTP is
  byte-identical (as sorted JSON) to the same query answered by the
  in-process :func:`repro.api.complete` facade on a fresh workspace;
* **Error shapes** — every failure is a structured body with a stable
  ``code`` and the exit-style mapping of :data:`repro.serve.protocol
  .ERROR_CODES` (unknown workspace, malformed bodies, parse errors,
  sheds, deadline expiry);
* **Lifecycle** — startup warms the pool before the port opens, and a
  graceful shutdown drains in-flight requests instead of dropping them.
"""

import http.client
import json
import threading
import time

import pytest

from repro.api import complete, complete_many, explain, open_workspace
from repro.eval.battery import battery_for
from repro.ide.workspace import Workspace
from repro.obs import parse_exposition, validate_exposition, \
    validate_runlog_text
from repro.serve import (
    PROTOCOL_VERSION,
    EnginePool,
    ServeClient,
    Tenant,
    protocol,
    start_in_thread,
)

UNIVERSE = "bcl"


@pytest.fixture(scope="module")
def pool():
    return EnginePool((UNIVERSE,))


@pytest.fixture(scope="module")
def handle(pool):
    with start_in_thread(pool=pool) as running:
        yield running


@pytest.fixture()
def client(handle):
    with ServeClient(handle.url) as running:
        yield running


@pytest.fixture(scope="module")
def battery():
    return battery_for(UNIVERSE)


def suggestions_json(suggestions):
    """The byte-identity canonical form: sorted-key JSON of the wire
    shape, for server payloads and in-process records alike."""
    return json.dumps(
        [
            s if isinstance(s, dict) else protocol.suggestion_to_dict(s)
            for s in suggestions
        ],
        sort_keys=True,
    )


class TestGoldenRoundTrips:
    def test_complete_matches_in_process(self, client, battery):
        workspace = open_workspace(UNIVERSE)
        for query in battery.queries:
            status, body = client.complete(
                UNIVERSE, query, locals=battery.locals)
            assert status == 200, body
            record = complete(workspace, query, locals=battery.locals)
            assert suggestions_json(body["suggestions"]) == \
                suggestions_json(record.suggestions), query
            assert body["status"] == record.status.value
            assert body["workspace"] == UNIVERSE
            assert body["exit_code"] == 0
            assert body["suggestions"], "golden queries must complete"

    def test_complete_many_matches_in_process(self, client, battery):
        status, body = client.complete_many(
            UNIVERSE, battery.queries, locals=battery.locals)
        assert status == 200, body
        workspace = open_workspace(UNIVERSE)
        records = complete_many(workspace, battery.queries,
                                locals=battery.locals)
        assert len(body["results"]) == len(records)
        for served, record in zip(body["results"], records):
            assert served["query"] == record.source
            assert suggestions_json(served["suggestions"]) == \
                suggestions_json(record.suggestions)

    def test_explain_matches_in_process(self, client, battery):
        query = battery.queries[-1]
        status, body = client.explain(UNIVERSE, query,
                                      locals=battery.locals)
        assert status == 200, body
        workspace = open_workspace(UNIVERSE)
        local = explain(workspace, query, locals=battery.locals)
        assert len(body["completions"]) == len(local)
        for served, completion in zip(body["completions"], local):
            expected = protocol.completion_to_dict(completion)
            assert served["text"] == expected["text"]
            assert served["score"] == expected["score"]
            assert served["breakdown"]["rows"] == \
                expected["breakdown"]["rows"]
            total = sum(value for _, value in served["breakdown"]["rows"])
            assert abs(total - served["score"]) < 1e-9

    def test_repeat_is_cached_and_byte_identical(self, client, battery):
        query = battery.queries[0]
        _, first = client.complete(UNIVERSE, query, locals=battery.locals)
        status, second = client.complete(UNIVERSE, query,
                                         locals=battery.locals)
        assert status == 200
        assert second["cached"] is True, \
            "session affinity must keep the cross-query cache warm"
        assert suggestions_json(first["suggestions"]) == \
            suggestions_json(second["suggestions"])

    @pytest.mark.parametrize("first_traced", [False, True])
    def test_traced_repeat_replays_the_cache(self, client, first_traced):
        """A traced request runs the cached program: it replays what an
        earlier request computed, and its own miss fills the cache."""
        query = "span.?*m" if first_traced else "span.?*f"
        scope = {"locals": {"span": "System.TimeSpan"}}
        _, first = client.complete(UNIVERSE, query, trace=first_traced,
                                   **scope)
        assert first["cached"] is False
        status, second = client.complete(UNIVERSE, query, trace=True,
                                         **scope)
        assert status == 200, second
        assert second["cached"] is True
        assert suggestions_json(first["suggestions"]) == \
            suggestions_json(second["suggestions"])
        names = [span["name"] for span in second["spans"]]
        [cache] = [span for span in second["spans"]
                   if span["name"] == "cache"]
        assert cache["counters"]["hit"] == 1
        assert not [name for name in names if name.startswith("expand:")]


class TestErrorShapes:
    def _assert_error(self, status, body, code):
        want_status, want_exit = protocol.ERROR_CODES[code]
        assert status == want_status, body
        assert body["error"]["code"] == code
        assert body["error"]["exit_code"] == want_exit
        assert body["error"]["message"]

    def test_unknown_workspace(self, client):
        status, body = client.complete("nope", "?")
        self._assert_error(status, body, protocol.UNKNOWN_WORKSPACE)
        assert UNIVERSE in body["error"]["message"]

    def test_unknown_workspace_stats(self, client):
        status, body = client.stats("nope")
        self._assert_error(status, body, protocol.UNKNOWN_WORKSPACE)

    def test_body_not_json(self, handle):
        connection = http.client.HTTPConnection(
            "127.0.0.1", handle.port, timeout=10)
        try:
            connection.request(
                "POST", "/v1/complete", body=b"{nope",
                headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            body = json.loads(response.read().decode())
            self._assert_error(response.status, body, protocol.BAD_REQUEST)
        finally:
            connection.close()

    def test_body_missing_query(self, client):
        status, body = client.request(
            "POST", "/v1/complete", {"workspace": UNIVERSE})
        self._assert_error(status, body, protocol.BAD_REQUEST)
        assert "query" in body["error"]["message"]

    def test_body_bad_locals(self, client):
        status, body = client.complete(
            UNIVERSE, "?", locals={"x": 3})
        self._assert_error(status, body, protocol.BAD_REQUEST)

    def test_unknown_local_type(self, client):
        status, body = client.complete(
            UNIVERSE, "?", locals={"x": "No.Such.Type"})
        self._assert_error(status, body, protocol.BAD_REQUEST)

    def test_parse_error_maps_to_422(self, client):
        status, body = client.complete(UNIVERSE, "((")
        assert status == protocol.http_status(protocol.PARSE_ERROR)
        assert body["parse_error"]
        assert body["exit_code"] == 1
        assert body["suggestions"] == []

    def test_method_and_route_errors(self, client):
        status, body = client.request("GET", "/v1/complete")
        self._assert_error(status, body, protocol.METHOD_NOT_ALLOWED)
        status, body = client.request("POST", "/v1/healthz")
        self._assert_error(status, body, protocol.METHOD_NOT_ALLOWED)
        status, body = client.request("GET", "/v1/nope")
        self._assert_error(status, body, protocol.NOT_FOUND)

    def test_deadline_expired_in_queue(self, client, pool):
        tenant = pool.get(UNIVERSE)
        blocker = tenant.executor.submit(time.sleep, 0.25)
        try:
            status, body = client.complete(
                UNIVERSE, "now.?m",
                locals={"now": "System.DateTime"}, deadline_ms=1)
        finally:
            blocker.result()
        self._assert_error(status, body, protocol.DEADLINE_EXCEEDED)

    def test_admission_shed_when_queue_would_blow_deadline(
        self, handle, client, pool
    ):
        tenant = pool.get(UNIVERSE)
        tenant._avg_ms = 50.0  # one queued request ~50 ms
        blocker = tenant.executor.submit(time.sleep, 0.3)
        results = []

        def occupant():
            with ServeClient(handle.url) as other:
                results.append(other.complete(
                    UNIVERSE, "now.?m", locals={"now": "System.DateTime"}))

        thread = threading.Thread(target=occupant)
        thread.start()
        try:
            deadline = time.monotonic() + 5.0
            while tenant.pending == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert tenant.pending >= 1
            status, body = client.complete(
                UNIVERSE, "now.?m",
                locals={"now": "System.DateTime"}, deadline_ms=10)
        finally:
            blocker.result()
            thread.join()
        self._assert_error(status, body, protocol.SHED)
        assert results[0][0] == 200, "the queued request still completes"


class TestLifecycle:
    def test_startup_warms_pool(self, client, pool):
        status, body = client.healthz()
        assert status == 200
        assert body["ok"] is True
        assert body["protocol"] == PROTOCOL_VERSION
        assert body["workspaces"][UNIVERSE]["warmed"] is True
        assert pool.get(UNIVERSE).warmed is True

    def test_stats_carry_server_counters(self, client, battery):
        client.complete(UNIVERSE, battery.queries[0],
                        locals=battery.locals)
        status, body = client.stats(UNIVERSE)
        assert status == 200
        counters = body["metrics"]["counters"]
        assert counters["server_requests"] >= 1
        assert counters["server_ok"] >= 1
        assert body["warmed"] is True
        assert body["run_log_records"] >= 1

    def test_graceful_shutdown_drains_in_flight(self):
        pool = EnginePool((UNIVERSE,))
        handle = start_in_thread(pool=pool)
        tenant = pool.get(UNIVERSE)
        results = []

        def slow_request():
            with ServeClient(handle.url) as client:
                results.append(client.complete(
                    UNIVERSE, "now.?m", locals={"now": "System.DateTime"}))

        blocker = tenant.executor.submit(time.sleep, 0.4)
        worker = threading.Thread(target=slow_request)
        worker.start()
        deadline = time.monotonic() + 5.0
        while tenant.pending == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert tenant.pending >= 1, "request must be in flight before stop"
        handle.stop(drain=True)
        worker.join(timeout=10)
        blocker.result()
        assert results, "drain must let the in-flight request finish"
        status, body = results[0]
        assert status == 200, body
        assert body["suggestions"]
        with pytest.raises(OSError):
            with ServeClient(handle.url) as client:
                client.healthz()


class TestRequestCorrelation:
    """The end-to-end pin of the observability tentpole: a client
    supplied request id survives HTTP -> pool -> engine, is echoed in
    the response, lands (with the span tree) on a schema-valid
    ``server_request`` record, and the request is reflected in a
    scraped ``/v1/metrics`` exposition."""

    def test_client_supplied_id_pins_end_to_end(
        self, client, pool, battery
    ):
        request_id = "pin-e2e-000"
        status, body = client.complete(
            UNIVERSE, battery.queries[0], locals=battery.locals,
            request_id=request_id, trace=True)
        assert status == 200, body
        assert body["request_id"] == request_id
        spans = body["spans"]
        assert spans, "trace=true must embed the span tree"
        assert spans[0]["parent"] is None

        tenant = pool.get(UNIVERSE)
        text = tenant.run_log.to_ndjson()
        assert validate_runlog_text(text) == []
        records = [json.loads(line) for line in text.splitlines()]
        served = [r for r in records
                  if r.get("kind") == "server_request"
                  and r.get("request_id") == request_id]
        assert len(served) == 1
        record = served[0]
        assert record["endpoint"] == "/v1/complete"
        assert record["code"] == "ok"
        assert record["spans"] == spans
        # the engine's own query records carry the bound id too
        queries = [r for r in records
                   if r.get("kind") == "query"
                   and r.get("request_id") == request_id]
        assert len(queries) == 1

        scrape_status, exposition = client.metrics()
        assert scrape_status == 200
        assert validate_exposition(exposition) == []
        samples = parse_exposition(exposition)["samples"]
        key = ("repro_server_requests_total",
               (("workspace", UNIVERSE),))
        assert samples[key] >= 1, \
            "the pinned request must be visible to a scraper"

    def test_server_generates_id_when_client_sends_none(
        self, client, battery
    ):
        status, body = client.complete(
            UNIVERSE, battery.queries[0], locals=battery.locals)
        assert status == 200
        assert body["request_id"]
        assert len(body["request_id"]) == 16

    def test_distinct_requests_get_distinct_generated_ids(
        self, client, battery
    ):
        ids = set()
        for _ in range(3):
            _, body = client.complete(
                UNIVERSE, battery.queries[0], locals=battery.locals)
            ids.add(body["request_id"])
        assert len(ids) == 3

    def test_batch_and_explain_echo_the_id(self, client, battery):
        status, body = client.complete_many(
            UNIVERSE, battery.queries[:2], locals=battery.locals,
            request_id="pin-batch")
        assert status == 200
        assert body["request_id"] == "pin-batch"
        status, body = client.explain(
            UNIVERSE, battery.queries[-1], locals=battery.locals,
            request_id="pin-explain")
        assert status == 200
        assert body["request_id"] == "pin-explain"

    def test_error_responses_echo_the_id(self, client):
        status, body = client.complete(
            "nope", "?", request_id="pin-err")
        assert status != 200
        assert body["request_id"] == "pin-err"

    def test_invalid_request_ids_are_bad_requests(self, client):
        for bad in (123, "", "x" * 200):
            status, body = client.complete(
                UNIVERSE, "?", request_id=bad)
            assert status == 400, bad
            assert body["error"]["code"] == protocol.BAD_REQUEST

    def test_untraced_requests_omit_spans(self, client, battery):
        status, body = client.complete(
            UNIVERSE, battery.queries[0], locals=battery.locals)
        assert status == 200
        assert "spans" not in body


class TestMetricsEndpoint:
    def test_scrape_is_valid_exposition(self, client, battery):
        client.complete(UNIVERSE, battery.queries[0],
                        locals=battery.locals)
        status, text = client.metrics()
        assert status == 200
        assert validate_exposition(text) == []
        parsed = parse_exposition(text)
        samples = parsed["samples"]
        assert samples[("repro_server_uptime_seconds", ())] >= 0
        assert ("repro_tenant_pending",
                (("workspace", UNIVERSE),)) in samples
        assert parsed["types"]["repro_http_requests_total"] == "counter"
        assert parsed["types"]["repro_server_latency_ms"] == "histogram"

    def test_scrape_counters_track_requests(self, client, battery):
        _, before = client.metrics()
        key = ("repro_server_requests_total",
               (("workspace", UNIVERSE),))
        start = parse_exposition(before)["samples"][key]
        client.complete(UNIVERSE, battery.queries[0],
                        locals=battery.locals)
        _, after = client.metrics()
        assert parse_exposition(after)["samples"][key] == start + 1

    def test_post_is_method_not_allowed(self, client):
        status, body = client.request("POST", "/v1/metrics")
        assert status == 405
        assert body["error"]["code"] == protocol.METHOD_NOT_ALLOWED


class TestWarmProbeAdmission:
    """Satellite: the admission EMA must start from a measured warmup
    probe, and an idle server must never shed (the cold-start
    regression)."""

    def test_warm_seeds_estimate_from_probe(self, pool):
        tenant = pool.get(UNIVERSE)
        assert tenant.warm_probe_ms is not None
        assert tenant.warm_probe_ms > 0
        assert tenant.stats()["warm_probe_ms"] == tenant.warm_probe_ms

    def test_idle_tenant_never_sheds_regardless_of_estimate(self):
        tenant = Tenant(UNIVERSE, Workspace.builtin(UNIVERSE))
        try:
            tenant._avg_ms = 1e9  # even a pathological estimate
            assert tenant.pending == 0
            admitted = tenant.admit(deadline_ms=0.001)
            assert admitted > 0
            tenant._cancel()
        finally:
            tenant.shutdown()

    def test_healthz_on_idle_server_with_tight_default_deadline(self):
        """A freshly warmed server given a tight default deadline must
        answer its first request instead of shedding it off the cold
        2 ms guess times an empty queue."""
        with start_in_thread((UNIVERSE,), default_deadline_ms=15.0) \
                as running:
            with ServeClient(running.url) as probe:
                status, body = probe.complete(
                    UNIVERSE, "now.?m", locals={"now": "System.DateTime"})
        assert status == 200, body


class TestSloAndChaosThroughServe:
    """One extra server carrying both SLO objectives and a mounted
    fault plan — the chaos contract over HTTP (kept off the shared
    module fixture: stopping this handle kills its own pool only)."""

    @pytest.fixture(scope="class")
    def obs_handle(self):
        with start_in_thread(
            (UNIVERSE,),
            slo="p95_ms=1000:error_rate=0.5:shed_rate=0.5",
            fault_plan={"seed": 11, "rate": 1.0},
        ) as running:
            yield running

    @pytest.fixture()
    def obs_client(self, obs_handle):
        with ServeClient(obs_handle.url) as running:
            yield running

    def test_healthz_carries_slo_verdicts_and_chaos(
        self, obs_client, battery
    ):
        for query in battery.queries[:2]:
            status, body = obs_client.complete(
                UNIVERSE, query, locals=battery.locals)
            assert status == 200, body
        status, body = obs_client.healthz()
        assert status == 200
        slo = body["slo"]
        assert set(slo["verdicts"]) == {"latency", "errors", "shed"}
        assert body["ok"] == slo["ok"]
        assert [w["window_s"] for w in slo["windows"]] == \
            [60.0, 300.0, 1800.0]
        assert body["chaos"]["seed"] == 11
        assert body["chaos"]["rate"] == 1.0

    def test_slo_burn_gauges_exposed(self, obs_client, battery):
        obs_client.complete(UNIVERSE, battery.queries[0],
                            locals=battery.locals)
        status, text = obs_client.metrics()
        assert status == 200
        assert validate_exposition(text) == []
        samples = parse_exposition(text)["samples"]
        assert ("repro_slo_ok", ()) in samples
        burn_keys = [key for key in samples if key[0] == "repro_slo_burn"]
        assert burn_keys, "configured objectives must expose burn gauges"
        labels = dict(burn_keys[0][1])
        assert set(labels) == {"objective", "window_s"}

    def test_chaos_degrades_but_never_breaks_protocol(
        self, obs_handle, obs_client, battery
    ):
        outcomes = []
        for _ in range(4):
            for query in battery.queries:
                outcomes.append(obs_client.complete(
                    UNIVERSE, query, locals=battery.locals,
                    request_id=None))
        assert all(status == 200 for status, _ in outcomes), \
            "injected faults must degrade, never 500"
        degraded = [body for _, body in outcomes if body.get("degraded")]
        assert degraded, "rate=1.0 chaos must visibly degrade answers"

        tenant = obs_handle.server.pool.get(UNIVERSE)
        text = tenant.run_log.to_ndjson()
        assert validate_runlog_text(text) == []
        records = [json.loads(line) for line in text.splitlines()]
        with_faults = [r for r in records
                       if r.get("kind") == "server_request"
                       and r.get("faults")]
        assert with_faults, "fired fault events must be logged"
        for record in with_faults:
            for event in record["faults"]:
                site, _, call = event.partition("@")
                assert site in ("oracle", "index_lookup", "type_check",
                                "namespaces", "matching_name")
                assert int(call) >= 1

    def test_chaos_burns_the_error_budget(self, obs_handle, obs_client,
                                          battery):
        for query in battery.queries:
            obs_client.complete(UNIVERSE, query, locals=battery.locals)
        report = obs_handle.server.slo.evaluate()
        window = report["windows"][0]
        assert window["degraded"] > 0
        assert window["burn"]["errors"] > 0


class TestStatsCliScrape:
    """``repro stats --url`` (and friends): the scrape-mode satellite."""

    def _run(self, argv):
        import io

        from repro.__main__ import main as cli_main

        out = io.StringIO()
        code = cli_main(argv,
                        write=lambda line="": out.write(str(line) + "\n"))
        return code, out.getvalue()

    def test_scrape_prints_sample_table(self, handle, client, battery):
        client.complete(UNIVERSE, battery.queries[0],
                        locals=battery.locals)
        code, output = self._run(["stats", "--url", handle.url])
        assert code == 0, output
        assert "metrics from {}".format(handle.url) in output
        assert "repro_server_requests_total" in output

    def test_validate_round_trips_the_exposition(self, handle):
        code, output = self._run(
            ["stats", "--url", handle.url, "--validate"])
        assert code == 0, output
        assert "valid exposition" in output

    def test_watch_polls_n_times(self, handle):
        code, output = self._run(
            ["stats", "--url", handle.url, "--watch", "0",
             "--watch-count", "2"])
        assert code == 0, output
        assert output.count("metrics from") == 2

    def test_unreachable_url_is_usage_error(self):
        code, output = self._run(
            ["stats", "--url", "http://127.0.0.1:1"])
        assert code == 2
        assert "error" in output

    def test_validate_without_url_is_usage_error(self):
        code, output = self._run(
            ["stats", "--universe", UNIVERSE, "--validate"])
        assert code == 2
        assert "--url" in output

    def test_in_process_watch_reruns_the_battery(self):
        code, output = self._run(
            ["stats", "--universe", UNIVERSE, "--watch", "0",
             "--watch-count", "2"])
        assert code == 0, output
        assert "after 1 battery run(s)" in output
        assert "after 2 battery run(s)" in output


class TestForegroundServer:
    """``repro serve`` in a subprocess: SIGINT drains, then stops."""

    def test_sigint_drains_and_stops(self):
        import os
        import signal
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1")
        # started with SIGINT ignored, as background jobs of a
        # non-interactive shell are: the server's own handler still runs
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--universes", "bcl",
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN))
        try:
            for line in process.stdout:
                if line.startswith("serving on "):
                    break
            host, port = line.split()[2][len("http://"):].split(":")
            # one idle keep-alive connection the drain must close
            connection = http.client.HTTPConnection(host, int(port),
                                                    timeout=10)
            connection.request("GET", "/v1/healthz")
            assert connection.getresponse().read()
            process.send_signal(signal.SIGINT)
            rest, _ = process.communicate(timeout=30)
            connection.close()
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        assert process.returncode == 0, rest
        assert rest.splitlines()[-2:] == [
            "draining in-flight requests...", "stopped"], rest
        assert "Traceback" not in rest and "CancelledError" not in rest
