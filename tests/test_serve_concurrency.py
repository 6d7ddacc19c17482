"""Concurrency differentials for the completion service.

In the style of test_concurrent_obs.py: many async clients hammer one
tenant and the outcome must be indistinguishable from serial execution
— same ranked results (session affinity serialises every request onto
the tenant's one engine thread), no lost metric increments, atomic
run-log lines that still validate against the schema, and a cache whose
hit counters rise across requests (the warmth the affinity exists to
preserve).
"""

import asyncio
import json
import random
import threading

import pytest

from repro.api import complete, open_workspace
from repro.eval.battery import battery_for
from repro.obs import validate_runlog_text
from repro.serve import EnginePool, ServeClient, async_request, protocol
from repro.serve.server import start_in_thread

UNIVERSE = "bcl"
N_CLIENTS = 8
REPEATS = 3


@pytest.fixture(scope="module")
def pool():
    return EnginePool((UNIVERSE,))


@pytest.fixture(scope="module")
def handle(pool):
    with start_in_thread(pool=pool) as running:
        yield running


@pytest.fixture(scope="module")
def battery():
    return battery_for(UNIVERSE)


@pytest.fixture(scope="module")
def serial_reference(battery):
    """What a single client against a fresh engine would see, query by
    query — the oracle every concurrent response must match."""
    workspace = open_workspace(UNIVERSE)
    reference = {}
    for query in battery.queries:
        record = complete(workspace, query, locals=battery.locals)
        reference[query] = json.dumps(
            [protocol.suggestion_to_dict(s) for s in record.suggestions],
            sort_keys=True,
        )
    return reference


def hammer(url, requests):
    """Fan ``requests`` out over independent async connections; returns
    ``(query, status, body)`` triples in completion order."""

    async def one(query):
        status, body = await async_request(
            url, "POST", "/v1/complete",
            {"workspace": UNIVERSE, "query": query,
             "locals": battery_for(UNIVERSE).locals})
        return query, status, body

    async def main():
        return await asyncio.gather(*(one(query) for query in requests))

    return asyncio.run(main())


class TestConcurrentDifferentials:
    def test_async_clients_match_serial_execution(
        self, handle, battery, serial_reference
    ):
        requests = battery.queries * REPEATS
        random.Random(7).shuffle(requests)
        outcomes = hammer(handle.url, requests)
        assert len(outcomes) == len(requests)
        for query, status, body in outcomes:
            assert status == 200, body
            got = json.dumps(body["suggestions"], sort_keys=True)
            assert got == serial_reference[query], query

    def test_counters_lose_no_increments(self, handle, pool, battery):
        tenant = pool.get(UNIVERSE)
        before = tenant.workspace.metrics()["counters"]
        requests = battery.queries * REPEATS
        outcomes = hammer(handle.url, requests)
        assert all(status == 200 for _, status, _ in outcomes)
        after = tenant.workspace.metrics()["counters"]
        delta = len(requests)
        assert after["server_requests"] - before.get(
            "server_requests", 0) == delta
        assert after["server_ok"] - before.get("server_ok", 0) == delta
        assert after["queries"] - before.get("queries", 0) == delta

    def test_parallel_threads_of_async_clients(
        self, handle, pool, battery, serial_reference, monkeypatch
    ):
        """Even event loops racing on separate OS threads serialise
        cleanly at the tenant: every engine call runs on the tenant's
        one executor thread (the engine and its streams hold no locks,
        so this is what keeps them safe)."""
        tenant = pool.get(UNIVERSE)
        engine = tenant.workspace.engine
        engine_threads = set()
        for name in ("complete_query", "explain"):
            method = getattr(engine, name)

            def recorded(*args, _method=method, **kwargs):
                engine_threads.add(threading.get_ident())
                return _method(*args, **kwargs)

            monkeypatch.setattr(engine, name, recorded)
        failures = []

        def storm():
            try:
                for query, status, body in hammer(
                    handle.url, list(battery.queries)
                ):
                    if status != 200:
                        failures.append((query, status))
                    elif json.dumps(body["suggestions"], sort_keys=True) \
                            != serial_reference[query]:
                        failures.append((query, "diverged"))
                # in-process, so the HTTP request log stays /v1/complete
                explained = tenant.explain(protocol.CompletionRequestBody(
                    {"workspace": UNIVERSE, "query": battery.queries[0],
                     "locals": battery.locals}))
                if not explained:
                    failures.append(("explain", "empty"))
            except Exception as error:  # noqa: BLE001 - report, don't hang
                failures.append(repr(error))

        threads = [threading.Thread(target=storm) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        tenant_thread = tenant.executor.submit(threading.get_ident).result()
        assert engine_threads == {tenant_thread}

    def test_run_log_lines_atomic_and_schema_valid(self, handle, pool):
        tenant = pool.get(UNIVERSE)
        text = tenant.run_log.to_ndjson()
        records = []
        for line in text.splitlines():
            records.append(json.loads(line))  # every line parses alone
        assert validate_runlog_text(text) == []
        served = [r for r in records if r.get("kind") == "server_request"]
        assert served, "the hammering above must have been logged"
        counters = tenant.workspace.metrics()["counters"]
        assert len(served) == counters["server_requests"], \
            "one server_request record per counted request"
        for record in served:
            assert record["endpoint"] == "/v1/complete"
            assert record["workspace"] == UNIVERSE
            assert record["elapsed_ms"] >= record["queue_ms"] >= 0.0

    def test_session_affinity_raises_cache_hit_rate(
        self, handle, pool, battery
    ):
        tenant = pool.get(UNIVERSE)
        query = "span.?m"  # unique to this test: first sight is cold
        assert query not in battery.queries
        before = tenant.workspace.cache_stats()

        def post():
            with ServeClient(handle.url) as client:
                return client.complete(
                    UNIVERSE, query, locals={"span": "System.TimeSpan"})

        outcomes = [post() for _ in range(6)]
        assert all(status == 200 for status, _ in outcomes)
        cached_flags = [body["cached"] for _, body in outcomes]
        assert cached_flags[0] is False
        assert all(cached_flags[1:]), \
            "repeat queries must replay from the warm tenant cache"
        after = tenant.workspace.cache_stats()
        assert after["stream_hits"] > before["stream_hits"]
        counters = tenant.workspace.metrics()["counters"]
        assert counters.get("queries_cached", 0) >= len(outcomes) - 1


def hammer_traced(url, tagged_requests):
    """Fan out (request_id, query) pairs, each opted into tracing."""

    async def one(request_id, query):
        status, body = await async_request(
            url, "POST", "/v1/complete",
            {"workspace": UNIVERSE, "query": query,
             "locals": battery_for(UNIVERSE).locals,
             "request_id": request_id, "trace": True})
        return request_id, query, status, body

    async def main():
        return await asyncio.gather(
            *(one(request_id, query)
              for request_id, query in tagged_requests))

    return asyncio.run(main())


class TestConcurrentCorrelation:
    """Request ids under concurrency: every response echoes its own id,
    span trees never mix between interleaved requests, and the engine's
    bound run-log records stay schema-valid."""

    @pytest.fixture(scope="class")
    def storm(self, handle, battery):
        tagged = [
            ("corr-{}-{}".format(repeat, i), query)
            for repeat in range(REPEATS)
            for i, query in enumerate(battery.queries)
        ]
        random.Random(11).shuffle(tagged)
        return tagged, hammer_traced(handle.url, tagged)

    def test_every_response_echoes_its_own_id(self, storm):
        tagged, outcomes = storm
        assert len(outcomes) == len(tagged)
        for request_id, query, status, body in outcomes:
            assert status == 200, body
            assert body["request_id"] == request_id, query

    def test_span_trees_never_mix_between_requests(self, pool, storm):
        _, outcomes = storm
        for request_id, _query, _status, body in outcomes:
            spans = body["spans"]
            assert spans, request_id
            ids = {span["span"] for span in spans}
            assert len(ids) == len(spans), "span ids unique per request"
            roots = [s for s in spans if s["parent"] is None]
            assert roots, "each request's tree has its own root"
            for span in spans:
                if span["parent"] is not None:
                    assert span["parent"] in ids, \
                        "a parent outside the tree means trees mixed"

    def test_server_records_pair_ids_with_span_trees(self, pool, storm):
        tagged, outcomes = storm
        tenant = pool.get(UNIVERSE)
        records = [json.loads(line)
                   for line in tenant.run_log.to_ndjson().splitlines()]
        served = {r["request_id"]: r for r in records
                  if r.get("kind") == "server_request"
                  and str(r.get("request_id", "")).startswith("corr-")}
        assert len(served) == len(tagged)
        for request_id, _query, _status, body in outcomes:
            assert served[request_id]["spans"] == body["spans"], \
                "the logged tree must be the one the client saw"

    def test_engine_records_carry_bound_ids(self, pool, storm):
        tagged, _ = storm
        tenant = pool.get(UNIVERSE)
        records = [json.loads(line)
                   for line in tenant.run_log.to_ndjson().splitlines()]
        bound = [r for r in records
                 if r.get("kind") == "query"
                 and str(r.get("request_id", "")).startswith("corr-")]
        assert len(bound) == len(tagged), \
            "every served query record must carry its request's id"

    def test_run_log_still_schema_valid_after_storm(self, pool, storm):
        tenant = pool.get(UNIVERSE)
        assert validate_runlog_text(tenant.run_log.to_ndjson()) == []
