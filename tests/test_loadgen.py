"""Load-generator unit tests against an in-process server fixture.

Pins the harness contract: worker fan-out honours ``n_workers``, the
emitted document keeps its ``repro-bench`` v1 wire shape and survives
``save`` → ``load``, a malformed document read back from disk is
refused, and a tiny ``deadline_ms`` produces a nonzero shed rate
**without failing the run** — shedding is a measured outcome, not an
error.
"""

import copy
import io
import json

import pytest

from repro.__main__ import main as cli_main
from repro.serve import render_loadgen, run_loadgen
from repro.serve.loadgen import VERSION, load, save, validate

UNIVERSE = "bcl"


@pytest.fixture(scope="module")
def document():
    """One short spawned-server run shared by the shape tests."""
    return run_loadgen(universe=UNIVERSE, n_workers=3, duration_s=0.6,
                       label="unit")


class TestFanOut:
    def test_honours_n_workers(self, document):
        serve = document["serve"]
        assert serve["n_workers"] == 3
        assert len(serve["per_worker_requests"]) == 3
        assert all(count > 0 for count in serve["per_worker_requests"])
        assert sum(serve["per_worker_requests"]) == serve["requests"]

    def test_totals_are_consistent(self, document):
        serve = document["serve"]
        assert serve["ok"] + serve["shed"] + serve["errors"] == \
            serve["requests"]
        assert serve["errors"] == 0
        assert serve["ok"] > 0
        assert serve["throughput_rps"] > 0
        assert serve["wall_s"] >= serve["duration_s"] * 0.9

    def test_latency_percentiles_ordered(self, document):
        workload = document["workloads"][0]
        assert workload["name"] == "serve/{}".format(UNIVERSE)
        assert 0 < workload["p50_ms"] <= workload["p95_ms"]
        assert workload["queries"] == document["serve"]["ok"]
        assert workload["steps"] >= 0


class TestBenchContract:
    def test_document_is_schema_valid(self, document):
        assert validate(document) is document
        assert (document["format"], document["version"]) == \
            ("repro-bench", 1)

    def test_round_trips_save_load_and_diff(self, document, tmp_path):
        path = tmp_path / "BENCH_serve_unit.json"
        save(str(path), document)
        loaded = load(str(path))
        assert loaded["label"] == "serve_unit"
        assert loaded == json.loads(json.dumps(document))

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("format"),
        lambda d: d.update(format="something-else"),
        lambda d: d.update(version=VERSION + 1),
        lambda d: d.pop("workloads"),
        lambda d: d.update(workloads="not-a-list"),
        lambda d: d["workloads"][0].pop("p95_ms"),
    ], ids=["no-format", "wrong-format", "unknown-version", "no-workloads",
            "workloads-not-a-list", "entry-missing-p95"])
    def test_validate_rejects_malformed_documents(self, document, mutate):
        broken = copy.deepcopy(document)
        mutate(broken)
        with pytest.raises(ValueError):
            validate(broken)

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load(str(path))

    def test_load_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "repro-results"}))
        with pytest.raises(ValueError, match="not a loadtest document"):
            load(str(path))

    def test_render_is_human_readable(self, document):
        lines = render_loadgen(document)
        assert any("serve_unit" in line for line in lines)
        assert any("shed rate" in line for line in lines)


class TestDeadlineShedding:
    def test_tiny_deadline_sheds_without_failing(self):
        document = run_loadgen(universe=UNIVERSE, n_workers=2,
                               duration_s=0.5, deadline_ms=0.5,
                               label="shed")
        serve = document["serve"]
        assert serve["requests"] > 0
        assert serve["shed"] > 0
        assert serve["shed_rate"] > 0
        assert serve["errors"] == 0, \
            "a shed is a structured outcome, never an error"
        validate(document)


class TestCorrelationAndHistogram:
    def test_document_carries_latency_histogram(self, document):
        serve = document["serve"]
        histogram = serve["latency_histogram"]
        assert histogram["count"] == serve["ok"]
        assert sum(histogram["buckets"]) == histogram["count"]
        assert len(histogram["buckets"]) == len(histogram["bounds"]) + 1

    def test_document_names_slowest_request_ids(self, document):
        slowest = document["serve"]["slowest_requests"]
        assert slowest, "a run with ok requests must name its slowest"
        assert len(slowest) <= 10
        latencies = [entry["latency_ms"] for entry in slowest]
        assert latencies == sorted(latencies, reverse=True)
        for entry in slowest:
            worker, _, sequence = entry["request_id"].partition("-")
            assert worker.startswith("w") and int(worker[1:]) in (0, 1, 2)
            assert int(sequence) >= 1

    def test_render_names_the_slowest(self, document):
        lines = render_loadgen(document)
        assert any("slowest:" in line for line in lines)


class TestChaosThroughServe:
    @pytest.fixture(scope="class")
    def chaos_run(self, tmp_path_factory):
        log_dir = tmp_path_factory.mktemp("chaos-logs")
        document = run_loadgen(
            universe=UNIVERSE, n_workers=2, duration_s=1.0, label="chaos",
            run_log_dir=str(log_dir),
            fault_plan={"seed": 11, "rate": 1.0})
        return document, log_dir

    def test_faults_degrade_but_never_error(self, chaos_run):
        document, _ = chaos_run
        serve = document["serve"]
        assert serve["errors"] == 0, \
            "an injected fault must never become a protocol error"
        assert serve["ok"] > 0
        assert serve["degraded"] > 0, \
            "rate=1.0 chaos must visibly degrade answers"
        assert serve["chaos"] == {
            "seed": 11, "rate": 1.0, "max_on_call": 12,
            "sites": ["oracle", "index_lookup", "type_check",
                      "namespaces", "matching_name"],
            "times": [1, 2, 3, None],
        }
        validate(document)

    def test_chaos_run_log_validates_and_burns_slo(self, chaos_run):
        from repro.api import slo_report
        from repro.obs import validate_runlog_text

        _, log_dir = chaos_run
        path = log_dir / "serve_{}.ndjson".format(UNIVERSE)
        text = path.read_text()
        assert validate_runlog_text(text) == []
        records = [json.loads(line) for line in text.splitlines()]
        with_faults = [r for r in records
                       if r.get("kind") == "server_request"
                       and r.get("faults")]
        assert with_faults
        report = slo_report(str(path))
        assert report["server_requests"] > 0
        whole_log = report["windows"][-1]
        assert whole_log["degraded"] > 0
        assert whole_log["burn"]["errors"] > 0

    def test_fault_plan_requires_in_process_server(self):
        with pytest.raises(ValueError, match="in-process"):
            run_loadgen(url="http://127.0.0.1:1", universe=UNIVERSE,
                        n_workers=1, duration_s=0.5,
                        fault_plan={"seed": 1})


class TestValidation:
    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            run_loadgen(universe=UNIVERSE, n_workers=0, duration_s=0.5)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            run_loadgen(universe=UNIVERSE, n_workers=1, duration_s=0)

    def test_rejects_unknown_universe(self):
        with pytest.raises((KeyError, ValueError)):
            run_loadgen(universe="nope", n_workers=1, duration_s=0.5)


class TestCliSurface:
    def _run(self, argv):
        out = io.StringIO()
        code = cli_main(argv, write=lambda line="": out.write(str(line) + "\n"))
        return code, out.getvalue()

    def test_loadtest_writes_valid_bench(self, tmp_path):
        output = tmp_path / "BENCH_serve_cli.json"
        code, text = self._run([
            "loadtest", "--universe", UNIVERSE, "--n-workers", "2",
            "--duration", "0.5", "--label", "cli", "-o", str(output)])
        assert code == 0, text
        assert "wrote {}".format(output) in text
        document = load(str(output))
        assert document["serve"]["n_workers"] == 2

    def test_loadtest_usage_errors(self, tmp_path):
        code, text = self._run(["loadtest", "--n-workers", "0"])
        assert code == 2
        assert "--n-workers" in text
        code, text = self._run(["loadtest", "--universe", "nope"])
        assert code == 2
        assert "unknown universe" in text
        code, text = self._run(["loadtest", "--duration", "0"])
        assert code == 2
        code, text = self._run(["loadtest", "--deadline-ms", "-1"])
        assert code == 2
        code, text = self._run([
            "loadtest", "--url", "http://127.0.0.1:1",
            "--fault-plan", '{"seed": 1}'])
        assert code == 2
        assert "--fault-plan" in text
