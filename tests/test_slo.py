"""SLO objectives, burn-rate math, and the offline report path.

Pins the multi-window convention from docs/OBSERVABILITY.md: a breach
needs sustained over-budget burn (shortest AND longest window), a blip
is only ``at_risk``; degraded/truncated 200s burn the error budget the
way the chaos contract demands; and the ``repro slo`` CLI replays a
server run log through the same math with breach → exit 1.
"""

import io
import json
import math

import pytest

from repro.__main__ import main as cli_main
from repro.obs.runlog import RunLog
from repro.obs.slo import (
    DEFAULT_SLO_SPEC,
    DEFAULT_WINDOWS_S,
    OFFLINE_WINDOWS_S,
    SLOObjectives,
    SLOTracker,
    render_slo_report,
    slo_from_run_log,
)


class TestObjectiveSpecs:
    def test_default_spec_parses(self):
        objectives = SLOObjectives.from_spec(DEFAULT_SLO_SPEC)
        assert objectives.p95_ms == 50.0
        assert objectives.error_rate == 0.01
        assert objectives.shed_rate == 0.20

    def test_subset_spec(self):
        objectives = SLOObjectives.from_spec("error_rate=0.05")
        assert objectives.error_rate == 0.05
        assert objectives.p95_ms is None
        assert objectives.shed_rate is None
        assert bool(objectives)

    @pytest.mark.parametrize("spec", [
        "", "bogus", "p95_ms", "p95_ms=fast", "uptime=0.99",
        "p95_ms=-1", "error_rate=0", "error_rate=1.5",
    ])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            SLOObjectives.from_spec(spec)

    def test_to_dict_drops_unset(self):
        assert SLOObjectives(p95_ms=10).to_dict() == {"p95_ms": 10.0}


def make_tracker(**objectives):
    clock = {"now": 0.0}
    tracker = SLOTracker(SLOObjectives(**objectives),
                         windows=(60.0, 300.0),
                         clock=lambda: clock["now"])
    return tracker, clock


class TestBurnMath:
    def test_error_burn_is_rate_over_budget(self):
        tracker, _ = make_tracker(error_rate=0.01)
        for i in range(98):
            tracker.record(1.0, t=float(i) / 10)
        tracker.record(1.0, error=True, t=9.8)
        tracker.record(1.0, error=True, t=9.9)
        report = tracker.evaluate(now=10.0)
        # 2/100 errors against a 1% budget: burning 2x
        assert report["windows"][0]["burn"]["errors"] == pytest.approx(2.0)
        assert report["verdicts"]["errors"] == "breach"
        assert report["ok"] is False

    def test_latency_burn_counts_fraction_over_target(self):
        tracker, _ = make_tracker(p95_ms=50)
        for i in range(90):
            tracker.record(10.0, t=float(i) / 100)
        for i in range(10):
            tracker.record(100.0, t=0.9 + i / 100)
        report = tracker.evaluate(now=1.0)
        # 10% over target against the 5% latency budget: 2x burn
        assert report["windows"][0]["burn"]["latency"] == pytest.approx(2.0)
        assert report["windows"][0]["p95_ms"] > 50

    def test_shed_requests_excluded_from_latency(self):
        tracker, _ = make_tracker(p95_ms=50, shed_rate=0.5)
        tracker.record(9999.0, shed=True, t=0.0)  # shed "latency" ignored
        tracker.record(1.0, t=0.1)
        report = tracker.evaluate(now=1.0)
        assert report["windows"][0]["burn"]["latency"] == 0.0
        assert report["windows"][0]["burn"]["shed"] == pytest.approx(1.0)
        assert report["verdicts"]["shed"] == "ok", "on budget is not over"

    def test_degraded_burns_error_budget(self):
        tracker, _ = make_tracker(error_rate=0.01)
        tracker.record(1.0, degraded=True, t=0.0)
        report = tracker.evaluate(now=1.0)
        window = report["windows"][0]
        assert window["errors"] == 1
        assert window["degraded"] == 1
        assert window["burn"]["errors"] > 1.0

    def test_old_events_age_out_of_short_windows(self):
        tracker, _ = make_tracker(error_rate=0.01)
        tracker.record(1.0, error=True, t=0.0)
        for i in range(50):
            tracker.record(1.0, t=200.0 + i)
        report = tracker.evaluate(now=250.0)
        short, long_ = report["windows"]
        assert short["window_s"] == 60.0
        assert short["errors"] == 0
        assert long_["errors"] == 1

    def test_blip_is_at_risk_not_breach(self):
        # one early error: out of the 60s window by evaluation time but
        # still inside 300s -> over budget in the long window only
        tracker, _ = make_tracker(error_rate=0.01)
        tracker.record(1.0, error=True, t=0.0)
        for i in range(20):
            tracker.record(1.0, t=100.0 + i)
        report = tracker.evaluate(now=121.0)
        assert report["verdicts"]["errors"] == "at_risk"
        assert report["ok"] is True, "at_risk does not fail healthz"

    def test_pruning_bounds_memory(self):
        tracker, _ = make_tracker(error_rate=0.5)
        for i in range(1000):
            tracker.record(1.0, t=float(i))
        assert len(tracker) < 1000
        # the retained horizon is the longest finite window
        assert len(tracker) >= 300

    def test_infinite_window_keeps_everything(self):
        tracker = SLOTracker(SLOObjectives(error_rate=0.5),
                             windows=OFFLINE_WINDOWS_S,
                             clock=lambda: 0.0)
        for i in range(1000):
            tracker.record(1.0, t=float(i))
        assert len(tracker) == 1000
        report = tracker.evaluate(now=999.0)
        assert report["windows"][-1]["window_s"] is None
        assert report["windows"][-1]["requests"] == 1000

    def test_rejects_bad_windows(self):
        with pytest.raises(ValueError):
            SLOTracker(SLOObjectives(p95_ms=1), windows=())
        with pytest.raises(ValueError):
            SLOTracker(SLOObjectives(p95_ms=1), windows=(0.0,))

    def test_default_windows_sorted_multi(self):
        assert DEFAULT_WINDOWS_S == (60.0, 300.0, 1800.0)
        assert math.isinf(OFFLINE_WINDOWS_S[-1])


def serve_log(outcomes):
    """A run log of synthetic server_request records; ``outcomes`` is a
    list of (t_ms, code, elapsed_ms, kwargs)."""
    log = RunLog("slo-unit", universes={"bcl": 1})
    for t_ms, code, elapsed_ms, kwargs in outcomes:
        log.server_request(
            endpoint="/v1/complete",
            status=200 if code == "ok" else 500,
            code=code, elapsed_ms=elapsed_ms, workspace="bcl", **kwargs)
        log.records()[-1]["t_ms"] = t_ms  # deterministic replay times
    return log.records()


class TestOfflineReplay:
    def test_clean_log_is_ok(self):
        records = serve_log(
            [(i * 100.0, "ok", 2.0, {}) for i in range(50)])
        report = slo_from_run_log(
            records, SLOObjectives.from_spec(DEFAULT_SLO_SPEC))
        assert report["server_requests"] == 50
        assert report["ok"] is True
        assert all(v == "ok" for v in report["verdicts"].values())

    def test_internal_errors_and_degraded_burn(self):
        outcomes = [(i * 10.0, "ok", 2.0, {}) for i in range(40)]
        outcomes.append((410.0, "internal_error", 2.0, {}))
        outcomes.append((420.0, "ok", 2.0, {"degraded": ["oracle"]}))
        outcomes.append((430.0, "ok", 2.0, {"truncated": 2}))
        report = slo_from_run_log(
            serve_log(outcomes), SLOObjectives(error_rate=0.01))
        window = report["windows"][-1]  # whole-log
        assert window["errors"] == 3
        assert window["degraded"] == 2
        assert report["verdicts"]["errors"] == "breach"
        assert report["ok"] is False

    def test_shed_records_burn_shed_budget_only(self):
        outcomes = [(i * 10.0, "ok", 2.0, {}) for i in range(8)]
        outcomes += [(100.0 + i, "shed", 0.1, {"shed": True})
                     for i in range(2)]
        report = slo_from_run_log(
            serve_log(outcomes),
            SLOObjectives(error_rate=0.5, shed_rate=0.1))
        window = report["windows"][-1]
        assert window["shed"] == 2
        assert window["errors"] == 0
        assert report["verdicts"]["shed"] == "breach"

    def test_non_server_records_ignored(self):
        log = RunLog("slo-unit", universes={"bcl": 1})
        log.event("warm", tenant="bcl")
        report = slo_from_run_log(
            log.records(), SLOObjectives(error_rate=0.5))
        assert report["server_requests"] == 0
        assert report["ok"] is True

    def test_custom_windows_override(self):
        records = serve_log([(0.0, "ok", 2.0, {})])
        report = slo_from_run_log(
            records, SLOObjectives(p95_ms=50), windows=(10.0,))
        assert [w["window_s"] for w in report["windows"]] == [10.0]

    def test_render_names_verdicts(self):
        records = serve_log([(0.0, "ok", 2.0, {})])
        report = slo_from_run_log(
            records, SLOObjectives.from_spec(DEFAULT_SLO_SPEC))
        lines = render_slo_report(report)
        assert "SLO report" in lines[0]
        assert any("overall: ok" in line for line in lines)
        assert any("errors: ok" in line for line in lines)


class TestCli:
    def _run(self, argv):
        out = io.StringIO()
        code = cli_main(argv, write=lambda line="": out.write(str(line) + "\n"))
        return code, out.getvalue()

    def _write_log(self, tmp_path, outcomes):
        path = tmp_path / "serve_bcl.ndjson"
        path.write_text("\n".join(
            json.dumps(record) for record in serve_log(outcomes)) + "\n")
        return str(path)

    def test_ok_log_exits_zero(self, tmp_path):
        path = self._write_log(
            tmp_path, [(i * 100.0, "ok", 2.0, {}) for i in range(20)])
        code, output = self._run(["slo", path])
        assert code == 0, output
        assert "overall: ok" in output

    def test_breach_exits_one_and_writes_report(self, tmp_path):
        outcomes = [(i * 10.0, "ok", 2.0, {}) for i in range(10)]
        outcomes.append((110.0, "internal_error", 2.0, {}))
        path = self._write_log(tmp_path, outcomes)
        report_path = tmp_path / "slo_report.json"
        code, output = self._run(["slo", path, "-o", str(report_path)])
        assert code == 1
        assert "BREACH" in output
        report = json.loads(report_path.read_text())
        assert report["ok"] is False
        assert report["server_requests"] == 11

    def test_json_output(self, tmp_path):
        path = self._write_log(tmp_path, [(0.0, "ok", 1.0, {})])
        code, output = self._run(["slo", path, "--json"])
        assert code == 0
        report = json.loads(output)
        assert report["server_requests"] == 1

    def test_custom_spec_and_windows(self, tmp_path):
        path = self._write_log(
            tmp_path, [(i * 10.0, "ok", 80.0, {}) for i in range(10)])
        code, output = self._run(
            ["slo", path, "--slo", "p95_ms=50", "--windows", "30,inf"])
        assert code == 1, "every request over target must breach"
        assert "latency: breach" in output

    def test_usage_errors(self, tmp_path):
        code, output = self._run(["slo", str(tmp_path / "missing.ndjson")])
        assert code == 2
        path = self._write_log(tmp_path, [(0.0, "ok", 1.0, {})])
        code, output = self._run(["slo", path, "--slo", "nope"])
        assert code == 2
        code, output = self._run(["slo", path, "--windows", "abc"])
        assert code == 2
        code, output = self._run(["slo", path, "--windows", "-5"])
        assert code == 2

    @pytest.mark.parametrize("document", ["loadtest", "garbage"])
    def test_non_run_log_is_refused_naming_the_path(self, tmp_path,
                                                     document):
        if document == "loadtest":
            from repro.serve.loadgen import FORMAT, VERSION, save

            path = str(tmp_path / "BENCH_serve_x.json")
            save(path, {"format": FORMAT, "version": VERSION,
                        "label": "serve_x", "workloads": [
                            {"name": "serve/bcl", "p50_ms": 1.0,
                             "p95_ms": 2.0, "steps": 3}]})
        else:
            path = str(tmp_path / "garbage.ndjson")
            with open(path, "wb") as handle:
                handle.write(b"\x00\xffnot json at all\n")
        code, output = self._run(["slo", path])
        assert code == 2
        assert output.startswith("error: {}: ".format(path)), output

    def test_log_without_server_requests_is_usage_error(self, tmp_path):
        log = RunLog("unit", universes={"bcl": 1})
        path = tmp_path / "engine.ndjson"
        path.write_text(log.to_ndjson())
        code, output = self._run(["slo", str(path)])
        assert code == 2
        assert "no server_request records" in output


class TestApiFacade:
    def test_slo_report_from_path_and_records(self, tmp_path):
        from repro.api import slo_report

        records = serve_log([(i * 10.0, "ok", 2.0, {}) for i in range(5)])
        path = tmp_path / "serve.ndjson"
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        from_path = slo_report(str(path))
        from_records = slo_report(records)
        assert from_path == from_records
        assert from_path["server_requests"] == 5
        custom = slo_report(records, slo="error_rate=0.5", windows=[60.0])
        assert custom["objectives"] == {"error_rate": 0.5}
