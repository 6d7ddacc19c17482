"""The run-diff engine: phase-level regression attribution.

``diff_runs`` consumes two run logs (record lists with a leading
manifest) and must name the phase with the largest latency delta;
``repro diff`` refuses any other document with exit 2.
"""

import json

import pytest

from repro.obs import diff_runs, render_markdown
from repro.obs.diff import (
    PhaseDelta,
    load_run_artifact,
    parse_run_artifact,
    render_text,
)


def run_log_records(label, spans=None):
    manifest = {
        "kind": "run", "format": "repro-runlog", "version": 1,
        "label": label, "run_id": label + "-1-1", "git_sha": "abc",
        "config_signature": None, "universes": {}, "seed": None,
    }
    query = {
        "kind": "query", "source": "?", "t_ms": 1.0, "status": "ok",
        "elapsed_ms": 5.0, "steps": 10, "cached": False, "completions": 3,
    }
    if spans is not None:
        query["spans"] = spans
    return [manifest, query]


def spans(phases):
    """One traced query: a ``query`` root with one child span per phase
    (name -> ms), laid end to end."""
    total = sum(phases.values())
    records = [{"kind": "span", "span": 1, "parent": None, "name": "query",
                "start_ms": 0.0, "end_ms": total, "duration_ms": total,
                "counters": {}}]
    start = 0.0
    for number, (name, ms) in enumerate(phases.items(), start=2):
        records.append({"kind": "span", "span": number, "parent": 1,
                        "name": name, "start_ms": start,
                        "end_ms": start + ms, "duration_ms": ms,
                        "counters": {}})
        start += ms
    return records


class TestDiffRuns:
    def test_runlog_attributes_worst_phase(self):
        old = run_log_records("seed", spans({"expand:hole": 1.0, "dedup": 0.5}))
        new = run_log_records("pr", spans({"expand:hole": 3.5, "dedup": 0.6}))
        diff = diff_runs(old, new)
        assert diff.old_label == "seed" and diff.new_label == "pr"
        top = diff.top_regression
        assert top is not None
        assert top.name == "expand:hole"
        assert top.delta_ms == pytest.approx(2.5)
        assert "expand:hole" in diff.summary()

    def test_improvement_reports_no_regression(self):
        old = run_log_records("seed", spans({"dedup": 3.0}))
        new = run_log_records("pr", spans({"dedup": 1.0}))
        diff = diff_runs(old, new)
        assert diff.top_regression is None
        assert diff.summary() == "no phase regressed"

    def test_runlog_vs_runlog_uses_embedded_spans(self):
        old = run_log_records("old", spans({"expand:hole": 2.0, "dedup": 1.0}))
        new = run_log_records("new", spans({"expand:hole": 2.0, "dedup": 4.0}))
        diff = diff_runs(old, new)
        assert diff.old_queries == diff.new_queries == 1
        assert diff.top_regression.name == "dedup"
        assert diff.top_regression.delta_ms == pytest.approx(3.0)

    def test_untraced_run_log_is_noted(self):
        diff = diff_runs(run_log_records("a"), run_log_records("b"))
        assert diff.phases == []
        assert any("no span trees" in note for note in diff.notes)

    def test_one_sided_phases_cannot_attribute(self):
        # one side has a phase profile, the other has none: a delta table
        # would be all zero baselines, attributing the entire total to
        # the largest phase — say "cannot attribute" instead
        diff = diff_runs(run_log_records("seed"),
                         run_log_records("pr", spans({"dedup": 1.0})))
        assert diff.phases == []
        assert diff.top_regression is None
        assert any("cannot attribute" in note for note in diff.notes)

    def test_one_sided_runlog_cannot_attribute(self):
        # untraced run log vs. traced run log, both directions
        traced = run_log_records("traced", spans({"dedup": 1.0}))
        for old, new in ((run_log_records("old"), traced),
                         (traced, run_log_records("new"))):
            diff = diff_runs(old, new)
            assert diff.phases == []
            assert any("cannot attribute" in note for note in diff.notes)

    def test_rejects_unknown_artifact(self):
        loadtest = {"format": "repro-bench", "version": 1, "label": "x",
                    "workloads": []}
        for other in ({"format": "something-else"}, loadtest):
            with pytest.raises(ValueError, match="not a run artifact"):
                diff_runs(other, run_log_records("x"))

    def test_phase_delta_ratio_handles_zero_baseline(self):
        assert PhaseDelta("x", 0.0, 2.0).ratio == 0.0
        assert PhaseDelta("x", 2.0, 3.0).ratio == pytest.approx(0.5)


class TestArtifactLoading:
    def test_parse_sniffs_runlog_ndjson(self):
        text = "\n".join(
            json.dumps(record) for record in run_log_records("x")) + "\n"
        artifact = parse_run_artifact(text)
        assert artifact[0]["kind"] == "run"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_run_artifact("not json at all")
        with pytest.raises(ValueError):
            parse_run_artifact("")

    def test_load_prefixes_path_on_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="bad.json"):
            load_run_artifact(str(path))


class TestRendering:
    def test_text_and_markdown_agree_on_the_top_phase(self):
        old = run_log_records("seed", spans({"expand:hole": 1.0}))
        new = run_log_records("pr", spans({"expand:hole": 3.0}))
        diff = diff_runs(old, new)
        text = "\n".join(render_text(diff))
        markdown = render_markdown(diff)
        assert "top regressed phase: expand:hole" in text
        assert "top regressed phase: expand:hole" in markdown
        assert "## Phase deltas (worst first)" in markdown

    def test_markdown_growth_is_na_for_new_phases(self):
        diff = diff_runs(
            run_log_records("seed", spans({"dedup": 1.0})),
            run_log_records("pr", spans({"dedup": 1.2, "parse": 0.5})))
        markdown = render_markdown(diff)
        assert "| `parse` | 0.00 | 0.50 | +0.50 | n/a |" in markdown


class TestCli:
    def test_loadtest_document_is_refused(self, tmp_path):
        from repro.__main__ import main
        from repro.serve.loadgen import FORMAT, VERSION, save

        path = str(tmp_path / "BENCH_serve_x.json")
        save(path, {"format": FORMAT, "version": VERSION,
                    "label": "serve_x", "workloads": [
                        {"name": "serve/bcl", "p50_ms": 1.0,
                         "p95_ms": 2.0, "steps": 3}]})
        lines = []
        assert main(["diff", path, path], write=lines.append) == 2
        assert any("run log" in line for line in lines), lines
