"""Tests for the evaluation report renderer and its CLI wiring."""

import json

import pytest

from repro.__main__ import main as cli_main
from repro.eval import EvalConfig, render_report, run_all
from repro.eval.runner import ResultBundle
from repro.obs import RunLog, validate_runlog_text


@pytest.fixture(scope="module")
def report(request):
    tiny = request.getfixturevalue("tiny_project")
    cfg = EvalConfig(
        limit=25,
        max_calls_per_project=8,
        max_arguments_per_project=10,
        max_assignments_per_project=5,
        max_comparisons_per_project=4,
    )
    run_log = RunLog("tiny")
    bundle = run_all([tiny], cfg, run_log)
    return render_report(bundle, [tiny], run_log, title="Tiny report")


class TestReport:
    def test_contains_every_section(self, report):
        for heading in [
            "# Tiny report",
            "## Table 1",
            "## Figure 9",
            "## Figure 10",
            "## Figures 11 & 12",
            "## Figure 13",
            "## Figure 14",
            "## Figure 15",
            "## Figure 16",
            "## Query latency",
            "## Run manifest",
            "## Phase timings",
            "## Query rollup",
        ]:
            assert heading in report

    def test_tables_are_markdown(self, report):
        assert "| Program | # calls |" in report
        assert "|---|" in report

    def test_totals_row_present(self, report):
        assert "Totals" in report

    def test_percentages_rendered(self, report):
        assert "%" in report


@pytest.fixture
def tiny_caps(monkeypatch):
    """Shrink the capped config so a CLI run stays fast."""
    import repro.eval.experiments as exp

    real_init = exp.EvalConfig.__init__

    def tiny_init(self, **kwargs):
        kwargs["max_calls_per_project"] = 3
        kwargs["max_arguments_per_project"] = 4
        kwargs["max_assignments_per_project"] = 2
        kwargs["max_comparisons_per_project"] = 2
        kwargs.setdefault("limit", 20)
        real_init(self, **kwargs)

    monkeypatch.setattr(exp.EvalConfig, "__init__", tiny_init)


class TestCliWiring:
    def test_eval_markdown_writes_file(self, tmp_path, tiny_caps):
        target = tmp_path / "report.md"
        output = []
        code = cli_main(["eval", "-o", str(target)], write=output.append)
        assert code == 0
        text = target.read_text()
        assert "## Table 1" in text
        assert "WiX" in text

    def test_one_family_pass_feeds_report_log_and_save(
        self, tmp_path, tiny_caps
    ):
        report, log, saved = (tmp_path / "r.md", tmp_path / "r.ndjson",
                              tmp_path / "b.json")
        code = cli_main(
            ["eval", "-o", str(report), "--run-log", str(log),
             "--seed", "3", "--save", str(saved)],
            write=lambda line: None,
        )
        assert code == 0
        text = report.read_text()
        assert "## Run manifest" in text
        assert "| config signature | None |" not in text
        assert "| seed | 3 |" in text
        phase_rows = [line for line in text.splitlines()
                      if line.startswith("| eval/")]
        assert [row.split(" | ")[0] for row in phase_rows] == [
            "| eval/methods", "| eval/arguments", "| eval/assignments",
            "| eval/comparisons"]
        log_text = log.read_text()
        assert validate_runlog_text(log_text) == []
        manifest = json.loads(log_text.splitlines()[0])
        assert manifest["config_signature"] is not None
        assert ResultBundle.load(str(saved)).methods
