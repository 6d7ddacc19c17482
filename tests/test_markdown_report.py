"""Tests for the evaluation report renderer and its CLI wiring."""

import json

import pytest

from repro.eval import render_report
from repro.eval.runner import ResultBundle
from repro.obs import validate_runlog_text

SECTION_HEADINGS = [
    "## Table 2 — ranking-term sensitivity (top 20)",
    "## Ablation — methods at top-1",
    "## Ablation — reachability pruning",
    "## Ablation — abstract types",
]


@pytest.fixture(scope="module")
def report(tiny_eval, tiny_project):
    bundle, run_log = tiny_eval
    return render_report(bundle, [tiny_project], run_log,
                         title="Tiny report")


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
            *SECTION_HEADINGS,
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


class TestCliWiring:
    def test_eval_markdown_writes_file(self, cli_eval):
        assert cli_eval.code == 0
        assert "## Table 1" in cli_eval.text
        assert "WiX" in cli_eval.text

    def test_one_family_pass_feeds_report_log_and_save(self, cli_eval):
        text = cli_eval.text
        assert "## Run manifest" in text
        assert "| config signature | None |" not in text
        assert "| seed | 3 |" in text
        phase_rows = [line for line in text.splitlines()
                      if line.startswith("| eval/")]
        assert [row.split(" | ")[0] for row in phase_rows] == [
            "| eval/methods", "| eval/arguments", "| eval/assignments",
            "| eval/comparisons", "| eval/table2", "| eval/ablation-top1",
            "| eval/ablation-reachability", "| eval/ablation-abstypes"]
        log_text = cli_eval.log.read_text()
        assert validate_runlog_text(log_text) == []
        manifest = json.loads(log_text.splitlines()[0])
        assert manifest["config_signature"] is not None
        assert ResultBundle.load(str(cli_eval.saved)).methods

    def test_sections_render_at_tiny_caps(self, cli_eval):
        """Table 2 and the three ablations follow Figure 16 and state
        the caps they ran at."""
        text = cli_eval.text
        positions = [text.index(heading) for heading in
                     ["## Figure 16"] + SECTION_HEADINGS + ["## Query latency"]]
        assert positions == sorted(positions)
        sections = text.split("## Figure 16")[1].split("## Query latency")[0]
        assert sections.count("Caps: scan depth") == 4
        assert ("first sites per project: calls 3, argument positions 1, "
                "assignments 2, comparisons 2") in sections
        assert "argument queries of WiX" in sections
        for label in ("| All |", "| -t |", "| -a |", "| -at |", "| +d |"):
            assert label in sections.split("## Ablation — methods at top-1")[1]

    def test_reachability_pruning_changes_no_rank(self, cli_eval):
        """Pruning is an optimisation: the section's two arms rank every
        WiX argument query the same."""
        assert ("Rank lists equal with and without the index: yes."
                in cli_eval.text)
