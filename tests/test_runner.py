"""Tests for the bundled evaluation runner and its CLI wiring."""

import pytest

from repro.eval.persistence import compare_runs
from repro.eval.runner import ResultBundle


@pytest.fixture(scope="module")
def bundle(tiny_eval):
    return tiny_eval[0]


class TestRunAll:
    def test_all_families_populated(self, bundle):
        assert bundle.methods
        assert bundle.arguments
        assert bundle.assignments
        # comparisons may be sparse but the family list exists
        assert isinstance(bundle.comparisons, list)

    def test_save_load_round_trip(self, bundle, tmp_path):
        path = tmp_path / "bundle.json"
        bundle.save(str(path))
        loaded = ResultBundle.load(str(path))
        assert len(loaded.methods) == len(bundle.methods)
        assert loaded.methods[0].best_rank == bundle.methods[0].best_rank

    def test_self_comparison_is_stable(self, bundle):
        report = compare_runs(bundle.families(), bundle.families())
        assert all(
            not deltas.get("regressed") for deltas in report.values()
        )

    def test_sections_populated(self, bundle):
        assert bundle.table2.columns[0] == "All"
        assert len(bundle.table2.columns) == 15
        assert list(bundle.top1.arms) == ["All", "-t", "-a", "-at", "+d"]
        assert bundle.reachability.project == "Tiny"
        assert bundle.reachability.identical
        assert list(bundle.abstypes.arms) == ["exclude", "full", "none"]

    def test_sections_show_the_papers_sensitivities(self, bundle):
        """Type distance carries method prediction (visible at top-1),
        depth carries argument prediction, and abstract types never
        cost more than noise."""
        grid = bundle.table2
        top1, abstypes = bundle.top1.arms, bundle.abstypes.arms
        methods, arguments = ("Methods", "All"), ("Arguments", "Normal")
        assert grid.top(methods, "All") >= grid.top(methods, "-at") - 0.05
        assert top1["All"] > top1["-at"]
        assert grid.top(arguments, "+d") >= grid.top(arguments, "+n")
        assert grid.top(arguments, "All") >= grid.top(arguments, "-d") + 0.1
        assert abstypes["exclude"] >= abstypes["none"] - 0.05
        assert abstypes["full"] >= abstypes["exclude"] - 0.05

    def test_cli_save_and_compare(self, cli_eval):
        """The shared CLI run saved its families and compared them with
        a baseline of the same families: every verdict is stable."""
        assert cli_eval.code == 0
        assert cli_eval.saved.exists()
        text = "\n".join(cli_eval.output)
        verdicts = {line.split()[0]: line.split()[-1]
                    for line in text.splitlines()[-4:]}
        assert "family" in text
        assert verdicts == {family: "stable" for family in
                            ("arguments", "assignments", "comparisons",
                             "methods")}
