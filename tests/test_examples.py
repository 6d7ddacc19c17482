"""The example scripts must run end-to-end and print the expected shapes."""

import pathlib
import runpy
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name, capsys):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    assert "?({img, size})" in out
    assert "ResizeDocument" in out
    assert "Distance(point, ?)" in out
    assert ">=" in out


def test_api_discovery(capsys):
    out = run_example("api_discovery.py", capsys)
    assert "ResizeDocument found at rank 1" in out
    assert "Intellisense" in out
    assert "Prospector" in out


def test_source_project(capsys):
    out = run_example("source_project.py", capsys)
    assert "parsed" in out
    assert "Mail.Smtp.Send(original, target)" in out
    assert "copy.SizeBytes >= original.SizeBytes" in out


def test_abstract_types_demo(capsys):
    out = run_example("abstract_types_demo.py", capsys)
    assert "Directory.Exists(appLocation)" in out
    assert "WITH abstract types" in out
    assert "WITHOUT abstract types" in out


@pytest.mark.slow
def test_evaluation_demo(capsys, monkeypatch):
    """Run the evaluation demo with very small caps (smoke test)."""
    import repro.eval.experiments as exp

    real_init = exp.EvalConfig.__init__

    monkeypatch.setattr(
        sys, "argv", ["evaluation_demo.py"], raising=False
    )

    # shrink every config the demo builds (its families' and each
    # section's) to one site per family and project
    def tiny_init(self, **kwargs):
        kwargs.setdefault("limit", 25)
        kwargs["max_calls_per_project"] = 1
        kwargs["max_arguments_per_project"] = 1
        kwargs["max_assignments_per_project"] = 1
        kwargs["max_comparisons_per_project"] = 1
        real_init(self, **kwargs)

    monkeypatch.setattr(exp.EvalConfig, "__init__", tiny_init)
    out = run_example("evaluation_demo.py", capsys)
    assert "Figure 9" in out
    assert "Figure 16" in out
    assert "Table 2" in out
    assert "Totals" in out
