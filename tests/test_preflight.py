"""Query pre-flight analysis (RA02x) and its surfacing points.

Covers the analyzer itself, the engine short-circuit (a proven-empty
query finishes with zero expansion steps), ``CompletionSession.analyze``,
the REPL's ``:lint``, and the ``repro lint`` CLI with its exit codes.
"""

from __future__ import annotations

import json

import pytest

from repro import CompletionEngine, Context, TypeSystem
from repro.__main__ import (
    EXIT_LINT_ERRORS,
    EXIT_OK,
    EXIT_USAGE,
    main as cli_main,
)
from repro.analysis import preflight_query
from repro.codemodel import TypeDef
from repro.engine.budget import QueryBudget
from repro.engine.completer import EngineConfig, QueryStatus
from repro.ide.repl import run_repl
from repro.ide.session import CompletionSession
from repro.ide.workspace import Workspace
from repro.lang.parser import parse


def codes(report):
    return [d.code for d in report.diagnostics]


class TestPreflightUnit:
    def test_void_hole_is_unsatisfiable(self, paint, paint_engine,
                                        paint_context):
        pe = parse("?", paint_context)
        report = preflight_query(paint_engine, pe, paint_context,
                                 expected_type=paint.ts.void_type)
        assert report.unsatisfiable
        assert "RA020" in codes(report)
        assert report.has_errors

    def test_plain_hole_is_satisfiable(self, paint_engine, paint_context):
        pe = parse("?", paint_context)
        report = preflight_query(paint_engine, pe, paint_context)
        assert not report.unsatisfiable
        assert "RA020" not in codes(report)

    def test_hole_without_roots_is_unsatisfiable(self):
        ts = TypeSystem()
        engine = CompletionEngine(ts)
        context = Context(ts)
        report = preflight_query(engine, parse("?", context), context)
        assert report.unsatisfiable
        [finding] = [d for d in report.diagnostics if d.code == "RA020"]
        assert "no chain roots" in finding.message

    def test_unknown_scope_type_is_ra021(self, paint, paint_engine):
        stray = TypeDef("Stray", "Nowhere")  # not registered in paint
        context = Context(paint.ts, locals={"ghost": stray})
        report = preflight_query(paint_engine, parse("?", context), context)
        assert "RA021" in codes(report)
        [finding] = [d for d in report.diagnostics if d.code == "RA021"]
        assert finding.location == "ghost"
        # advisory only: an odd scope does not prove emptiness
        assert not report.unsatisfiable or "RA020" in codes(report)

    def test_dead_ranking_terms_reported(self, paint_engine, paint_context):
        # no enclosing type and not a comparison: both terms are inert
        report = preflight_query(paint_engine, parse("?", paint_context),
                                 paint_context)
        locations = [d.location for d in report.diagnostics
                     if d.code == "RA024"]
        assert "ranking.matching_name" in locations
        assert "ranking.in_scope_static" in locations

    def test_comparison_keeps_matching_name_alive(self, paint_engine,
                                                  paint_context):
        report = preflight_query(paint_engine,
                                 parse("img == ?", paint_context),
                                 paint_context)
        assert all(d.location != "ranking.matching_name"
                   for d in report.diagnostics)

    def test_void_suffix_is_unsatisfiable(self, paint, paint_engine,
                                          paint_context):
        pe = parse("img.?*m", paint_context)
        report = preflight_query(paint_engine, pe, paint_context,
                                 expected_type=paint.ts.void_type)
        assert report.unsatisfiable
        assert "RA020" in codes(report)

    def test_impossible_keyword_is_ra023(self, paint_engine, paint_context):
        pe = parse("?({img})", paint_context)
        report = preflight_query(paint_engine, pe, paint_context,
                                 keyword="zzzznosuchmethod")
        assert report.unsatisfiable
        assert "RA023" in codes(report)

    def test_unknown_call_normally_satisfiable(self, paint_engine,
                                               paint_context):
        pe = parse("?({img})", paint_context)
        report = preflight_query(paint_engine, pe, paint_context)
        assert not report.unsatisfiable

    def test_assignment_never_proven_empty(self, paint, paint_engine,
                                           paint_context):
        pe = parse("? := ?", paint_context)
        report = preflight_query(paint_engine, pe, paint_context,
                                 expected_type=paint.ts.void_type)
        assert not report.unsatisfiable


class TestEngineShortCircuit:
    def test_unsatisfiable_query_takes_zero_steps(self, paint, paint_engine,
                                                  paint_context):
        budget = QueryBudget(max_steps=500)
        outcome = paint_engine.complete_query(
            parse("?", paint_context), paint_context,
            expected_type=paint.ts.void_type, budget=budget,
        )
        assert outcome.status is QueryStatus.UNSATISFIABLE
        assert outcome.steps == 0
        assert outcome.completions == []
        assert outcome.preflight_report is not None
        assert "RA020" in [d.code for d in outcome.preflight_report.diagnostics]

    def test_short_circuit_without_budget(self, paint, paint_engine,
                                          paint_context):
        outcome = paint_engine.complete_query(
            parse("?", paint_context), paint_context,
            expected_type=paint.ts.void_type,
        )
        assert outcome.status is QueryStatus.UNSATISFIABLE and outcome.steps == 0

    def test_preflight_can_be_disabled(self, paint, paint_context):
        engine = CompletionEngine(paint.ts,
                                  config=EngineConfig(preflight=False))
        outcome = engine.complete_query(
            parse("?", paint_context), paint_context,
            expected_type=paint.ts.void_type,
            budget=QueryBudget(max_steps=500),
        )
        # the search runs (and finds nothing) instead of being skipped
        assert outcome.status is not QueryStatus.UNSATISFIABLE
        assert outcome.steps > 0
        assert outcome.completions == []

    def test_satisfiable_query_is_unaffected(self, paint_engine,
                                             paint_context):
        outcome = paint_engine.complete_query(
            parse("?({img, size})", paint_context), paint_context,
        )
        assert outcome.status is not QueryStatus.UNSATISFIABLE
        assert outcome.preflight_report is None
        assert outcome.completions


class TestSessionAnalyze:
    def test_parse_error_becomes_ra022(self):
        session = CompletionSession(Workspace.builtin("paint"))
        report = session.analyze("@@")
        [finding] = report.diagnostics
        assert finding.code == "RA022"
        assert finding.span is not None
        assert not report.unsatisfiable

    def test_expected_type_flows_into_analysis(self):
        session = CompletionSession(Workspace.builtin("paint"))
        session.set_expected("void")
        report = session.analyze("?")
        assert report.unsatisfiable
        assert "RA020" in codes(report)

    def test_clean_query_has_no_errors(self):
        session = CompletionSession(Workspace.builtin("paint"))
        session.declare("img", "PaintDotNet.Document")
        report = session.analyze("img.?m")
        assert not report.unsatisfiable
        assert not report.has_errors


class TestReplLint:
    def run(self, lines):
        output = []
        run_repl(Workspace.builtin("paint"), lines, output.append)
        return "\n".join(output)

    def test_lint_universe(self):
        text = self.run([":lint"])
        assert "RA005" in text  # paint has known orphan infos

    def test_lint_query(self):
        text = self.run([":let img PaintDotNet.Document", ":lint img.?m"])
        assert "RA024" in text or "(no findings)" in text

    def test_lint_parse_error(self):
        text = self.run([":lint @@"])
        assert "RA022" in text


class TestCliLint:
    def run(self, argv):
        output = []
        code = cli_main(argv, write=output.append)
        return code, "\n".join(output)

    def test_clean_universe_exits_ok(self):
        code, text = self.run(["lint", "--universe", "paint"])
        assert code == EXIT_OK
        assert "error" not in text.split("RA")[0]

    def test_json_payload_shape(self):
        code, text = self.run(["lint", "--universe", "paint", "--json"])
        assert code == EXIT_OK
        payload = json.loads(text)
        assert payload["universe"] == "paintdotnet"
        assert set(payload["summary"]) == {"error", "warning", "info"}
        for entry in payload["diagnostics"]:
            assert entry["code"].startswith("RA")
            assert entry["severity"] in ("error", "warning", "info")

    def test_sanitize_flag(self):
        code, _text = self.run(
            ["lint", "--universe", "geometry", "--sanitize"])
        assert code == EXIT_OK

    def test_unsatisfiable_query_exits_nonzero(self):
        code, text = self.run([
            "lint", "--universe", "paint", "--query", "?",
            "--expect", "void",
        ])
        assert code == EXIT_LINT_ERRORS
        assert "RA020" in text

    def test_parse_error_exits_nonzero(self):
        code, text = self.run(
            ["lint", "--universe", "paint", "--query", "@@"])
        assert code == EXIT_LINT_ERRORS
        assert "RA022" in text

    def test_unknown_let_type_is_ra021(self):
        code, text = self.run([
            "lint", "--universe", "paint", "--query", "?",
            "--let", "x=No.Such.Type",
        ])
        assert code == EXIT_LINT_ERRORS
        assert "RA021" in text

    def test_missing_source_file_is_usage_error(self, tmp_path):
        code, text = self.run(
            ["lint", "--source", str(tmp_path / "missing.cs")])
        assert code == EXIT_USAGE
        assert "error" in text


class TestCliUnknownUniverse:
    @pytest.mark.parametrize("argv", [
        ["lint", "--universe", "nope"],
        ["complete", "--universe", "nope", "?"],
        ["dump-universe", "--universe", "nope", "-o", "/dev/null"],
    ])
    def test_exit_usage_with_one_line_error(self, argv):
        output = []
        code = cli_main(argv, write=output.append)
        assert code == EXIT_USAGE
        [line] = output
        assert line.startswith("error: unknown universe 'nope'")
        for key in sorted(Workspace.BUILTIN):
            assert key in line
