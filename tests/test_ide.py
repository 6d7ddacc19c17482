"""Tests for the interactive layer: workspace, session, REPL, CLI."""

import re

import pytest

from repro.__main__ import main as cli_main
from repro.ide import (
    AutoCompleteStatus,
    CompletionSession,
    Workspace,
    holes_for_unfilled,
    run_repl,
)
from repro.lang import Assign, Call, Compare, FieldAccess, Hole, Unfilled, Var


class TestWorkspace:
    def test_builtin_universes(self):
        for key in ("paint", "geometry", "bcl"):
            workspace = Workspace.builtin(key)
            assert workspace.ts.all_types()

    def test_unknown_universe(self):
        with pytest.raises(ValueError):
            Workspace.builtin("nope")

    def test_resolve_type_full_name(self):
        workspace = Workspace.builtin("paint")
        assert workspace.resolve_type("PaintDotNet.Document").name == "Document"

    def test_resolve_type_simple_name(self):
        workspace = Workspace.builtin("paint")
        assert workspace.resolve_type("Document").name == "Document"

    def test_resolve_primitive(self):
        workspace = Workspace.builtin("bcl")
        assert workspace.resolve_type("int").name == "int"

    def test_resolve_unknown_raises(self):
        workspace = Workspace.builtin("bcl")
        with pytest.raises(ValueError):
            workspace.resolve_type("Flux.Capacitor")

    def test_corpus_workspace_has_oracle(self, tiny_project):
        workspace = Workspace.corpus_project(tiny_project)
        impl = tiny_project.impls[0]
        assert workspace.oracle_for(impl) is not None
        assert workspace.impls()


class TestSession:
    @pytest.fixture
    def session(self):
        workspace = Workspace.builtin("paint")
        session = CompletionSession(workspace)
        session.declare("img", "Document")
        session.declare("size", "System.Drawing.Size")
        return session

    def test_query_returns_ranked_suggestions(self, session):
        record = session.complete("?({img, size})")
        assert record.error is None
        assert record.suggestions[0].rank == 1
        assert "ResizeDocument" in record.suggestions[0].text

    def test_parse_error_is_captured(self, session):
        record = session.complete("img @@@")
        assert record.error is not None
        assert record.suggestions == []

    def test_history_accumulates(self, session):
        session.complete("?({img})")
        session.complete("img.?m")
        assert len(session.history) == 2
        assert session.last().source == "img.?m"

    def test_accept_turns_zeros_into_holes(self, session):
        session.complete("?({img, size})")
        refined = session.accept(1)
        assert refined is not None
        assert "0" not in refined
        assert "?" in refined
        # the refined source must itself be a valid query
        record = session.complete(refined)
        assert record.error is None
        assert record.suggestions

    def test_accept_out_of_range(self, session):
        session.complete("?({img})")
        assert session.accept(999) is None

    def test_accept_with_empty_history(self, session):
        assert session.accept(1) is None

    def test_accept_nonpositive_rank(self, session):
        session.complete("?({img})")
        assert session.accept(0) is None
        assert session.accept(-3) is None

    def test_accept_after_errored_query(self, session):
        session.complete("?({img})")
        session.complete("img @@@")  # the *last* query has no suggestions
        assert session.accept(1) is None

    def test_expected_type_filter(self, session):
        session.set_expected("Document")
        record = session.complete("?({img, size})")
        workspace = session.workspace
        doc = workspace.resolve_type("Document")
        for suggestion in record.suggestions:
            assert workspace.ts.implicitly_converts(suggestion.expr.type, doc)

    def test_keyword_filter(self, session):
        session.keyword = "resize"
        record = session.complete("?({img, size})")
        assert record.suggestions
        assert all("Resize" in s.text for s in record.suggestions)


class TestAutoComplete:
    @pytest.fixture
    def session(self):
        workspace = Workspace.builtin("paint")
        session = CompletionSession(workspace)
        session.declare("img", "Document")
        session.declare("size", "System.Drawing.Size")
        return session

    def test_converges_to_concrete_expression(self, session):
        final = session.auto_complete("?({img, size})")
        assert final is not None
        assert "0" not in final and "?" not in final
        # the final text is itself parseable and complete
        record = session.complete(final)
        assert record.error is None

    def test_already_concrete_query(self, session):
        final = session.auto_complete("img.Flatten()")
        assert final == "img.Flatten()"

    def test_unparseable_returns_none(self, session):
        assert session.auto_complete("@@@") is None

    def test_iteration_budget(self, session):
        assert session.auto_complete("?({img, size})", max_iterations=0) is None

    def test_status_converged(self, session):
        assert session.auto_complete("?({img, size})") is not None
        assert session.auto_status is AutoCompleteStatus.CONVERGED

    def test_status_parse_error(self, session):
        assert session.auto_complete("@@@") is None
        assert session.auto_status is AutoCompleteStatus.PARSE_ERROR

    def test_status_no_suggestions(self, session):
        session.keyword = "zzz_nothing_matches"
        assert session.auto_complete("?({img, size})") is None
        assert session.auto_status is AutoCompleteStatus.NO_SUGGESTIONS

    def test_status_no_convergence(self, session):
        result = session.auto_complete("?({img, size})", max_iterations=0)
        assert result is None
        assert session.auto_status is AutoCompleteStatus.NO_CONVERGENCE


class TestHolesForUnfilled:
    def test_rewrites_nested_zeros(self, paint):
        resize = paint.resize_document
        call = Call(
            resize,
            (Var("img", paint.document), Var("size", paint.size),
             Unfilled(), Unfilled()),
        )
        refined = holes_for_unfilled(call)
        assert isinstance(refined.args[2], Hole)
        assert isinstance(refined.args[3], Hole)
        assert refined.args[0] == call.args[0]

    def test_rewrites_inside_assignment(self, paint):
        resize = paint.resize_document
        inner = Call(resize, (Unfilled(),) * resize.arity)
        assign = Assign(Var("img", paint.document), inner)
        refined = holes_for_unfilled(assign)
        assert isinstance(refined, Assign)
        assert refined.lhs == assign.lhs
        assert all(isinstance(arg, Hole) for arg in refined.rhs.args)

    def test_rewrites_both_sides_of_comparison(self, paint):
        width = next(
            member
            for member in paint.ts.instance_lookups(paint.document)
            if member.name == "Width"
        )
        lhs = FieldAccess(Unfilled(), width)
        compare = Compare(lhs, Unfilled(), "==")
        refined = holes_for_unfilled(compare)
        assert isinstance(refined, Compare)
        assert isinstance(refined.lhs.base, Hole)
        assert refined.lhs.member is width
        assert isinstance(refined.rhs, Hole)
        assert refined.op == "=="

    def test_leaves_concrete_nodes_alone(self, paint):
        expr = Var("img", paint.document)
        assert holes_for_unfilled(expr) is expr


class TestRepl:
    def drive(self, lines, universe="paint"):
        output = []
        workspace = Workspace.builtin(universe)
        session = run_repl(workspace, lines, output.append)
        return session, "\n".join(output)

    def test_full_session(self):
        session, out = self.drive([
            ":let img Document",
            ":let size Size",
            "?({img, size})",
            ":quit",
        ])
        assert "ResizeDocument" in out
        assert "bye" in out

    def test_help_and_locals(self):
        _session, out = self.drive([
            ":help",
            ":let img Document",
            ":locals",
        ])
        assert ":let <name> <Type>" in out
        assert "img: PaintDotNet.Document" in out

    def test_bad_command_is_reported(self):
        _session, out = self.drive([":frobnicate"])
        assert "unrecognised" in out

    def test_bad_type_is_reported(self):
        _session, out = self.drive([":let x Bogus.Type"])
        assert "error:" in out

    def test_accept_flow(self):
        _session, out = self.drive([
            ":let img Document",
            ":let size Size",
            "?({img, size})",
            ":accept 1",
        ])
        assert "next query:" in out

    def test_explain(self):
        _session, out = self.drive([
            ":let img Document",
            ":let size Size",
            "?({img, size})",
            ":explain 1",
        ])
        assert "total score" in out
        assert "type_distance" in out or "depth" in out

    def test_explaining_records_no_query(self):
        _session, out = self.drive([
            ":let img Document",
            "img.?m",
            ":explain 1",
            ":stats",
        ])
        assert re.search(r"^ +queries +1$", out, re.MULTILINE)

    def test_explain_without_query(self):
        _session, out = self.drive([":explain 1"])
        assert "nothing to explain" in out

    def test_explain_bad_rank(self):
        _session, out = self.drive([
            ":let img Document",
            "?({img})",
            ":explain 999",
        ])
        assert "no suggestion at rank" in out

    def test_n_and_expect(self):
        session, out = self.drive([
            ":let img Document",
            ":n 3",
            ":expect void",
            "?({img})",
        ])
        assert session.n == 3
        assert "expect: void" in out

    def test_cache_stats_after_repeat_query(self):
        _session, out = self.drive([
            ":let img Document",
            "?({img})",
            "?({img})",
            ":cache",
        ])
        assert "cross-query cache:" in out
        assert "hit rate" in out

    def test_cache_clear_and_toggle(self):
        session, out = self.drive([
            ":let img Document",
            "?({img})",
            ":cache clear",
            ":cache off",
            ":cache",
            ":cache on",
        ])
        assert "cache cleared" in out
        assert "cache off" in out
        assert "cache on" in out
        assert session.workspace.engine.config.enable_cache

    def test_cache_bad_action(self):
        _session, out = self.drive([":cache purge"])
        assert "usage: :cache" in out

    def test_stats_prints_the_metrics_table(self):
        from repro.obs.expo import render_metrics_table

        session, out = self.drive([":let img Document", "img.?m",
                                   ":stats"])
        table = "\n".join(render_metrics_table(session.workspace.metrics()))
        assert out.endswith(table)
        assert "queries" in table

    def test_stats_before_any_query(self):
        _session, out = self.drive([":stats"])
        assert "(no metrics recorded)" in out


class TestCliReplParity:
    """The CLI and the REPL render one query the same way: both call the
    same scope builder, session and renderer."""

    def repl(self, lines):
        output = []
        run_repl(Workspace.builtin("paint"), lines, output.append)
        return output

    def cli(self, argv):
        output = []
        code = cli_main(argv, write=output.append)
        return code, output

    def test_complete_renders_the_same_suggestions(self):
        code, cli_lines = self.cli([
            "complete", "--universe", "paint", "--let", "img=Document",
            "img.?m"])
        assert code == 0
        repl_lines = self.repl([":let img Document", "img.?m"])
        assert repl_lines[1] == "local img: PaintDotNet.Document"
        assert repl_lines[2:] == cli_lines
        assert cli_lines[0].startswith("  1. (score")

    def test_lint_query_renders_the_same_findings(self):
        _code, cli_lines = self.cli([
            "lint", "--universe", "paint", "--query", "img.?m",
            "--let", "img=Document"])
        output = self.repl([":let img Document", ":lint"])
        universe = output[2:]
        output = self.repl([":let img Document", ":lint img.?m"])
        query = [line for line in output[2:] if line != "(no findings)"]
        assert sorted(cli_lines) == sorted(universe + query)
        assert any(line.startswith("RA024") for line in query)


class TestReplLoadEnter:
    SOURCE = """
    namespace Shop {
        class Item {
            string Sku;
            int Price;
        }
        class Cart {
            Item Newest;
            static int Rate(Item item);
            void Scan(Item item) {
                int total = Shop.Cart.Rate(item);
                this.Newest = item;
            }
        }
    }
    """

    def drive(self, lines):
        output = []
        workspace = Workspace.builtin("bcl")
        session = run_repl(workspace, lines, output.append)
        return session, "\n".join(output)

    @pytest.fixture
    def source_file(self, tmp_path):
        path = tmp_path / "shop.cs"
        path.write_text(self.SOURCE)
        return str(path)

    def test_load_reports_shape(self, source_file):
        _session, out = self.drive([":load " + source_file])
        assert "method bodies" in out
        assert "loaded" in out

    def test_impls_lists_bodies(self, source_file):
        _session, out = self.drive([":load " + source_file, ":impls"])
        assert "Shop.Cart.Scan" in out

    def test_enter_sets_scope_and_queries_work(self, source_file):
        session, out = self.drive([
            ":load " + source_file,
            ":enter Scan",
            "?({item})",
        ])
        assert "entered Shop.Cart.Scan" in out
        assert "Rate" in out
        assert session.this_type.full_name == "Shop.Cart"

    def test_enter_unknown_method(self, source_file):
        _session, out = self.drive([":load " + source_file, ":enter Nope"])
        assert "no method body" in out

    def test_load_missing_file_reports_error(self):
        _session, out = self.drive([":load /does/not/exist.cs"])
        assert "error:" in out

    def test_impls_empty_universe(self):
        _session, out = self.drive([":impls"])
        assert "no method bodies" in out


class TestCli:
    def test_complete_subcommand(self):
        output = []
        code = cli_main(
            [
                "complete",
                "--universe", "paint",
                "--let", "img=Document",
                "--let", "size=System.Drawing.Size",
                "-n", "5",
                "?({img, size})",
            ],
            write=output.append,
        )
        assert code == 0
        assert any("ResizeDocument" in line for line in output)

    def test_complete_parse_error(self):
        output = []
        code = cli_main(
            ["complete", "--universe", "paint", "@@@"], write=output.append
        )
        assert code == 1

    def test_complete_bad_let(self):
        output = []
        code = cli_main(
            ["complete", "--let", "oops", "x"], write=output.append
        )
        assert code == 2

    def test_census_subcommand(self):
        output = []
        code = cli_main(["census", "--scale", "0.1"], write=output.append)
        assert code == 0
        text = "\n".join(output)
        assert "WiX" in text and "Totals" in text

    def test_complete_with_expect_and_keyword(self):
        output = []
        code = cli_main(
            [
                "complete", "--universe", "paint",
                "--let", "img=Document",
                "--expect", "Document",
                "--keyword", "flip",
                "?({img})",
            ],
            write=output.append,
        )
        assert code == 0
        assert any("FlipDocument" in line for line in output)
