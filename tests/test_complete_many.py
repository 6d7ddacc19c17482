"""Batched execution: ``complete_many`` and its IDE/CLI wiring.

A batch warms the indexes once and shares the cross-query cache, so a
repeated query inside one batch must cost fewer expansion steps than
running it cold twice — the headline property of the performance layer
(docs/PERFORMANCE.md).
"""

from repro import CompletionEngine, EngineConfig, parse
from repro.engine.completer import CompletionRequest
from repro.ide.session import CompletionSession
from repro.ide.workspace import Workspace


def _paint():
    workspace = Workspace.builtin("paint")
    context = workspace.context(locals={
        "img": workspace.resolve_type("PaintDotNet.Document"),
        "size": workspace.resolve_type("System.Drawing.Size"),
    })
    return workspace, context


def _requests(context, sources):
    return [
        CompletionRequest(pe=parse(source, context), context=context)
        for source in sources
    ]


def _keys(outcome):
    return [(c.score, c.expr.key()) for c in outcome.completions]


class TestCompleteMany:
    def test_batch_matches_sequential_queries(self):
        workspace, context = _paint()
        sources = ["?({img, size})", "img.?*f", "size := ?"]
        batch = workspace.complete_many(_requests(context, sources))

        fresh = CompletionEngine(
            workspace.ts, config=EngineConfig(enable_cache=False))
        for source, outcome in zip(sources, batch):
            pe = parse(source, context)
            assert _keys(outcome) == _keys(
                fresh.complete_query(pe, context))

    def test_repeated_query_in_batch_beats_two_cold_runs(self):
        """The ISSUE's acceptance property: a two-query batch of the same
        query performs strictly fewer expansion steps than two cold
        runs."""
        workspace, context = _paint()
        source = "?({img, size})"

        cold_engine = CompletionEngine(
            workspace.ts, config=EngineConfig(enable_cache=False))
        pe = parse(source, context)
        cold_steps = sum(
            cold_engine.complete_query(pe, context).steps for _ in range(2))

        batch = workspace.complete_many(_requests(context, [source, source]))
        batch_steps = sum(outcome.steps for outcome in batch)

        assert batch_steps < cold_steps
        assert _keys(batch[0]) == _keys(batch[1])
        assert batch[1].cached
        assert batch[1].steps == 0

    def test_budget_parameters_build_fresh_budgets(self):
        workspace, context = _paint()
        request = CompletionRequest(
            pe=parse("?({img, size})", context), context=context,
            max_steps=5,
        )
        outcome, = workspace.complete_many([request])
        assert outcome.status.truncation == "budget"
        assert outcome.steps <= 6

    def test_empty_batch(self):
        workspace, _context = _paint()
        assert workspace.complete_many([]) == []


class TestSessionQueryMany:
    def test_query_many_matches_query(self):
        workspace, _ = _paint()
        session = CompletionSession(workspace)
        session.declare("img", "PaintDotNet.Document")
        sources = ["?({img})", "img.?*f"]
        records = session.complete_many(sources)

        single = CompletionSession(
            Workspace.builtin("paint", config=EngineConfig(enable_cache=False))
        )
        single.declare("img", "PaintDotNet.Document")
        for source, record in zip(sources, records):
            expected = single.complete(source)
            assert [s.text for s in record.suggestions] == \
                [s.text for s in expected.suggestions]

    def test_query_many_reports_parse_errors_in_place(self):
        workspace, _ = _paint()
        session = CompletionSession(workspace)
        records = session.complete_many(["?", "((", "?"])
        assert records[0].error is None
        assert records[1].error is not None
        assert records[2].error is None
        assert len(session.history) == 3

    def test_query_many_extends_history_in_order(self):
        workspace, _ = _paint()
        session = CompletionSession(workspace)
        session.complete_many(["?", "?"])
        assert [record.source for record in session.history] == ["?", "?"]


class TestCliBatch:
    def _main(self, argv, lines):
        from repro.__main__ import main

        return main(argv, write=lines.append)

    def test_multiple_queries_one_invocation(self):
        lines = []
        code = self._main(
            ["complete", "--universe", "paint",
             "--let", "img=PaintDotNet.Document", "?({img})", "img.?*f"],
            lines)
        assert code == 0
        text = "\n".join(lines)
        assert "pe> ?({img})" in text
        assert "pe> img.?*f" in text

    def test_single_query_keeps_plain_output(self):
        lines = []
        code = self._main(
            ["complete", "--universe", "paint", "?"], lines)
        assert code == 0
        assert not any(line.startswith("pe>") for line in lines)

    def test_parse_error_in_batch_exits_one(self):
        lines = []
        code = self._main(
            ["complete", "--universe", "paint", "?", "(("], lines)
        assert code == 1
        assert any("parse error" in line for line in lines)
