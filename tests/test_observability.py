"""Observability layer: tracing, attribution, metrics, and the facade.

The load-bearing guarantees:

* tracing is an *observer* — a traced query returns byte-identical
  rankings to an untraced one (differential tests over the golden
  batteries);
* every :class:`ScoreBreakdown` sums exactly to the ranked score for
  every golden completion in every builtin universe;
* cache-replayed outcomes still trace and explain (marked ``cached``).
"""

import io
import json

import pytest

from repro import (
    CompletionEngine,
    Context,
    EngineConfig,
    QueryStatus,
    TypeSystem,
    parse,
    to_source,
)
from repro.__main__ import main as cli_main
from repro.ide.session import CompletionSession
from repro.ide.workspace import Workspace
from repro.obs import (
    Metrics,
    NULL_TRACER,
    ScoreBreakdown,
    Tracer,
    ndjson_to_dicts,
    trace_to_ndjson,
    validate_trace_text,
)
from repro.engine.ranking import Ranker

from .test_golden_completions import GOLDEN_DIR, QUERIES, _universe

UNIVERSES = sorted(QUERIES)


def _golden(name):
    path = GOLDEN_DIR / "{}.json".format(name)
    return json.loads(path.read_text())["queries"]


# ---------------------------------------------------------------------------
# differential: tracing must not change results
# ---------------------------------------------------------------------------
class TestTracingDifferential:
    @pytest.mark.parametrize("name", UNIVERSES)
    def test_traced_rankings_identical(self, name):
        ts, context = _universe(name)
        plain = CompletionEngine(ts)
        traced = CompletionEngine(ts)
        for source in QUERIES[name]:
            pe = parse(source, context)
            want = plain.complete_query(pe, context, n=10)
            got = traced.complete_query(pe, context, n=10, trace=True)
            assert [(c.score, to_source(c.expr)) for c in want.completions] \
                == [(c.score, to_source(c.expr)) for c in got.completions], \
                "tracing changed the ranking of {!r} in {}".format(
                    source, name)
            assert got.trace, "traced outcome carries no spans"
            assert want.trace is None

    @pytest.mark.parametrize("name", UNIVERSES)
    def test_traced_matches_golden(self, name):
        """Traced output equals the checked-in golden top-10."""
        ts, context = _universe(name)
        engine = CompletionEngine(ts)
        golden = _golden(name)
        for source in QUERIES[name]:
            outcome = engine.complete_query(
                parse(source, context), context, n=10, trace=True)
            got = [(c.score, to_source(c.expr)) for c in outcome.completions]
            want = [(e["score"], e["text"]) for e in golden[source]]
            assert got == want


# ---------------------------------------------------------------------------
# span structure and the NDJSON format
# ---------------------------------------------------------------------------
class TestTraceStructure:
    @pytest.fixture(scope="class")
    def trace(self):
        ts, context = _universe("paint")
        engine = CompletionEngine(ts)
        outcome = engine.complete_query(
            parse("?", context), context, trace=True)
        return outcome.trace

    def test_single_root_named_query(self, trace):
        roots = [s for s in trace if s["parent"] is None]
        assert [s["name"] for s in roots] == ["query"]

    def test_all_parents_resolve(self, trace):
        ids = {s["span"] for s in trace}
        for span in trace:
            if span["parent"] is not None:
                assert span["parent"] in ids

    def test_expected_phases_present(self, trace):
        names = {s["name"] for s in trace}
        assert {"query", "preflight", "root_pool", "dedup",
                "collect"} <= names
        assert any(n.startswith("expand:") for n in names)

    def test_durations_nested_and_nonnegative(self, trace):
        by_id = {s["span"]: s for s in trace}
        for span in trace:
            assert span["duration_ms"] >= 0
            if span["parent"] is not None:
                parent = by_id[span["parent"]]
                assert span["start_ms"] >= parent["start_ms"]

    def test_ndjson_round_trip(self, trace):
        text = trace_to_ndjson(trace, universe="paint", query="?")
        records = ndjson_to_dicts(text)
        assert [r for r in records if r["kind"] == "span"] == trace
        header = json.loads(text.splitlines()[0])
        assert header["kind"] == "trace"
        assert header["universe"] == "paint"

    def test_ndjson_validates_against_schema(self, trace):
        text = trace_to_ndjson(trace, universe="paint")
        assert validate_trace_text(text) == []

    def test_validator_rejects_garbage(self):
        assert validate_trace_text("not json\n")
        # span line with a missing required field
        bad = trace_to_ndjson([{"kind": "span", "span": 0}])
        assert validate_trace_text(bad)

    def test_nesting_via_contextmanager(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                assert tracer.current().name == "inner"
            assert tracer.current() is outer
        tracer.finish()
        spans = tracer.to_dicts()
        inner = next(s for s in spans if s["name"] == "inner")
        outer = next(s for s in spans if s["name"] == "outer")
        assert inner["parent"] == outer["span"]

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("x") as span:
            span.add("items")
        assert NULL_TRACER.to_dicts() == []


# ---------------------------------------------------------------------------
# ranking attribution
# ---------------------------------------------------------------------------
class TestScoreBreakdown:
    @pytest.mark.parametrize("name", UNIVERSES)
    def test_terms_sum_to_golden_score(self, name):
        """Every golden completion's breakdown sums exactly to its
        checked-in score — attribution can never drift from ranking."""
        ts, context = _universe(name)
        engine = CompletionEngine(ts)
        golden = _golden(name)
        for source in QUERIES[name]:
            explained = engine.explain(parse(source, context), context, n=10)
            assert len(explained) == len(golden[source])
            for completion, entry in zip(explained, golden[source]):
                breakdown = completion.breakdown
                assert breakdown is not None
                assert breakdown.consistent, \
                    "terms {} sum to {}, score is {} ({!r} in {})".format(
                        breakdown.terms, breakdown.term_sum,
                        breakdown.total, entry["text"], name)
                assert breakdown.total == entry["score"]

    def test_rank_narrows_to_one(self):
        ts, context = _universe("bcl")
        engine = CompletionEngine(ts)
        pe = parse("?({now})", context)
        all_ten = engine.explain(pe, context, n=10)
        third = engine.explain(pe, context, n=10, rank=3)
        assert len(third) == 1
        assert third[0].expr.key() == all_ten[2].expr.key()
        assert engine.explain(pe, context, n=10, rank=99) == []

    def test_rows_ordered_by_contribution(self):
        ts, context = _universe("paint")
        engine = CompletionEngine(ts)
        (completion,) = engine.explain(
            parse("?({img, size})", context), context, rank=1)
        rows = completion.breakdown.rows()
        contributions = [abs(value) for _, value in rows]
        assert contributions == sorted(contributions, reverse=True)

    def test_from_ranker_matches_score(self):
        ts, context = _universe("geometry")
        engine = CompletionEngine(ts)
        outcome = engine.complete_query(parse("?", context), context, n=5)
        ranker = Ranker(context, engine.config.ranking, None)
        for completion in outcome.completions:
            breakdown = ScoreBreakdown.from_ranker(ranker, completion.expr)
            assert breakdown.total == completion.score
            assert breakdown.consistent


# ---------------------------------------------------------------------------
# cache replay: tracing and attribution survive a warm hit
# ---------------------------------------------------------------------------
class TestCacheReplay:
    @pytest.fixture()
    def engine(self):
        ts, context = _universe("paint")
        engine = CompletionEngine(ts, EngineConfig(enable_cache=True))
        return engine, context

    def test_replay_is_marked_and_traced(self, engine):
        engine, context = engine
        pe = parse("?({img})", context)
        cold = engine.complete_query(pe, context)
        assert not cold.cached
        warm = engine.complete_query(pe, context, trace=True)
        assert warm.cached
        assert warm.trace is not None
        cache_spans = [s for s in warm.trace if s["name"] == "cache"]
        assert cache_spans and cache_spans[0]["counters"]["hit"] == 1
        assert [c.expr.key() for c in warm.completions] \
            == [c.expr.key() for c in cold.completions]

    def test_traced_miss_does_not_populate_cache(self, engine):
        engine, context = engine
        pe = parse("?({size})", context)
        traced = engine.complete_query(pe, context, trace=True)
        assert not traced.cached
        after = engine.complete_query(pe, context)
        assert not after.cached, \
            "a traced miss must not seed the shared cache"

    def test_explain_after_replay_is_never_empty(self, engine):
        engine, context = engine
        pe = parse("?({img})", context)
        engine.complete_query(pe, context)
        explained = engine.explain(pe, context, n=10)
        assert explained
        for completion in explained:
            assert completion.breakdown is not None
            assert completion.breakdown.cached
            assert completion.breakdown.consistent


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_record_batch_equals_singles(self):
        batched, singles = Metrics(), Metrics()
        batched.record({"a": 2, "b": 1},
                       [("h", 3.0, (1, 10)), ("h", 30.0, (1, 10))])
        singles.incr("a", 2)
        singles.incr("b")
        singles.observe("h", 3.0, bounds=(1, 10))
        singles.observe("h", 30.0, bounds=(1, 10))
        assert batched.to_dict() == singles.to_dict()

    def test_engine_counts_queries(self):
        ts, context = _universe("bcl")
        engine = CompletionEngine(ts, EngineConfig(enable_cache=True))
        pe = parse("?({now})", context)
        engine.complete_query(pe, context)
        engine.complete_query(pe, context)
        assert engine.metrics.counter("queries") == 2
        assert engine.metrics.counter("queries_cached") == 1
        snapshot = engine.metrics.to_dict()
        assert snapshot["histograms"]["steps_per_query"]["count"] == 2
        assert json.loads(engine.metrics.to_json()) == snapshot

    def test_unsatisfiable_is_counted(self):
        ts, context = _universe("paint")
        engine = CompletionEngine(ts)
        outcome = engine.complete_query(
            parse("img.?*f", context), context,
            expected_type=context.locals["size"])
        if outcome.status is QueryStatus.UNSATISFIABLE:
            assert engine.metrics.counter("queries_unsatisfiable") == 1


# ---------------------------------------------------------------------------
# CLI: --trace/--explain and the stats subcommand
# ---------------------------------------------------------------------------
class TestCli:
    def _run(self, argv):
        out = io.StringIO()
        code = cli_main(argv, write=lambda line="": out.write(str(line) + "\n"))
        return code, out.getvalue()

    def test_complete_trace_emits_valid_ndjson(self):
        code, output = self._run([
            "complete", "--universe", "bcl", "--let",
            "now=System.DateTime", "--trace", "-", "now.?m"])
        assert code == 0
        ndjson = "\n".join(
            line for line in output.splitlines()
            if line.startswith("{")) + "\n"
        assert validate_trace_text(ndjson) == []

    def test_complete_explain_prints_breakdowns(self):
        code, output = self._run([
            "complete", "--universe", "bcl", "--let",
            "now=System.DateTime", "--explain", "now.?m"])
        assert code == 0
        assert "type_distance=" in output

    def test_stats_battery_reports_metrics(self):
        code, output = self._run(["stats", "--universe", "geometry"])
        assert code == 0
        doc = json.loads(output)
        assert doc["universe"] == "geometry"
        assert doc["metrics"]["counters"]["queries"] == len(doc["queries"])

    def test_stats_validate_trace(self, tmp_path):
        trace_file = tmp_path / "t.ndjson"
        code, _ = self._run([
            "complete", "--universe", "bcl", "--let",
            "now=System.DateTime", "--trace", str(trace_file), "now.?m"])
        assert code == 0
        code, output = self._run(["stats", "--validate-trace",
                                  str(trace_file)])
        assert code == 0
        assert "valid" in output
        trace_file.write_text('{"kind": "span"}\n')
        code, _ = self._run(["stats", "--validate-trace", str(trace_file)])
        assert code == 1


# ---------------------------------------------------------------------------
# the public facade
# ---------------------------------------------------------------------------
class TestFacade:
    def test_init_exposes_only_the_api_surface(self):
        import repro
        from repro import api

        import importlib

        for name in api.__all__:
            if name in ("fuzz", "serve"):
                # the names that are both facade helpers and
                # subpackages: top-level resolves to the subpackage
                # (import-order independent), the helpers live at
                # ``repro.api.fuzz`` / ``repro.api.serve``
                subpackage = importlib.import_module("repro." + name)
                assert getattr(repro, name) is subpackage
                assert callable(getattr(api, name))
                continue
            assert getattr(repro, name) is getattr(api, name)
        assert set(repro.__all__) == set(api.__all__) | {"__version__"}
        with pytest.raises(AttributeError):
            repro.definitely_not_public
        assert "open_workspace" in dir(repro)

    def test_facade_complete_and_explain(self):
        import repro

        workspace = repro.open_workspace("paint")
        record = repro.complete(
            workspace, "?({img, size})",
            locals={"img": "PaintDotNet.Document",
                    "size": "System.Drawing.Size"})
        assert record.suggestions
        assert record.status is QueryStatus.OK
        explained = repro.explain(
            workspace, "?({img, size})", rank=1,
            locals={"img": "PaintDotNet.Document",
                    "size": "System.Drawing.Size"})
        assert len(explained) == 1
        assert explained[0].breakdown.consistent

    def test_facade_trace_flows_through(self):
        import repro

        workspace = repro.open_workspace("bcl", cache_enabled=False)
        record = repro.complete(
            workspace, "now.?m",
            locals={"now": "System.DateTime"}, trace=True)
        assert record.trace
        assert validate_trace_text(trace_to_ndjson(record.trace)) == []

    def test_facade_lint(self):
        import repro

        workspace = repro.open_workspace("geometry")
        diagnostics = repro.lint(
            workspace, query="point.?*m",
            locals={"point": "DynamicGeometry.Point"})
        assert isinstance(diagnostics, list)

    def test_status_round_trips_truncation(self):
        assert QueryStatus.from_truncation(None) is QueryStatus.OK
        for reason in ("timeout", "budget", "cancelled"):
            status = QueryStatus.from_truncation(reason)
            assert status.truncation == reason
            assert status.is_truncated

    def test_cache_enabled_property_round_trips(self):
        workspace = Workspace.builtin("bcl")
        workspace.cache_enabled = False
        assert workspace.cache_enabled is False
        workspace.cache_enabled = True
        assert workspace.cache_enabled is True
