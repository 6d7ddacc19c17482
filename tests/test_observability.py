"""Observability layer: tracing, attribution, metrics, and the facade.

The load-bearing guarantees:

* tracing is an *observer* — a traced query returns byte-identical
  rankings to an untraced one (differential tests over the golden
  batteries);
* every :class:`ScoreBreakdown` sums exactly to the ranked score for
  every golden completion in every builtin universe;
* cache-replayed outcomes still trace and explain (marked ``cached``);
* tracing never forks the program: a traced query probes, fills and
  replays the cross-query cache exactly as an untraced one does.
"""

import io
import json

import pytest
from hypothesis import given, strategies as st

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
    ScoreBreakdown,
    Tracer,
    ndjson_to_dicts,
    trace_to_ndjson,
    validate_trace_text,
)
from repro.engine.ranking import Ranker
from repro.eval.battery import battery_for

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
    def test_traced_session_runs_the_untraced_program(self, name):
        """Two passes of the golden battery, traced and untraced, on
        fresh workspaces: same answers, steps, cache replays and cache
        counters — the traced session shares streams exactly as the
        untraced one does."""
        battery = battery_for(name)
        assert battery.queries == QUERIES[name]
        runs = {}
        for traced in (False, True):
            session = battery.session(Workspace.builtin(name))
            session.trace = traced
            records = [session.complete(source)
                       for _ in range(2) for source in battery.queries]
            assert all((r.trace is not None) == traced for r in records)
            runs[traced] = (
                [(r.source, [(s.score, s.text) for s in r.suggestions],
                  r.steps, r.cached) for r in records],
                session.workspace.cache_stats(),
            )
        assert runs[True] == runs[False]

    @pytest.mark.parametrize("name", UNIVERSES)
    def test_traced_session_hits_the_parse_memo(self, name, monkeypatch):
        """Traced and untraced sessions parse each distinct query once
        and replay the parse after that; a traced ``parse`` span says
        which it was."""
        from repro.lang import parser

        battery = battery_for(name)
        calls = {}
        original = parser.parse
        for traced in (False, True):
            parsed = calls[traced] = []
            monkeypatch.setattr(parser, "parse", lambda source, *rest: (
                parsed.append(source), original(source, *rest))[1])
            session = battery.session(Workspace.builtin(name))
            session.trace = traced
            records = [session.complete(source)
                       for _ in range(2) for source in battery.queries]
            if traced:
                flags = [[s["counters"]["cached"] for s in r.trace
                          if s["name"] == "parse"] for r in records]
                half = len(battery.queries)
                assert flags == [[0]] * half + [[1]] * half
        assert calls[True] == calls[False] == list(battery.queries)

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

    def test_ended_span_ignores_counter_writes(self):
        tracer = Tracer()
        with tracer.span("x") as span:
            span.add("items")
            span.set("roots", 3)
        span.add("items")
        span.set("roots", 4)
        span.set("late", 1)
        assert span.counters == {"items": 1, "roots": 3}

    def test_finished_tracer_records_nothing_more(self):
        tracer = Tracer()
        stream = tracer.wrap_stream("expand:x", iter([1, 2, 3]))
        assert next(stream) == 1
        tracer.finish()
        exported = tracer.to_dicts()
        late = tracer.start("late")
        late.add("items")
        assert late.end_ms is not None and not late.counters
        assert list(tracer.wrap_stream("expand:y", [4])) == [4]
        assert list(stream) == [2, 3]
        assert tracer.to_dicts() == exported
        assert exported[0]["counters"]["items"] == 1


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
        assert not [s for s in warm.trace if s["name"].startswith("expand:")]
        assert [c.expr.key() for c in warm.completions] \
            == [c.expr.key() for c in cold.completions]

    def test_traced_miss_populates_cache(self, engine):
        engine, context = engine
        pe = parse("?({size})", context)
        traced = engine.complete_query(pe, context, trace=True)
        assert not traced.cached
        after = engine.complete_query(pe, context)
        assert after.cached, "a traced miss must fill the shared cache"
        assert after.trace is None
        assert after.completions == traced.completions

    def test_traced_warm_query_reports_stream_reuse(self, engine):
        engine, context = engine
        # a different whole query that already expanded the ``img``
        # argument sub-stream
        engine.complete_query(parse("?({img})", context), context)
        traced = engine.complete_query(
            parse("?({img, size})", context), context, trace=True)
        assert not traced.cached
        [query] = [s for s in traced.trace if s["name"] == "query"]
        assert query["counters"]["stream_hits"] >= 1
        assert query["counters"]["stream_misses"] >= 1  # the ``size`` one

    def test_replayed_stream_leaves_its_trace_frozen(self, engine):
        """A traced query leaves its (partly pulled) stream in the
        cache; a later untraced query extends it through the traced
        query's wrappers, which must neither count nor add spans."""
        engine, context = engine
        pe = parse("?", context)
        tracer = Tracer()
        first = engine.complete_query(pe, context, n=1, tracer=tracer)
        spans = len(tracer.spans)
        later = engine.complete_query(pe, context, n=10)
        assert later.cached and len(later.completions) == 10
        assert tracer.to_dicts() == first.trace
        assert len(tracer.spans) == spans
        cold = CompletionEngine(engine.ts).complete_query(pe, context, n=10)
        assert later.completions == cold.completions

    def test_replays_skip_preflight_traced_or_not(self, engine, monkeypatch):
        engine, context = engine
        pe = parse("?({img})", context)
        cold = engine.complete_query(pe, context)
        calls = []
        analyse = CompletionEngine.preflight

        def counted(self, *args, **kwargs):
            calls.append(args)
            return analyse(self, *args, **kwargs)

        monkeypatch.setattr(CompletionEngine, "preflight", counted)
        untraced = engine.complete_query(pe, context)
        traced = engine.complete_query(pe, context, trace=True)
        assert calls == []
        assert untraced.cached and traced.cached
        assert traced.completions == untraced.completions
        assert [c.expr.key() for c in traced.completions] \
            == [c.expr.key() for c in cold.completions]
        names = [span["name"] for span in traced.trace]
        assert names.index("cache") < names.index("preflight")
        [preflight] = [s for s in traced.trace if s["name"] == "preflight"]
        assert preflight["counters"] == {"cached": 1}

    def test_explain_records_no_query(self, engine):
        engine, context = engine
        pe = parse("?({img})", context)
        engine.complete_query(pe, context)
        assert engine.explain(pe, context, n=10)
        assert engine.metrics.counter("queries") == 1

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

    @given(st.lists(st.integers(-2, 12), max_size=4),
           st.lists(st.one_of(st.integers(-2, 12),
                              st.floats(-2, 12, allow_nan=False)),
                    max_size=12))
    def test_series_equals_per_value_observations(self, earlier, values):
        from repro.obs.expo import render_prometheus

        bounds = (0, 1, 2, 4, 8)
        batched, singles = Metrics(), Metrics()
        for value in earlier:
            batched.observe("h", value, bounds)
            singles.observe("h", value, bounds)
        batched.record(series=[("h", values, bounds)])
        for value in values:
            singles.observe("h", value, bounds)
        assert batched.to_dict() == singles.to_dict()
        assert (render_prometheus([({"workspace": "w"}, batched.to_dict())])
                == render_prometheus([({"workspace": "w"},
                                       singles.to_dict())]))

    def test_completion_depths_are_one_series(self):
        ts, context = _universe("paint")
        engine = CompletionEngine(ts)
        recorded = []
        real_record = engine.metrics.record

        def record(*args, **kwargs):
            recorded.append((args, kwargs))
            return real_record(*args, **kwargs)

        engine.metrics.record = record
        outcome = engine.complete_query(parse("img.?*m", context), context)
        [(args, _kwargs)] = recorded
        assert ("completion_depth" not in
                [name for name, _value, _bounds in args[1]])
        from repro.engine.completer import _DEPTH_BOUNDS

        singles = Metrics()
        for completion in outcome.completions:
            singles.observe("completion_depth", completion.depth,
                            _DEPTH_BOUNDS)
        assert (engine.metrics.histogram("completion_depth").to_dict()
                == singles.histogram("completion_depth").to_dict())

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

    def test_completion_depth_counts_lookups(self):
        from repro.lang.ast import Call, FieldAccess, iter_subtree

        ts, context = _universe("paint")
        engine = CompletionEngine(ts)
        engine.complete_query(parse("img.?*f", context), context)
        # img, four single lookups (img.Width ... img.DpuX), and the two
        # img.Size.* chains
        depth = engine.metrics.to_dict()["histograms"]["completion_depth"]
        assert (depth["count"], depth["sum"]) == (7, 8.0)
        assert depth["buckets"][:3] == [1, 4, 2]
        ts, context = _universe("geometry")
        engine = CompletionEngine(ts)
        lookups = 0
        for source in QUERIES["geometry"]:
            outcome = engine.complete_query(parse(source, context), context)
            lookups += sum(
                isinstance(node, (FieldAccess, Call))
                for completion in outcome.completions
                for node in iter_subtree(completion.expr))
        depth = engine.metrics.to_dict()["histograms"]["completion_depth"]
        assert depth["sum"] == lookups

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

    def test_complete_explain_records_each_query_once(self, monkeypatch):
        from repro.engine.completer import CompletionEngine

        recorded = []
        original = CompletionEngine._record_outcome

        def counting(engine, outcome):
            recorded.append(outcome)
            original(engine, outcome)

        monkeypatch.setattr(CompletionEngine, "_record_outcome", counting)
        code, _output = self._run([
            "complete", "--universe", "bcl", "--let",
            "now=System.DateTime", "--explain", "now.?m", "now.?f"])
        assert code == 0
        assert len(recorded) == 2

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

    def test_facade_lint_reports_unknown_scope_type_as_ra021(self):
        import repro

        workspace = repro.open_workspace("paint")
        diagnostics = repro.lint(
            workspace, query="x.?m", locals={"x": "No.Such.Type"})
        [finding] = [d for d in diagnostics if d.code == "RA021"]
        assert finding.location == "x"
        with pytest.raises(ValueError):
            repro.complete(workspace, "x.?m",
                           locals={"x": "No.Such.Type"})

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
