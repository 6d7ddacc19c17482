"""Engine tests: every query form, against the paper's running examples."""

import pytest

from repro import (
    Context,
    CompletionEngine,
    EngineConfig,
    RankingConfig,
    parse,
    to_source,
)
from repro.lang import Call, Compare, FieldAccess, Unfilled, Var


def sources(completions):
    return [to_source(c.expr) for c in completions]


class TestUnknownCalls:
    """Figure 2: ?({img, size}) in the Paint.NET universe."""

    def test_resize_document_is_top_choice(self, paint, paint_engine, paint_context):
        pe = parse("?({img, size})", paint_context)
        top = paint_engine.complete(pe, paint_context, n=10)
        assert top[0].expr.method is paint.resize_document
        assert sources(top)[0] == (
            "PaintDotNet.Actions.CanvasSizeAction.ResizeDocument(img, size, 0, 0)"
        )

    def test_figure2_distractors_appear(self, paint_engine, paint_context):
        pe = parse("?({img, size})", paint_context)
        top = sources(paint_engine.complete(pe, paint_context, n=10))
        assert any("Pair.Create" in s for s in top)
        assert any("ReferenceEquals" in s for s in top)

    def test_extra_params_are_unfilled(self, paint, paint_engine, paint_context):
        pe = parse("?({img})", paint_context)
        for completion in paint_engine.complete(pe, paint_context, n=30):
            expr = completion.expr
            assert isinstance(expr, Call)
            used = [a for a in expr.args if not isinstance(a, Unfilled)]
            assert len(used) == 1

    def test_arguments_may_be_reordered(self, paint, paint_engine, paint_context):
        """?({size, img}) finds ResizeDocument(img, size, ...) too."""
        pe = parse("?({size, img})", paint_context)
        top = paint_engine.complete(pe, paint_context, n=10)
        assert any(c.expr.method is paint.resize_document for c in top)

    def test_scores_nondecreasing(self, paint_engine, paint_context):
        pe = parse("?({img, size})", paint_context)
        completions = paint_engine.complete(pe, paint_context, n=40)
        scores = [c.score for c in completions]
        assert scores == sorted(scores)

    def test_no_duplicate_completions(self, paint_engine, paint_context):
        pe = parse("?({img, size})", paint_context)
        completions = paint_engine.complete(pe, paint_context, n=40)
        keys = [c.expr.key() for c in completions]
        assert len(keys) == len(set(keys))

    def test_expected_return_type_filters(self, paint, paint_engine, paint_context):
        pe = parse("?({img, size})", paint_context)
        completions = paint_engine.complete(
            pe, paint_context, n=20, expected_type=paint.document
        )
        assert completions
        for c in completions:
            assert paint.ts.implicitly_converts(c.expr.type, paint.document)

    def test_expected_void_filters(self, paint, paint_engine, paint_context):
        pe = parse("?({img})", paint_context)
        completions = paint_engine.complete(
            pe, paint_context, n=20, expected_type=paint.ts.void_type
        )
        assert completions
        assert all(c.expr.method.return_type is None for c in completions)

    def test_method_rank(self, paint, paint_engine, paint_context):
        pe = parse("?({img, size})", paint_context)
        rank = paint_engine.method_rank(
            pe, paint_context, paint.resize_document, limit=20
        )
        assert rank == 1


class TestKnownCalls:
    """Figure 3: Distance(point, ?) in the geometry universe."""

    def test_local_is_first(self, geometry, geometry_engine, geometry_context):
        pe = parse("Distance(point, ?)", geometry_context)
        top = sources(geometry_engine.complete(pe, geometry_context, n=10))
        assert top[0] == "DynamicGeometry.Math.Distance(point, point)"

    def test_figure3_chains_found(self, geometry_engine, geometry_context):
        pe = parse("Distance(point, ?)", geometry_context)
        top = sources(geometry_engine.complete(pe, geometry_context, n=10))
        joined = "\n".join(top)
        assert "this.Center" in joined
        assert "InfinitePoint" in joined
        assert "GetSampleGlyph().RenderTransformOrigin" in joined

    def test_all_args_type_check(self, geometry, geometry_engine, geometry_context):
        pe = parse("Distance(point, ?)", geometry_context)
        for c in geometry_engine.complete(pe, geometry_context, n=25):
            assert isinstance(c.expr, Call)
            assert geometry.ts.implicitly_converts(
                c.expr.args[1].type, geometry.point
            )

    def test_rank_of_specific_argument(self, geometry, geometry_engine, geometry_context):
        pe = parse("Distance(point, ?)", geometry_context)
        center = next(
            f for f in geometry.ellipse_arc.fields if f.name == "Center"
        )
        truth = Call(
            geometry.distance,
            (
                Var("point", geometry.point),
                FieldAccess(Var("this", geometry.ellipse_arc), center),
            ),
        )
        rank = geometry_engine.rank_of(pe, geometry_context, truth, limit=20)
        assert rank is not None and rank <= 5


class TestSuffixHoles:
    def test_plain_suffix_includes_base(self, geometry, geometry_engine, geometry_context):
        pe = parse("point.?m", geometry_context)
        top = sources(geometry_engine.complete(pe, geometry_context, n=10))
        assert top[0] == "point"  # suffix omitted is the cheapest completion
        assert "point.X" in top
        assert "point.Y" in top

    def test_f_suffix_excludes_methods(self, geometry, geometry_engine, geometry_context):
        pe = parse("shapeStyle.?f", geometry_context)
        for c in geometry_engine.complete(pe, geometry_context, n=20):
            assert not isinstance(c.expr, Call)

    def test_m_suffix_includes_methods(self, geometry, geometry_engine, geometry_context):
        pe = parse("shapeStyle.?m", geometry_context)
        assert any(
            isinstance(c.expr, Call)
            for c in geometry_engine.complete(pe, geometry_context, n=20)
        )

    def test_star_goes_deeper(self, geometry, geometry_engine, geometry_context):
        pe = parse("this.?*m", geometry_context)
        results = sources(geometry_engine.complete(pe, geometry_context, n=60))
        assert any(s.count(".") >= 2 for s in results)

    def test_nonstar_single_step_only(self, geometry, geometry_engine, geometry_context):
        pe = parse("this.?f", geometry_context)
        for c in geometry_engine.complete(pe, geometry_context, n=30):
            assert to_source(c.expr).count(".") <= 1


class TestHole:
    def test_locals_come_first(self, geometry, geometry_engine, geometry_context):
        pe = parse("?", geometry_context)
        top = sources(geometry_engine.complete(pe, geometry_context, n=3))
        assert set(top[:3]) == {"point", "shapeStyle", "this"}


class TestComparisons:
    """Figure 4: point.?*m >= this.?*m."""

    def test_same_name_lookups_first(self, geometry_engine, geometry_context):
        pe = parse("point.?*m >= this.?*m", geometry_context)
        top = sources(geometry_engine.complete(pe, geometry_context, n=9))
        for s in top:
            left, right = s.split(" >= ")
            assert left.rsplit(".", 1)[-1] == right.rsplit(".", 1)[-1]

    def test_sides_are_comparable(self, geometry, geometry_engine, geometry_context):
        pe = parse("point.?*m >= this.?*m", geometry_context)
        for c in geometry_engine.complete(pe, geometry_context, n=25):
            assert isinstance(c.expr, Compare)
            assert geometry.ts.comparable(
                c.expr.lhs.type, c.expr.rhs.type
            )

    def test_timestamp_pairs_with_timestamp_only(
        self, geometry, geometry_engine, geometry_context
    ):
        """Point.Timestamp (DateTime) may not compare against doubles."""
        pe = parse("point.?*m >= this.?*m", geometry_context)
        for c in geometry_engine.complete(pe, geometry_context, n=40):
            lhs_name = to_source(c.expr.lhs)
            rhs_name = to_source(c.expr.rhs)
            if "Timestamp" in lhs_name:
                assert "Timestamp" in rhs_name


class TestAssignments:
    def test_assignment_completion(self, geometry, geometry_engine, geometry_context):
        pe = parse("point.?f := this.Center.?f", geometry_context)
        top = geometry_engine.complete(pe, geometry_context, n=10)
        assert top
        for c in top:
            assert geometry.ts.implicitly_converts(
                c.expr.rhs.type, c.expr.lhs.type
            )

    def test_lhs_must_be_lvalue(self, geometry, geometry_engine, geometry_context):
        pe = parse("point.?m := this.Center.?m", geometry_context)
        for c in geometry_engine.complete(pe, geometry_context, n=20):
            assert not isinstance(c.expr.lhs, Call)


class TestEngineConfig:
    def test_chain_depth_bound(self, geometry, geometry_context):
        shallow = CompletionEngine(
            geometry.ts, EngineConfig(max_chain_depth=1)
        )
        pe = parse("this.?*m", geometry_context)
        for c in shallow.complete(pe, geometry_context, n=60):
            assert to_source(c.expr).count(".") <= 1

    def test_ranking_config_changes_order(self, paint, paint_context):
        """Without type distance the ranking collapses to depth-only."""
        default = CompletionEngine(paint.ts)
        no_t = CompletionEngine(
            paint.ts, EngineConfig(ranking=RankingConfig.without("ta"))
        )
        pe = parse("?({img, size})", paint_context)
        top_default = [c.expr.method.name for c in default.complete(pe, paint_context, n=5)]
        top_no_t = [c.expr.method.name for c in no_t.complete(pe, paint_context, n=5)]
        assert top_default != top_no_t

    def test_config_is_frozen_and_its_signature_shared(self, paint):
        import dataclasses

        config = EngineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.enable_cache = False
        first = CompletionEngine(paint.ts, config)._config_signature()
        assert CompletionEngine(paint.ts, config)._config_signature() is first
        assert CompletionEngine(
            paint.ts, EngineConfig())._config_signature() == first


class TestInjectedState:
    def test_injected_state_is_kept_even_when_empty(self):
        """An index over a universe with no methods has ``len() == 0``;
        the engine must still use it rather than build its own."""
        from repro import MethodIndex, ReachabilityIndex, TypeSystem

        ts = TypeSystem()
        index = MethodIndex(ts)
        assert len(index) == 0
        reachability = ReachabilityIndex(ts)
        engine = CompletionEngine(ts, index=index, reachability=reachability)
        assert engine.index is index
        assert engine.reachability is reachability
