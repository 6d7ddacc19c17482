"""Seeded randomized property tests for the stream-ordering invariant.

Every combinator in ``repro.engine.streams`` promises nondecreasing scores;
these tests drive each one with seeded-random inputs — with and without
``QueryBudget`` truncation — under the opt-in sanitizer, which turns any
ordering violation into a ``StreamInvariantViolation``.  The tests also
assert the ordering directly, so they stand alone even if the autouse
sanitizer fixture is removed.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.budget import QueryBudget
from repro.engine.streams import (
    Materialized,
    best_first,
    check_stream,
    merge,
    merge_nested,
    ordered_product,
    reorder_with_slack,
    sanitize_streams,
    sanitizer_active,
)
from repro.errors import StreamInvariantViolation

SEEDS = [0, 1, 7, 42, 20260806]

BUDGETS = [None, 5, 40]


def sorted_stream(rng: random.Random, length: int, tag: str):
    """A random sorted scored stream [(score, value), ...]."""
    score = rng.randint(0, 3)
    items = []
    for index in range(length):
        items.append((score, "{}{}".format(tag, index)))
        score += rng.randint(0, 4)
    return items


def assert_nondecreasing(items):
    scores = [score for score, _value in items]
    assert scores == sorted(scores)


def make_budget(steps):
    return None if steps is None else QueryBudget(max_steps=steps)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("steps", BUDGETS)
class TestCombinatorOrdering:
    def test_merge(self, seed, steps):
        rng = random.Random(seed)
        streams = [
            sorted_stream(rng, rng.randint(0, 12), "s{}-".format(i))
            for i in range(rng.randint(1, 6))
        ]
        result = list(merge(streams, make_budget(steps)))
        assert_nondecreasing(result)
        if steps is None:
            assert len(result) == sum(len(s) for s in streams)

    def test_ordered_product(self, seed, steps):
        rng = random.Random(seed)
        streams = [
            Materialized(sorted_stream(rng, rng.randint(1, 6), "p"))
            for _ in range(rng.randint(1, 3))
        ]
        result = list(ordered_product(streams, make_budget(steps)))
        assert_nondecreasing(result)

    def test_merge_nested(self, seed, steps):
        rng = random.Random(seed)
        outer = sorted_stream(rng, rng.randint(0, 10), "o")
        extras = {value: rng.randint(0, 7) for _score, value in outer}

        def expand(base, value):
            return [(base + extras[value], value + "!")]

        result = list(merge_nested(iter(outer), expand, make_budget(steps)))
        assert_nondecreasing(result)

    def test_reorder_with_slack(self, seed, steps):
        rng = random.Random(seed)
        slack = 6
        base = 0
        triples = []
        for index in range(rng.randint(0, 15)):
            base += rng.randint(0, 3)
            triples.append((base, base + rng.randint(0, slack), index))
        result = list(
            reorder_with_slack(iter(triples), slack, make_budget(steps))
        )
        assert_nondecreasing(result)

    def test_best_first(self, seed, steps):
        rng = random.Random(seed)
        roots = [(rng.randint(0, 5), "r{}".format(i)) for i in range(3)]

        def expand(score, value):
            if value.count("x") >= 3:
                return []
            spread = (len(value) * 7919) % 5  # deterministic pseudo-noise
            return [(spread, "x"), (spread + 1, "xx")]

        result = list(best_first(roots, expand,
                                 lambda value, edge: value + edge[1],
                                 make_budget(steps)))
        assert_nondecreasing(result)


class TestSanitizer:
    def test_check_stream_raises_on_regression(self):
        bad = [(3, "a"), (1, "b")]
        with pytest.raises(StreamInvariantViolation) as info:
            list(check_stream("demo", iter(bad)))
        assert info.value.combinator == "demo"
        assert info.value.previous == 3
        assert info.value.current == 1

    def test_merge_detects_unsorted_input(self):
        # one stream with decreasing scores: merge's output goes backwards
        broken = [[(5, "late"), (0, "early")]]
        with sanitize_streams():
            with pytest.raises(StreamInvariantViolation) as info:
                list(merge(broken))
        assert info.value.combinator == "merge"

    def test_disabled_sanitizer_is_silent(self):
        broken = [[(5, "late"), (0, "early")]]
        with sanitize_streams(False):
            assert not sanitizer_active()
            result = list(merge(broken))
        assert [score for score, _ in result] == [5, 0]

    def test_flag_restored_after_exception(self):
        before = sanitizer_active()
        with pytest.raises(StreamInvariantViolation):
            with sanitize_streams():
                list(check_stream("merge", iter([(2, "a"), (0, "b")])))
        assert sanitizer_active() == before

    def test_violation_survives_budget_truncation(self):
        # the regression sits inside the budgeted prefix: still caught
        broken = [[(5, "late"), (0, "early"), (9, "never")]]
        with sanitize_streams():
            with pytest.raises(StreamInvariantViolation):
                list(merge(broken, QueryBudget(max_steps=2)))


class TestEngineUnderSanitizer:
    def test_paint_queries_emit_ordered_streams(self, paint, paint_engine,
                                                paint_context):
        from repro.lang.parser import parse

        assert sanitizer_active()  # the autouse fixture is live
        for source in ("?", "img.?*m", "?({img, size})", "? := ?"):
            pe = parse(source, paint_context)
            completions = paint_engine.complete(pe, paint_context, n=15)
            assert_nondecreasing(
                [(c.score, c.expr) for c in completions]
            )

    def test_probes_clean_on_builtin_universes(self, paint_engine,
                                               geometry_engine):
        from repro.analysis import run_sanitizer_probes

        assert run_sanitizer_probes(paint_engine) == []
        assert run_sanitizer_probes(geometry_engine) == []

    def test_probes_cover_every_floor_caller(self, paint_engine):
        # merge_nested gets the call floor from known calls, and
        # reorder_with_slack the pair floor from both pair kinds
        from repro.analysis.sanitize import _build_probes, _probe_context
        from repro.lang.partial import (
            KnownCall,
            PartialAssign,
            PartialCompare,
        )

        probes = _build_probes(_probe_context(paint_engine.ts))
        kinds = {type(pe) for _label, pe in probes}
        assert {KnownCall, PartialAssign, PartialCompare} <= kinds
