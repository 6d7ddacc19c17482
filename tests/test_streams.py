"""Tests (incl. property-based) for the score-ordered stream combinators."""

from itertools import islice

import pytest
from hypothesis import given, strategies as st

from repro.engine.streams import (
    Materialized,
    best_first,
    merge,
    merge_nested,
    ordered_product,
    reorder_with_slack,
    take,
)


def scored(values):
    """Tag values with themselves as scores."""
    return [(v, v) for v in values]


def is_sorted(scores):
    return all(a <= b for a, b in zip(scores, scores[1:]))


sorted_lists = st.lists(
    st.integers(min_value=0, max_value=50), max_size=20
).map(sorted)


class TestMerge:
    def test_empty(self):
        assert list(merge([])) == []

    def test_single(self):
        assert list(merge([scored([1, 2, 3])])) == scored([1, 2, 3])

    def test_interleaves(self):
        result = list(merge([scored([1, 4]), scored([2, 3])]))
        assert [s for s, _ in result] == [1, 2, 3, 4]

    def test_is_lazy(self):
        def boom():
            yield (0, "ok")
            raise RuntimeError("pulled too far")

        stream = merge([boom()])
        assert next(stream) == (0, "ok")

    @given(st.lists(sorted_lists, max_size=5))
    def test_merge_sorted_property(self, lists):
        result = list(merge([scored(lst) for lst in lists]))
        assert is_sorted([s for s, _ in result])
        assert sorted(v for _s, v in result) == sorted(
            v for lst in lists for v in lst
        )


class TestMaterialized:
    def test_random_access(self):
        m = Materialized(scored([1, 2, 3]))
        assert m.get(2) == (3, 3)
        assert m.get(0) == (1, 1)
        assert m.get(3) is None

    def test_iter_replays(self):
        m = Materialized(scored([1, 2]))
        assert list(m) == scored([1, 2])
        assert list(m) == scored([1, 2])

    def test_pulls_lazily(self):
        pulled = []

        def gen():
            for v in [1, 2, 3]:
                pulled.append(v)
                yield (v, v)

        m = Materialized(gen())
        m.get(0)
        assert pulled == [1]

    def test_error_is_memoised_past_the_computed_prefix(self):
        def gen():
            yield (1, "a")
            yield (2, "b")
            raise RuntimeError("expansion failed")

        m = Materialized(gen())
        for _ in range(2):
            with pytest.raises(RuntimeError, match="expansion failed"):
                m.get(2)
        assert m.get(0) == (1, "a")
        assert m.get(1) == (2, "b")
        assert m.broken


class TestOrderedProduct:
    def test_zero_streams(self):
        assert list(ordered_product([])) == [(0, ())]

    def test_empty_stream_kills_product(self):
        m1 = Materialized(scored([1]))
        m2 = Materialized(scored([]))
        assert list(ordered_product([m1, m2])) == []

    def test_pairs_in_score_order(self):
        m1 = Materialized(scored([0, 5]))
        m2 = Materialized(scored([0, 1]))
        result = list(ordered_product([m1, m2]))
        scores = [s for s, _ in result]
        assert scores == [0, 1, 5, 6]

    @given(sorted_lists, sorted_lists)
    def test_product_property(self, a, b):
        result = list(
            ordered_product([Materialized(scored(a)), Materialized(scored(b))])
        )
        assert is_sorted([s for s, _ in result])
        assert len(result) == len(a) * len(b)
        assert sorted(s for s, _ in result) == sorted(x + y for x in a for y in b)


class TestMergeNested:
    def test_expansion_order(self):
        outer = scored([0, 2])

        def expand(base, value):
            return [(base + 1, (value, "a")), (base + 3, (value, "b"))]

        result = list(merge_nested(iter(outer), expand))
        assert [s for s, _ in result] == [1, 3, 3, 5]

    def test_cheaper_expansion_asserts(self):
        def expand(base, value):
            return [(base - 1, value)]

        with pytest.raises(AssertionError):
            list(merge_nested(iter(scored([5])), expand))

    @given(sorted_lists, st.lists(st.integers(0, 7), min_size=1, max_size=4))
    def test_nested_property(self, outer, offsets):
        def expand(base, value):
            return sorted((base + off, (value, off)) for off in offsets)

        result = list(merge_nested(iter(scored(outer)), expand))
        assert is_sorted([s for s, _ in result])
        assert len(result) == len(outer) * len(offsets)


class TestReorderWithSlack:
    def test_reorders_within_slack(self):
        items = [(0, 3, "a"), (1, 1, "b"), (2, 2, "c")]
        result = list(reorder_with_slack(iter(items), slack=3))
        assert [s for s, _ in result] == [1, 2, 3]

    def test_violating_slack_asserts(self):
        with pytest.raises(AssertionError):
            list(reorder_with_slack(iter([(0, 10, "x")]), slack=3))

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 5)), max_size=20))
    def test_reorder_property(self, pairs):
        slack = 5
        bases = sorted(b for b, _ in pairs)
        items = [(b, b + extra, i) for i, (b, (_b2, extra)) in
                 enumerate(zip(bases, pairs))]
        result = list(reorder_with_slack(iter(items), slack))
        assert is_sorted([s for s, _ in result])
        assert len(result) == len(items)


class TestBestFirst:
    def test_dijkstra_order(self):
        # root 0 expands to 4; root 1 expands to 2
        def expand(score, value):
            if value == "r0":
                return [(4, "r0x")]
            if value == "r1":
                return [(2, "r1x")]
            return []

        result = list(best_first([(0, "r0"), (1, "r1")], expand))
        assert [s for s, _ in result] == [0, 1, 2, 4]

    def test_infinite_closure_is_lazy(self):
        def expand(score, value):
            yield (score + 1, value + 1)

        first_five = take(best_first([(0, 0)], expand), 5)
        assert [s for s, _ in first_five] == [0, 1, 2, 3, 4]

    def test_cheaper_successor_asserts(self):
        def expand(score, value):
            return [(score - 1, value)]

        with pytest.raises(AssertionError):
            list(islice(best_first([(5, "x")], expand), 3))

    def test_tie_break_is_fifo(self):
        result = list(best_first([(0, "first"), (0, "second")], lambda s, v: []))
        assert [v for _s, v in result] == ["first", "second"]
