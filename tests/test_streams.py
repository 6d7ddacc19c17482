"""Tests (incl. property-based) for the score-ordered stream combinators."""

import heapq
import weakref
from itertools import count, islice, product
from operator import itemgetter

import pytest
from hypothesis import given, strategies as st

from repro.engine.budget import TRUNCATED_BUDGET, QueryBudget
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


#: up to four streams of up to four tied-prone sorted scores
product_streams = st.lists(
    st.lists(st.integers(0, 3), max_size=4).map(sorted), max_size=4
)


class StreamFault(Exception):
    """Raised by a logged stream at its planned pull."""


def logged_streams(streams, events, fail=None):
    """Materialize each score list as a stream whose values are
    ``(stream, index)`` and which logs every underlying ``next()`` as
    ``("pull", stream, index)``; ``fail=(j, i)`` makes stream ``j``
    raise at pull ``i``."""

    def stream(j, scores):
        for index in range(len(scores) + 1):
            events.append(("pull", j, index))
            if fail == (j, index):
                raise StreamFault(j, index)
            if index == len(scores):
                return
            yield scores[index], (j, index)

    return [Materialized(stream(j, scores)) for j, scores in enumerate(streams)]


def sorted_vectors(streams):
    """Every index vector with its total, by ``(total, vector)``."""
    vectors = product(*(range(len(scores)) for scores in streams))
    return sorted(
        (sum(scores[i] for scores, i in zip(streams, vector)), vector)
        for vector in vectors
    )


def expected_events(streams):
    """The pulls and yields of the product under the pull rule: the origin
    pulls item 0 of every stream, then item 1 of every stream once it is
    yielded; ``i * e_j`` pulls item ``i + 1`` of stream ``j``."""
    k = len(streams)
    events = [("pull", j, 0) for j in range(k)]
    if not all(streams):
        return events if k else [("yield", ())]
    for _total, vector in sorted_vectors(streams):
        events.append(("yield", vector))
        nonzero = [j for j in range(k) if vector[j]]
        if not nonzero:
            events.extend(("pull", j, 1) for j in range(k))
        elif len(nonzero) == 1:
            j = nonzero[0]
            events.append(("pull", j, vector[j] + 1))
    return events


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

    @pytest.mark.parametrize("fails", [False, True])
    def test_drops_its_iterator_once_finished(self, fails):
        def gen():
            yield (1, "a")
            yield (2, "b")
            if fails:
                raise RuntimeError("expansion failed")

        iterator = gen()
        producer = weakref.ref(iterator)
        m = Materialized(iterator)
        del iterator
        assert m.get(1) == (2, "b")
        assert producer() is not None  # not finished: still needed
        if fails:
            with pytest.raises(RuntimeError):
                m.get(2)
        else:
            assert m.get(2) is None
        assert producer() is None
        # the replay is unchanged, failure included
        assert [m.get(0), m.get(1)] == [(1, "a"), (2, "b")]
        if fails:
            with pytest.raises(RuntimeError):
                m.get(2)
        else:
            assert list(m) == [(1, "a"), (2, "b")]


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


    @given(product_streams)
    def test_exact_order_matches_brute_force(self, streams):
        events, result = [], []
        for score, values in ordered_product(logged_streams(streams, events)):
            result.append((score, values))
        expected = [(total, tuple(enumerate(vector)))
                    for total, vector in sorted_vectors(streams)]
        assert result == expected

    @given(product_streams)
    def test_pull_rule(self, streams):
        # item i + 1 of stream j is first pulled when i * e_j is popped
        events = []
        for _score, values in ordered_product(logged_streams(streams, events)):
            events.append(("yield", tuple(index for _j, index in values)))
        assert events == expected_events(streams)

    @given(product_streams, st.integers(0, 40))
    def test_one_tick_per_tuple_and_budget_prefix(self, streams, max_steps):
        unlimited = QueryBudget()
        full = list(ordered_product(
            [Materialized(scored(s)) for s in streams], unlimited))
        assert unlimited.steps == (len(full) if streams else 0)
        budget = QueryBudget(max_steps=max_steps)
        truncated = list(ordered_product(
            [Materialized(scored(s)) for s in streams], budget))
        assert truncated == full[: len(truncated)]
        if streams and max_steps < len(full):
            assert len(truncated) == max_steps
            assert budget.steps == max_steps + 1
            assert budget.tripped == TRUNCATED_BUDGET
        else:
            assert truncated == full
            assert budget.tripped is None

    @given(product_streams, st.data())
    def test_failing_stream_raises_at_the_same_pull(self, streams, data):
        if not streams:
            return
        j = data.draw(st.integers(0, len(streams) - 1))
        at = data.draw(st.integers(0, len(streams[j])))
        expected = expected_events(streams)
        planned = ("pull", j, at)
        if planned in expected:  # else the product never gets that far
            expected = expected[: expected.index(planned) + 1] + ["raised"]
        events = []
        product_ = ordered_product(
            logged_streams(streams, events, fail=(j, at)))
        try:
            for _score, values in product_:
                events.append(("yield", tuple(i for _j, i in values)))
        except StreamFault:
            events.append("raised")
        assert events == expected


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


#: a sorted outer stream, each item with its expansion's offsets above
#: a floor, and that floor
floored_batches = st.integers(0, 4).flatmap(lambda floor: st.tuples(
    st.just(floor),
    st.lists(
        st.tuples(st.integers(0, 30),
                  st.lists(st.integers(floor, floor + 6), max_size=3)),
        max_size=12,
    ).map(sorted),
))


def counted(items, pulls):
    """Yield ``items``, appending to ``pulls`` once per item pulled."""
    for item in items:
        pulls.append(item)
        yield item


def pulls_per_prefix(make):
    """For each ``k``, the outer items pulled to yield ``k`` results of
    the stream ``make(outer_wrapper)`` builds."""
    pulls = []
    stream = make(lambda items: counted(items, pulls))
    counts = [0]
    for _ in stream:
        counts.append(len(pulls))
    return counts


class TestNestedFloor:
    """A floor only moves results out earlier: the yielded sequence is
    the floor-0 sequence, after no more outer pulls, and a floor above
    the least offset fails its assertion."""

    @staticmethod
    def nested(batches, floor, wrap=iter, budget=None):
        offsets = {index: batch for index, (_, batch) in enumerate(batches)}

        def expand(base, index):
            return [(base + off, (index, j))
                    for j, off in enumerate(offsets[index])]

        outer = [(base, index) for index, (base, _) in enumerate(batches)]
        return merge_nested(wrap(outer), expand, budget, floor)

    @given(floored_batches)
    def test_merge_nested_floor_changes_nothing_but_pulls(self, drawn):
        floor, batches = drawn
        assert (list(self.nested(batches, floor))
                == list(self.nested(batches, 0)))
        floored = pulls_per_prefix(
            lambda wrap: self.nested(batches, floor, wrap))
        plain = pulls_per_prefix(lambda wrap: self.nested(batches, 0, wrap))
        assert all(f <= p for f, p in zip(floored, plain))

    @given(floored_batches)
    def test_merge_nested_floor_one_too_high_raises(self, drawn):
        _, batches = drawn
        offsets = [off for _, batch in batches for off in batch]
        if not offsets:
            return
        list(self.nested(batches, min(offsets)))
        with pytest.raises(AssertionError):
            list(self.nested(batches, min(offsets) + 1))

    @given(floored_batches, st.integers(1, 30))
    def test_merge_nested_budgeted_floor_yields_a_longer_prefix(
            self, drawn, steps):
        floor, batches = drawn
        full = list(self.nested(batches, 0))
        floored = list(self.nested(batches, floor,
                                   budget=QueryBudget(max_steps=steps)))
        plain = list(self.nested(batches, 0,
                                 budget=QueryBudget(max_steps=steps)))
        assert floored == full[:len(floored)]
        assert len(floored) >= len(plain)

    @staticmethod
    def pairs(batches, floor, slack, wrap=iter, budget=None):
        items = [(base, base + off, (index, j))
                 for index, (base, batch) in enumerate(batches)
                 for j, off in enumerate(batch)]
        return reorder_with_slack(wrap(items), slack, budget, floor)

    @given(floored_batches)
    def test_reorder_floor_changes_nothing_but_pulls(self, drawn):
        floor, batches = drawn
        slack = floor + 6
        assert (list(self.pairs(batches, floor, slack))
                == list(self.pairs(batches, 0, slack)))
        floored = pulls_per_prefix(
            lambda wrap: self.pairs(batches, floor, slack, wrap))
        plain = pulls_per_prefix(
            lambda wrap: self.pairs(batches, 0, slack, wrap))
        assert all(f <= p for f, p in zip(floored, plain))

    @given(floored_batches)
    def test_reorder_floor_one_too_high_raises(self, drawn):
        floor, batches = drawn
        offsets = [off for _, batch in batches for off in batch]
        if not offsets:
            return
        list(self.pairs(batches, min(offsets), floor + 6))
        with pytest.raises(AssertionError):
            list(self.pairs(batches, min(offsets) + 1, floor + 6))

    @given(floored_batches, st.integers(1, 30))
    def test_reorder_budgeted_floor_yields_a_longer_prefix(
            self, drawn, steps):
        floor, batches = drawn
        slack = floor + 6
        full = list(self.pairs(batches, 0, slack))
        floored = list(self.pairs(batches, floor, slack,
                                  budget=QueryBudget(max_steps=steps)))
        plain = list(self.pairs(batches, 0, slack,
                                budget=QueryBudget(max_steps=steps)))
        assert floored == full[:len(floored)]
        assert len(floored) >= len(plain)


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


def _append(value, edge):
    """``best_first`` builder: the successor is ``value`` + the edge's
    label (its second item)."""
    return value + edge[1]


def _succ(value, edge):
    return value + 1


def _eager_best_first(roots, expand, build, budget=None):
    """The reference: ``best_first`` as it was before cursors, pushing
    every successor of a popped value at once, in edge order."""
    heap = []
    seq = count()
    for score, value in roots:
        heapq.heappush(heap, (score, next(seq), value))
    while heap:
        if budget is not None and not budget.tick():
            return
        score, _, value = heapq.heappop(heap)
        yield score, value
        for edge in expand(score, value):
            heapq.heappush(heap, (score + edge[0], next(seq),
                                  build(value, edge)))


#: successor tables: per table, a charge (reachability checks a hit
#: ticks) and its edges as (cost, label), costs drawn from 0..2 so
#: that ties are common; edge lists are in lookup order, unsorted
successor_tables = st.lists(
    st.tuples(st.integers(0, 2),
              st.lists(st.integers(0, 2), max_size=5).map(
                  lambda costs: [(cost, label)
                                 for label, cost in enumerate(costs)])),
    min_size=1, max_size=4,
)


class TestBestFirstAgainstEager:
    """The cursor search yields what eager pushing yields, in the same
    order, and ticks the budget the same number of times: each edge list
    is sorted stably, so equal-cost siblings keep their lookup order."""

    @given(
        roots=st.lists(st.integers(0, 4), max_size=5),
        tables=successor_tables,
        depth=st.integers(0, 4),
        max_steps=st.one_of(st.none(), st.integers(0, 60)),
    )
    def test_same_sequence_and_steps(self, roots, tables, depth, max_steps):
        # a value is (root, path of edge labels); the table it expands
        # through depends on both, and expanding charges the table's fee
        def edges_of(value):
            root, path = value
            if len(path) >= depth:
                return None
            return tables[(root * 7 + len(path) + sum(path)) % len(tables)]

        def eager_expand(score, value):
            table = edges_of(value)
            if table is None:
                return []
            eager_budget.tick(table[0])
            return table[1]

        def cursor_expand(score, value):
            table = edges_of(value)
            if table is None:
                return []
            cursor_budget.tick(table[0])
            return sorted(table[1], key=itemgetter(0))

        def build(value, edge):
            root, path = value
            return root, path + (edge[1],)

        seeds = [(score, (root, ())) for root, score in enumerate(roots)]
        eager_budget = QueryBudget(max_steps=max_steps)
        cursor_budget = QueryBudget(max_steps=max_steps)
        # without a step limit the eager closure of a 0-cost cycle still
        # ends: ``depth`` bounds every path
        expected = list(_eager_best_first(seeds, eager_expand, build,
                                          eager_budget))
        actual = list(best_first(seeds, cursor_expand, build, cursor_budget))
        assert actual == expected
        assert cursor_budget.steps == eager_budget.steps
        assert cursor_budget.tripped == eager_budget.tripped


class TestBestFirst:
    def test_dijkstra_order(self):
        # root 0 expands to 4; root 1 expands to 2
        def expand(score, value):
            if value == "r0":
                return [(4, "x")]
            if value == "r1":
                return [(1, "x")]
            return []

        result = list(best_first([(0, "r0"), (1, "r1")], expand, _append))
        assert [s for s, _ in result] == [0, 1, 2, 4]

    def test_infinite_closure_is_lazy(self):
        def expand(score, value):
            return [(1,)]

        first_five = take(best_first([(0, 0)], expand, _succ), 5)
        assert [s for s, _ in first_five] == [0, 1, 2, 3, 4]

    def test_cheaper_successor_asserts(self):
        def expand(score, value):
            return [(-1,)]

        with pytest.raises(AssertionError):
            list(islice(best_first([(5, 0)], expand, _succ), 3))

    def test_unsorted_edges_assert(self):
        def expand(score, value):
            return [(2, "b"), (1, "a")] if len(value) < 2 else []

        with pytest.raises(AssertionError):
            list(best_first([(0, "r")], expand, _append))

    def test_tie_break_is_fifo(self):
        result = list(best_first([(0, "first"), (0, "second")],
                                 lambda s, v: [], _append))
        assert [v for _s, v in result] == ["first", "second"]
