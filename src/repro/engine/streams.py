"""Score-ordered lazy stream combinators.

The completion algorithm (Sec. 4.2, Algorithm 1) enumerates completions in
ascending score order without materialising the (potentially infinite)
result set.  These combinators are the machinery: every stream yields
``(score, value)`` pairs with non-decreasing integer scores, and each
combinator preserves that invariant:

* :func:`merge` — lazy k-way merge of sorted streams;
* :class:`Materialized` — memoises a stream for random access and replay
  (the one re-playable stream class: private per query, or shared across
  queries by the cross-query cache);
* :func:`ordered_product` — tuples from several streams in order of total
  score (the "all choices of exactly one completion for each subexpression"
  loop of Algorithm 1), each index vector pushed once, by its parent, and
  stream ``j``'s item ``i + 1`` first pulled when ``i * e_j`` is popped;
* :func:`merge_nested` — a sorted outer stream where each item expands to a
  finite, sorted batch of results costing at least the item's own score
  plus a caller-given floor (the "all type-correct completions of e using
  concreteSubs" loop), each batch pulled one result past what it has
  handed out;
* :func:`reorder_with_slack` — restores exact order when an extra cost
  between a floor and a slack is added to an almost-sorted stream (used
  for comparison/assignment pair terms);
* :func:`best_first` — Dijkstra-style closure for the ``?`` and ``.?*``
  chains over edges sorted by cost, building a successor only when it
  is popped.

Ties are broken by arrival order (a monotone sequence number), which makes
all downstream rankings deterministic.

Every combinator accepts an optional :class:`~repro.engine.budget.QueryBudget`
and charges it one step per unit of internal work (heap pop, frontier
expansion).  When the budget trips, the combinator stops pulling from its
inputs and returns: because every heap drains in score order, the items
already yielded are exactly the best-so-far prefix of the full stream —
truncation never reorders or corrupts results.

The nondecreasing-score promise can be *asserted at runtime* with the
opt-in sanitizer: inside a :func:`sanitize_streams` block every combinator
yields through :func:`check_stream`, which raises
:class:`~repro.errors.StreamInvariantViolation` on the first score that
goes backwards.  The test suite and ``repro lint --sanitize`` run with it
enabled; production queries leave it off.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from functools import wraps
from itertools import count
from typing import (
    Callable,
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from ..errors import StreamInvariantViolation
from .budget import QueryBudget

T = TypeVar("T")
U = TypeVar("U")

#: A scored item: ``(score, value)``.
Scored = Tuple[int, T]
ScoredIter = Iterator[Scored]


# ----------------------------------------------------------------------
# stream-invariant sanitizer (opt-in; see docs/ANALYSIS.md)
# ----------------------------------------------------------------------
#: when True, every combinator's output is wrapped in a monotonicity
#: check; flipped by :func:`sanitize_streams` (the test suite and the
#: ``repro lint --sanitize`` probes turn it on)
_SANITIZING = False


def sanitizer_active() -> bool:
    """Is the stream-invariant sanitizer currently enabled?"""
    return _SANITIZING


@contextmanager
def sanitize_streams(enabled: bool = True):
    """Enable (or force off) the nondecreasing-score sanitizer.

    While active, every combinator in this module yields through
    :func:`check_stream`, which raises
    :class:`~repro.errors.StreamInvariantViolation` the moment a score
    goes backwards.  Off by default: the check costs one comparison per
    emitted item, and production queries rely on the invariant being
    *tested* rather than re-asserted per item.
    """
    global _SANITIZING
    previous = _SANITIZING
    _SANITIZING = enabled
    try:
        yield
    finally:
        _SANITIZING = previous


def check_stream(name: str, stream: Iterable[Scored]) -> ScoredIter:
    """Yield ``stream`` through, asserting nondecreasing scores.

    Usable directly on any scored iterable (the lint probes and property
    tests do); the combinators below route through it automatically while
    :func:`sanitize_streams` is active.
    """
    previous: Optional[int] = None
    for item in stream:
        score = item[0]
        if previous is not None and score < previous:
            raise StreamInvariantViolation(name, previous, score)
        previous = score
        yield item


def _monotone(fn):
    """Wrap a combinator so its output is checked when sanitizing.

    When the sanitizer is off the original generator is returned as-is —
    zero per-item overhead.
    """

    @wraps(fn)
    def wrapper(*args, **kwargs):
        stream = fn(*args, **kwargs)
        if not _SANITIZING:
            return stream
        return check_stream(fn.__name__, stream)

    return wrapper


def take(stream: Iterable[Scored], n: int) -> List[Scored]:
    """The first ``n`` items of a scored stream."""
    result: List[Scored] = []
    for item in stream:
        result.append(item)
        if len(result) >= n:
            break
    return result


@_monotone
def merge(
    streams: Sequence[Iterable[Scored]],
    budget: Optional[QueryBudget] = None,
) -> ScoredIter:
    """Lazy k-way merge of sorted scored streams."""
    heap: List[Tuple[int, int, Scored, Iterator[Scored]]] = []
    seq = count()
    for stream in streams:
        iterator = iter(stream)
        first = next(iterator, None)
        if first is not None:
            heapq.heappush(heap, (first[0], next(seq), first, iterator))
    while heap:
        if budget is not None and not budget.tick():
            return
        _, _, item, iterator = heapq.heappop(heap)
        yield item
        following = next(iterator, None)
        if following is not None:
            heapq.heappush(heap, (following[0], next(seq), following, iterator))


class Materialized(Generic[T]):
    """Random access over a scored stream, pulling lazily and memoising.

    The prefix pulled so far is replayed from memory; only pulls past it
    advance the underlying iterator.  The cross-query cache
    (:mod:`repro.engine.cache`) hands the same ``Materialized`` to every
    query asking for the same sub-stream.  There is no lock: an engine
    and its streams stay on one thread.

    If the underlying iterator raises, the error propagates, and a copy
    of it (same type, arguments and attributes) is raised on every later
    pull past the computed prefix: a stream that failed mid-computation
    must not silently replay as a short stream.  The kept copy carries
    no traceback, whose frames would hold this stream and its producer
    in a cycle only the garbage collector frees.

    Once the iterator is exhausted or has raised, it is dropped: a
    finished stream keeps only its items, not the generator that made
    them (nor the query state that generator holds).
    """

    def __init__(self, stream: Iterable[Scored]) -> None:
        self._iterator: Optional[Iterator[Scored]] = iter(stream)
        self._items: List[Scored] = []
        self._exhausted = False
        self._error: Optional[BaseException] = None

    def get(self, index: int) -> Optional[Scored]:
        """Item at ``index``, or ``None`` when the stream is shorter."""
        items = self._items
        while not self._exhausted and len(items) <= index:
            if self._error is not None:
                raise _bare_copy(self._error)
            try:
                item = next(self._iterator)  # type: ignore[arg-type]
            except StopIteration:
                self._exhausted = True
                self._iterator = None
            except BaseException as error:
                self._error = _bare_copy(error)
                self._iterator = None
                raise
            else:
                items.append(item)
        if index < len(items):
            return items[index]
        return None

    def known_length(self) -> int:
        """Items pulled so far (a lower bound on the true length)."""
        return len(self._items)

    @property
    def broken(self) -> bool:
        """Did the underlying iterator raise?  (Broken streams are evicted
        from the cross-query cache rather than replayed.)"""
        return self._error is not None

    def __iter__(self) -> ScoredIter:
        index = 0
        while True:
            item = self.get(index)
            if item is None:
                return
            yield item
            index += 1


def _bare_copy(error: BaseException) -> BaseException:
    """``error``'s type, arguments and attributes without its traceback,
    context or cause (made without ``__init__``, whose signature may
    differ from ``args``)."""
    kind = type(error)
    copy = kind.__new__(kind, *error.args)
    copy.__dict__.update(error.__dict__)
    return copy


@_monotone
def ordered_product(
    streams: Sequence[Materialized],
    budget: Optional[QueryBudget] = None,
) -> Iterator[Tuple[int, tuple]]:
    """Yield ``(total_score, (v1, ..., vk))`` over the cartesian product of
    ``streams`` in non-decreasing total score.

    Best-first search over index vectors in ``(total, vector)`` order.  A
    vector's parent is itself with its last non-zero index decremented; a
    popped vector pushes successors only at or after its last non-zero
    position, so each vector is pushed once, by its parent, and no visited
    set is kept.  Pull rule: the origin pulls item 0 of every stream, and
    stream ``j``'s item ``i + 1`` is first pulled when the vector
    ``i * e_j`` (all other indices 0) is popped.  One budget step is
    charged per popped tuple.
    """
    k = len(streams)
    if k == 0:
        yield 0, ()
        return
    if k == 2:  # every assignment and comparison
        yield from _pair_product(streams[0], streams[1], budget)
        return
    first = [s.get(0) for s in streams]
    if any(item is None for item in first):
        return
    start_score = sum(item[0] for item in first)  # type: ignore[index]
    # a heap entry carries its vector's last non-zero position
    heap: List[Tuple[int, Tuple[int, ...], int]] = [(start_score, (0,) * k, 0)]
    while heap:
        if budget is not None and not budget.tick():
            return
        score, indices, last = heapq.heappop(heap)
        items = [stream.get(i) for stream, i in zip(streams, indices)]
        yield score, tuple(item[1] for item in items)  # type: ignore[index]
        for j in range(last, k):
            item = streams[j].get(indices[j] + 1)
            if item is None:
                continue
            successor = indices[:j] + (indices[j] + 1,) + indices[j + 1 :]
            next_score = score - items[j][0] + item[0]  # type: ignore[index]
            heapq.heappush(heap, (next_score, successor, j))


def _pair_product(
    left: Materialized, right: Materialized, budget: Optional[QueryBudget]
) -> Iterator[Tuple[int, tuple]]:
    """:func:`ordered_product` of two streams as a flat loop: ``(i, j)``
    pushes ``(i + 1, 0)`` when ``j == 0``, then ``(i, j + 1)``."""
    left_get, right_get = left.get, right.get
    a, b = left_get(0), right_get(0)
    if a is None or b is None:
        return
    heap = [(a[0] + b[0], 0, 0)]
    while heap:
        if budget is not None and not budget.tick():
            return
        score, i, j = heapq.heappop(heap)
        a, b = left_get(i), right_get(j)
        yield score, (a[1], b[1])  # type: ignore[index]
        if j == 0:
            item = left_get(i + 1)
            if item is not None:
                heapq.heappush(
                    heap, (score - a[0] + item[0], i + 1, 0))  # type: ignore[index]
        item = right_get(j + 1)
        if item is not None:
            heapq.heappush(
                heap, (score - b[0] + item[0], i, j + 1))  # type: ignore[index]


@_monotone
def merge_nested(
    outer: Iterable[Scored],
    expand: Callable[[int, T], Iterable[Tuple[int, U]]],
    budget: Optional[QueryBudget] = None,
    floor: int = 0,
) -> Iterator[Tuple[int, U]]:
    """Expand each outer item into results and yield all results globally
    sorted.

    Requires: ``outer`` is sorted; ``expand(score, v)`` returns its
    results sorted by score with a stable sort (any iterable, pulled
    lazily); and every result costs at least ``score + floor`` (costs
    only grow — true of every ranking term, all of which are
    non-negative).  ``floor`` is the least any result adds to its item's
    score: a result is yielded as soon as it costs no more than the next
    item's score plus ``floor``, since nothing not yet expanded can come
    before it.  The output is the same for every valid floor; a higher
    one pulls fewer outer items (so a budget truncates it later), and one
    that is too high fails the assertion.

    The heap holds one cursor per expansion, keyed ``(score, expansion
    number, position)``, so ties keep arrival order: earlier expansion
    first, then earlier position.  A result is pulled only once its
    predecessor from the same expansion has been yielded, so an
    expansion that is a generator computes only what is popped.
    """
    # a heap entry is (score, expansion number, position, result, the
    # expansion's iterator): a cursor at that expansion's least unpopped
    # result
    heap: List[tuple] = []
    number = 0
    for base, value in outer:
        if budget is not None and not budget.tick():
            return
        least = base + floor
        while heap and heap[0][0] <= least:
            cursor = heapq.heappop(heap)
            yield cursor[0], cursor[3]
            _advance(heap, cursor)
        results = iter(expand(base, value))
        first = next(results, None)
        if first is not None:
            assert first[0] >= least, "expand produced a result below its floor"
            heapq.heappush(heap, (first[0], number, 0, first[1], results))
        number += 1
    while heap:
        if budget is not None and not budget.tick():
            return
        cursor = heapq.heappop(heap)
        yield cursor[0], cursor[3]
        _advance(heap, cursor)


def _advance(heap: List[tuple], cursor: tuple) -> None:
    """Push the cursor after a popped :func:`merge_nested` cursor: the
    next result of the same expansion, if there is one."""
    score, number, position, _result, results = cursor
    following = next(results, None)
    if following is not None:
        assert following[0] >= score, "expansion is not sorted"
        heapq.heappush(heap, (following[0], number, position + 1,
                              following[1], results))


@_monotone
def reorder_with_slack(
    stream: Iterable[Tuple[int, int, T]],
    slack: int,
    budget: Optional[QueryBudget] = None,
    floor: int = 0,
) -> ScoredIter:
    """Restore exact order for an almost-sorted stream.

    ``stream`` yields ``(base, final, value)`` where the *bases* are
    non-decreasing and ``base + floor <= final <= base + slack``.  Emits
    ``(final, value)`` in non-decreasing ``final`` order, each as soon
    as it costs no more than the next base plus ``floor`` (the same
    output for every valid floor, after fewer pulls for a higher one).
    """
    heap: List[Tuple[int, int, T]] = []
    seq = count()
    for base, final, value in stream:
        if budget is not None and not budget.tick():
            return
        least = base + floor
        assert least <= final <= base + slack, "slack contract violated"
        while heap and heap[0][0] <= least:
            score, _, item = heapq.heappop(heap)
            yield score, item
        heapq.heappush(heap, (final, next(seq), value))
    while heap:
        if budget is not None and not budget.tick():
            return
        score, _, item = heapq.heappop(heap)
        yield score, item


@_monotone
def best_first(
    roots: Iterable[Scored],
    expand: Callable[[int, T], Sequence[tuple]],
    build: Callable[[T, tuple], T],
    budget: Optional[QueryBudget] = None,
) -> ScoredIter:
    """Dijkstra-style closure: yield roots and everything reachable through
    ``expand`` in non-decreasing score order.

    ``expand(score, value)`` returns ``value``'s outgoing edges, tuples
    whose first item is the edge's cost (never negative), sorted by cost
    with a stable sort; ``build(value, edge)`` makes the successor the
    edge leads to, which costs ``score + cost``.  An expanded value pushes
    one cursor over its edges and reserves one sequence number per edge,
    and popping the cursor builds that one successor and moves the cursor
    to the next edge: only popped successors are ever built, yet each
    keeps the ``(score, seq)`` key it would have if all were pushed at
    once, so the order (ties by arrival) and the budget ticks are the
    eager search's.  Used for the ``?`` and ``.?*f`` / ``.?*m`` chains,
    whose completion sets are unbounded: callers simply stop pulling
    after *n* results — or hand in a budget, which bounds even a caller
    that never stops pulling.
    """
    # a heap entry is (score, seq, value, edges, position): a root
    # carries its value and no edges; a cursor carries its parent and
    # the sorted edges, at the position of the successor it stands for
    heap: List[tuple] = []
    seq = 0
    for score, value in roots:
        heap.append((score, seq, value, None, 0))
        seq += 1
    heapq.heapify(heap)
    while heap:
        if budget is not None and not budget.tick():
            return
        score, number, value, edges, position = heapq.heappop(heap)
        if edges is not None:
            edge = edges[position]
            position += 1
            if position < len(edges):
                following = edges[position]
                assert following[0] >= edge[0], "edges are not sorted by cost"
                heapq.heappush(heap, (score - edge[0] + following[0],
                                      number + 1, value, edges, position))
            value = build(value, edge)
        yield score, value
        edges = expand(score, value)
        if edges:
            assert edges[0][0] >= 0, "closure produced a cheaper successor"
            heapq.heappush(heap, (score + edges[0][0], seq, value, edges, 0))
            seq += len(edges)
