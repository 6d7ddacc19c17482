"""A finished engine frees itself by reference counting.

An engine's cache keeps the streams of its queries, and each stream's
generators keep their query.  The query holds its engine only weakly,
so nothing a finished engine owns points back at it, and the engine
goes the moment its last reference does — with the cyclic collector
off, as these tests run.  A stream the caller still holds outlives the
engine and yields what a live engine's stream does.  A cached stream
that has run to its end drops its generator, and with it the query.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager
from itertools import islice

import pytest

from repro import parse
from repro.engine.completer import CompletionEngine

from .test_golden_completions import _universe

#: per builtin universe: a hole, an unknown call, a known call with a
#: ``?`` argument, a ``.?*m`` chain, an assignment and a comparison
QUERIES = {
    "paint": ["?", "?({img, size})", "System.Math.Max(?, ?)", "img.?*m",
              "size := ?", "img.?*f < size.?*f"],
    "geometry": ["?", "?({point, shapeStyle})",
                 "DynamicGeometry.Math.Midpoint(point, ?)", "point.?*m",
                 "point.?f := ?", "point.?*m >= this.?*m"],
    "bcl": ["?", "?({now, span})", "now.AddDays(?)", "now.?*m",
            "? := now", "now.?*m >= now.?*m"],
}


@contextmanager
def collector_off():
    """Run the block with the cyclic garbage collector disabled, so only
    reference counting frees anything."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_finished_engine_is_freed_at_del(name):
    ts, context = _universe(name)
    with collector_off():
        engine = CompletionEngine(ts)
        for source in QUERIES[name]:
            outcome = engine.complete_query(parse(source, context), context)
            assert outcome.completions, source
        assert engine.cache_stats()["stream_misses"] > 0
        engine_ref = weakref.ref(engine)
        del engine
        assert engine_ref() is None


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_stream_outlives_its_engine(name):
    ts, context = _universe(name)
    for source in QUERIES[name]:
        pe = parse(source, context)
        live = CompletionEngine(ts).complete(pe, context)
        with collector_off():
            engine = CompletionEngine(ts)
            stream = engine.all_completions(pe, context)
            engine_ref = weakref.ref(engine)
            del engine
            assert engine_ref() is None
            assert list(islice(stream, 10)) == live, source


@pytest.mark.parametrize("source", ["img.?m", "img.?*f", "?({img})"])
def test_finished_stream_frees_its_query(source):
    ts, context = _universe("paint")
    pe = parse(source, context)
    with collector_off():
        engine = CompletionEngine(ts)
        probe = engine._probe(pe, context, None, None, None, None)
        stream, query, cached = engine._completion_stream(
            pe, context, None, None, None, None, None, probe)
        assert not cached and query.sharing
        query_ref = weakref.ref(query)
        del query
        items = list(stream)
        assert items
        del stream
        assert query_ref() is None
        # the engine lives on, and its cache replays every item
        assert list(engine.all_completions(pe, context)) == items
        assert engine.cache_stats()["hits"] == 1
