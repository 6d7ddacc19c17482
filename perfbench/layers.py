"""Per-layer timing from outside the program.

A :class:`LayerTrace` replaces public functions of ``repro.*`` modules
with timing wrappers at run time and restores them afterwards; no source
file changes.  Each wrapped call records:

* *busy* time — wall time of the outermost call of that layer (a layer
  calling itself is not counted twice);
* *self* time — wall time minus the time spent in wrapped calls made
  from inside it, so self times of all layers add up to the time spent
  inside any wrapped call;
* a call count, plus whatever an ``on_result`` hook tallies.

Only calls on the thread that installed the trace are timed; calls from
other threads run unwrapped.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class LayerTrace:
    def __init__(self) -> None:
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: free-form tallies filled by ``on_result`` hooks
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[List[float]] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[object, str, object]] = []
        self._thread = threading.get_ident()
        #: timing is recorded only while enabled (untimed checks pause it)
        self.enabled = True

    # ------------------------------------------------------------------
    def wrap(self, owner: object, attr: str, layer: str,
             on_result: Optional[Callable[["LayerTrace", object], None]] = None,
             only_if: Optional[Callable[..., bool]] = None) -> None:
        """Wrap ``owner.attr`` (a class or a module attribute).  For a
        module-level function every ``repro`` module that imported the
        same function object by name is patched too.  With ``only_if``,
        a call is recorded only when ``only_if(*args, **kwargs)``, asked
        before the call, is true."""
        original = getattr(owner, attr)
        trace = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not trace.enabled or threading.get_ident() != trace._thread \
                    or (only_if is not None and not only_if(*args, **kwargs)):
                return original(*args, **kwargs)
            frame = [0.0]
            trace._stack.append(frame)
            trace._depth[layer] += 1
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                trace._stack.pop()
                trace._depth[layer] -= 1
                trace.calls[layer] += 1
                trace.self_time[layer] += elapsed - frame[0]
                if trace._depth[layer] == 0:
                    trace.busy[layer] += elapsed
                if trace._stack:
                    trace._stack[-1][0] += elapsed
            if on_result is not None:
                on_result(trace, result)
            return result

        targets = [owner]
        if not isinstance(owner, type):
            targets += [
                module for name, module in list(sys.modules.items())
                if name.startswith("repro") and module is not owner
                and vars(module).get(attr) is original
            ]
        for target in targets:
            self._patches.append((target, attr, target.__dict__[attr]))
            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # ------------------------------------------------------------------
    def busy_ms(self, layer: str) -> float:
        return 1000.0 * self.busy.get(layer, 0.0)

    def self_ms(self, layer: str) -> float:
        return 1000.0 * self.self_time.get(layer, 0.0)

    def total_self_s(self) -> float:
        return sum(self.self_time.values())


def _on_query(trace: LayerTrace, outcome) -> None:
    trace.counts["engine.steps"] += outcome.steps
    trace.counts["engine.completions"] += len(outcome.completions)


def _on_preflight(trace: LayerTrace, report) -> None:
    if report is not None and report.unsatisfiable:
        trace.counts["preflight.unsatisfiable"] += 1


def _stale(index) -> bool:
    """Will this ``refresh`` call do work?  Every index lookup calls
    ``refresh``, which returns at once unless the universe has moved on."""
    return index.built_version != index.ts.version


def install_engine_layers(trace: LayerTrace) -> None:
    """Wrap the public functions of the in-process engine layers of the
    README's layer table."""
    from repro.analysis.deps import DependencyGraph
    from repro.codemodel.types import TypeDef
    from repro.engine.completer import CompletionEngine
    from repro.engine.index import MethodIndex, ReachabilityIndex
    from repro.engine.ranking import Ranker
    from repro.ide.session import CompletionSession
    from repro.lang import parser

    trace.wrap(CompletionEngine, "complete_query", "engine.query", _on_query)
    trace.wrap(CompletionEngine, "preflight", "preflight", _on_preflight)
    trace.wrap(CompletionEngine, "dependency_graph", "deps.graph")
    # every Ranker entry point the engine calls counts as ranking
    for scoring in ("score", "lookup_step_cost", "call_completion_cost",
                    "assign_pair_cost", "compare_pair_cost"):
        trace.wrap(Ranker, scoring, "ranking.score")
    for index_class in (MethodIndex, ReachabilityIndex):
        trace.wrap(index_class, "refresh", "index.refresh", only_if=_stale)
    for lookup in ("candidate_methods", "methods_accepting",
                   "methods_with_exact_param"):
        trace.wrap(MethodIndex, lookup, "index.lookup")
    for lookup in ("reachable", "steps_to_target"):
        trace.wrap(ReachabilityIndex, lookup, "index.lookup")
    trace.wrap(DependencyGraph, "footprint", "deps.footprint")
    for edit in ("add_field", "add_method", "set_member_order"):
        trace.wrap(TypeDef, edit, "codemodel.edit")
    trace.wrap(parser, "parse", "lang.parse")
    trace.wrap(CompletionSession, "complete", "ide.session")


#: per-layer metric names every traced run reports (``BENCHMARK.json``'s
#: ``per_layer`` list, in order)
PER_LAYER = [
    ("engine.query.calls", "count"),
    ("engine.query.self_ms", "ms"),
    ("engine.steps", "count"),
    ("engine.completions", "count"),
    ("ranking.score.calls", "count"),
    ("ranking.score.busy_ms", "ms"),
    ("preflight.calls", "count"),
    ("preflight.busy_ms", "ms"),
    ("preflight.unsatisfiable", "count"),
    ("index.build_ms", "ms"),
    ("index.refresh.calls", "count"),
    ("index.rebuilds", "count"),
    ("index.lookup.self_ms", "ms"),
    ("cache.lookups", "count"),
    ("cache.hit_rate", "frac"),
    ("cache.stream_hit_rate", "frac"),
    ("cache.entries_preserved", "count"),
    ("cache.entries_dropped", "count"),
    ("cache.invalidations_fine", "count"),
    ("deps.graph.busy_ms", "ms"),
    ("deps.footprint.busy_ms", "ms"),
    ("codemodel.edit.calls", "count"),
    ("codemodel.edit.busy_ms", "ms"),
    ("lang.parse.calls", "count"),
    ("lang.parse.busy_ms", "ms"),
    ("ide.session.self_ms", "ms"),
    ("pack.build_ms", "ms"),
    ("pack.load_ms", "ms"),
    ("pack.bytes", "bytes"),
    ("serve.client.rtt_ms", "ms"),
    ("serve.server.latency_mean_ms", "ms"),
    ("serve.engine.elapsed_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.decode_ms", "ms"),
    ("serve.pending_max", "count"),
    ("serve.cached_frac", "frac"),
    ("loadgen.lateness_p99_ms", "ms"),
    ("corpus.generate_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("layers.unaccounted_frac", "frac"),
]


class CacheTally:
    """Sums ``cache_stats()`` deltas across engines."""

    KEYS = ("hits", "misses", "stream_hits", "stream_misses",
            "entries_preserved", "entries_dropped", "invalidations_fine")

    def __init__(self) -> None:
        self.totals: Dict[str, float] = defaultdict(float)

    def add(self, stats: Optional[dict],
            before: Optional[dict] = None) -> None:
        if not stats:
            return
        for key in self.KEYS:
            self.totals[key] += stats[key] - (before or {}).get(key, 0)


def report_engine_layers(result, trace: LayerTrace,
                         cache: Optional[CacheTally] = None) -> None:
    """Add the in-process layer metrics to ``result``."""
    result.add("engine.query.calls", trace.calls["engine.query"], "count")
    result.add("engine.query.self_ms", trace.self_ms("engine.query"), "ms")
    result.add("engine.steps", trace.counts["engine.steps"], "count")
    result.add("engine.completions", trace.counts["engine.completions"],
               "count")
    result.add("ranking.score.calls", trace.calls["ranking.score"], "count")
    result.add("ranking.score.busy_ms", trace.busy_ms("ranking.score"), "ms")
    result.add("preflight.calls", trace.calls["preflight"], "count")
    result.add("preflight.busy_ms", trace.busy_ms("preflight"), "ms")
    result.add("preflight.unsatisfiable",
               trace.counts["preflight.unsatisfiable"], "count")
    result.add("index.refresh.calls", trace.calls["index.refresh"], "count")
    result.add("index.lookup.self_ms", trace.self_ms("index.lookup"), "ms")
    result.add("deps.graph.busy_ms", trace.busy_ms("deps.graph"), "ms")
    result.add("deps.footprint.busy_ms", trace.busy_ms("deps.footprint"),
               "ms")
    result.add("codemodel.edit.calls", trace.calls["codemodel.edit"],
               "count")
    result.add("codemodel.edit.busy_ms", trace.busy_ms("codemodel.edit"),
               "ms")
    result.add("lang.parse.calls", trace.calls["lang.parse"], "count")
    result.add("lang.parse.busy_ms", trace.busy_ms("lang.parse"), "ms")
    result.add("ide.session.self_ms", trace.self_ms("ide.session"), "ms")
    totals = cache.totals if cache is not None else {}
    hits = totals.get("hits", 0.0)
    lookups = hits + totals.get("misses", 0.0)
    stream_lookups = (totals.get("stream_hits", 0.0)
                      + totals.get("stream_misses", 0.0))
    result.add("cache.lookups", lookups, "count")
    result.add("cache.hit_rate", hits / lookups if lookups else 0.0, "frac",
               int(lookups))
    result.add("cache.stream_hit_rate",
               totals.get("stream_hits", 0.0) / stream_lookups
               if stream_lookups else 0.0, "frac", int(stream_lookups))
    for key in ("entries_preserved", "entries_dropped",
                "invalidations_fine"):
        result.add("cache." + key, totals.get(key, 0.0), "count")


def fill_missing(result) -> None:
    """Layers a workload does not exercise report 0."""
    for name, unit in PER_LAYER:
        if name not in result.metrics:
            result.add(name, 0.0, unit, note="not exercised")
