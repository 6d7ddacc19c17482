"""Workload ``corpus-cold``: the paper's speed measurement.

A seeded, stratified draw of Sec. 5.1, 5.2 and 5.3 queries over all seven
corpus projects.  Each query runs ``complete_query(n=10)`` on a fresh
``CompletionEngine`` that reuses its project's prebuilt method and
reachability indexes, so every query starts with an empty cache and pays
for its own root pool.  Closed loop, one thread.

The draw runs in several identical passes spread over the run.  Every
query's latency and every chunk of consecutive queries' time is scaled
to reference host speed (see ``common.HostSpeed``) and then taken as its
median over the passes.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time
from typing import Dict, List, Optional

from common import (
    HostSpeed,
    Result,
    answer_of_completions,
    check_battery_in_process,
    per_item_median,
    self_peak_rss_mb,
    timed_setups,
    unscaled,
)
from corpus_queries import (
    ARGUMENT,
    ASSIGNMENT,
    COMPARISON,
    METHOD,
    PROJECT_BUILDERS,
    build_corpus,
    context_for,
    stratified_draw,
    truth_top10_frac,
)
from layers import CacheTally, LayerTrace, install_engine_layers, report_engine_layers

#: share of each (project, family) pool drawn, about 1,220 queries in
#: all; argument queries cost tens of ms each, so fewer of them are drawn.
FRACTIONS = {METHOD: 0.067, ARGUMENT: 0.0072, ASSIGNMENT: 0.036,
             COMPARISON: 0.095}
#: seconds one pass over the draw takes, fixed once (about 6-8 s on a
#: 2-core virtual machine when it was set): a run of ``s`` seconds makes
#: ``round(s / PASS_SECONDS)`` passes, at least 2, whatever the clock says
PASS_SECONDS = 7.0
#: consecutive queries timed together for ``queries_per_s``
CHUNK = 25
#: chunks between two bursts of reference-loop samples (``HostSpeed``)
SAMPLE_EVERY = 10


def _build_indexes(corpus, config):
    """One prebuilt method index and reachability index per project, with
    every reachability walk computed (the index is complete before the
    first query, as a prebuilt index should be)."""
    from repro.engine.index import MethodIndex, ReachabilityIndex

    indexes = {}
    for name, project in corpus.projects.items():
        ts = project.ts
        reach = ReachabilityIndex(ts, max_depth=config.max_chain_depth + 1)
        for typedef in ts.all_types():
            reach.reachable(typedef, False)
            reach.reachable(typedef, True)
        indexes[name] = (MethodIndex(ts), reach)
    return indexes


def _prepared(corpus, draw):
    """(query, project ts, context, partial expression) per drawn query."""
    from repro.lang.parser import parse

    prepared = []
    for query in draw:
        ts = corpus.projects[query.project].ts
        context = context_for(ts, query)
        prepared.append((query, ts, context, parse(query.source, context)))
    return prepared


class _Pass:
    """Runs the draw once, query by query, and keeps per-query results."""

    def __init__(self, prepared, indexes, config) -> None:
        self.prepared = prepared
        self.indexes = indexes
        self.config = config

    def run(self, result: Result, reference=None, cache=None, host=None):
        """One pass.  With ``host``, a burst of host samples is taken at
        the start, every ``SAMPLE_EVERY`` chunks and at the end, outside
        the chunks' times."""
        from repro.engine.completer import CompletionEngine, QueryStatus

        latencies: List[Optional[float]] = []
        stamps: List[float] = []
        answers = []
        steps = 0
        chunks: List[float] = []
        chunk_stamps: List[float] = []
        if host is not None:
            host.sample()
        chunk_stamps.append(time.perf_counter())
        for position, (query, ts, context, pe) in enumerate(self.prepared):
            if position and position % CHUNK == 0:
                now = time.perf_counter()
                chunks.append(now - chunk_stamps[-1])
                if host is not None and len(chunks) % SAMPLE_EVERY == 0:
                    host.sample()
                    now = time.perf_counter()
                chunk_stamps.append(now)
            index, reach = self.indexes[query.project]
            engine = CompletionEngine(ts, self.config, index=index,
                                      reachability=reach)
            result.attempted += 1
            began = time.perf_counter()
            stamps.append(began)
            try:
                outcome = engine.complete_query(pe, context, n=10)
                latencies.append((time.perf_counter() - began) * 1000.0)
            except Exception as error:  # noqa: BLE001 - counted, reported
                result.fail("{}: {!r} raised {!r}".format(
                    query.project, query.source, error))
                latencies.append(None)
                answers.append(None)
                continue
            if cache is not None:
                cache.add(engine.cache_stats())
            steps += outcome.steps
            answer = (outcome.status.value, sorted(outcome.degraded),
                      answer_of_completions(outcome.completions))
            answers.append(answer)
            if outcome.status not in (QueryStatus.OK,
                                      QueryStatus.UNSATISFIABLE) \
                    or outcome.degraded:
                result.fail("{}: {!r} ended {} degraded={}".format(
                    query.project, query.source, outcome.status.value,
                    sorted(outcome.degraded)))
            elif reference is not None and reference[position] != answer:
                result.fail("{}: {!r} answered differently on a repeat "
                            "pass".format(query.project, query.source))
        chunks.append(time.perf_counter() - chunk_stamps[-1])
        if host is not None:
            host.sample()
        return {
            "latencies": latencies, "stamps": stamps, "answers": answers,
            "steps": steps, "chunks": chunks, "chunk_stamps": chunk_stamps,
            "wall": sum(chunks),
        }


def run(seed: int, seconds: float, trace: bool) -> Result:
    from repro.engine.completer import EngineConfig

    result = Result()
    corpus = build_corpus(list(PROJECT_BUILDERS))
    generate_started = time.perf_counter()
    draw = stratified_draw(corpus, random.Random(
        "corpus-cold:{}".format(seed)), FRACTIONS)
    config = EngineConfig()
    prepared_queries = _prepared(corpus, draw)
    generate_s = corpus.generate_s + time.perf_counter() - generate_started

    host = HostSpeed()
    setups, indexes = timed_setups(
        lambda: _build_indexes(corpus, config), host)
    check_battery_in_process(result)

    runner = _Pass(prepared_queries, indexes, config)
    if trace:
        return _traced(result, runner, generate_s, setups)

    first = runner.run(result, host=host)
    passes = [first]
    for _ in range(max(2, round(seconds / PASS_SECONDS)) - 1):
        passes.append(runner.run(result, reference=first["answers"],
                                 host=host))
    truth, truth_samples = truth_top10_frac(corpus)

    timed = [i for i in range(len(prepared_queries))
             if all(p["latencies"][i] is not None for p in passes)]
    note = "median of {} passes".format(len(passes))
    for prefix, scale, how in (("", host.slowdown_at,
                                "at reference host speed; "),
                               ("measured_", unscaled, "")):
        latencies = per_item_median([
            [p["latencies"][i] / scale(p["stamps"][i]) for i in timed]
            for p in passes])
        chunks = per_item_median([
            [chunk / scale(began)
             for began, chunk in zip(p["chunk_stamps"], p["chunks"])]
            for p in passes])
        result.add_setup(prefix, setups, scale)
        result.add_latency(prefix + "query", latencies, how + note)
        result.add(prefix + "queries_per_s", len(timed) / sum(chunks),
                   "1/s", len(timed), "{}each chunk of {} queries at its "
                   "{}".format(how, CHUNK, note))
        result.add(prefix + "post_edit_query_p50_ms",
                   result.metrics[prefix + "query_p50_ms"].value, "ms",
                   len(timed), "no edits here: every query is a first "
                   "query after a universe change, equal to query_p50_ms")
    result.add_host(host)
    result.add_failure_metrics()
    result.add("truth_top10_frac", truth, "frac", truth_samples)
    result.add("peak_rss_mb", self_peak_rss_mb(), "MB")
    families: Dict[str, int] = {}
    for query in draw:
        families[query.family] = families.get(query.family, 0) + 1
    result.info["draw"] = families
    result.info["dropped_queries"] = corpus.dropped
    result.info["pass_wall_s"] = [round(p["wall"], 3) for p in passes]
    result.info["engine_steps_first_pass"] = first["steps"]
    result.info["answer_digest"] = digest(draw, first["answers"])
    result.info["corpus_generate_s"] = round(generate_s, 3)
    return result


def digest(draw, answers) -> str:
    """A digest of every (query, answer) pair of one pass."""
    hasher = hashlib.sha256()
    for query, answer in zip(draw, answers):
        hasher.update(repr((query.project, query.source, answer)).encode())
    return hasher.hexdigest()[:16]


def _traced(result: Result, runner: _Pass, generate_s, setups) -> Result:
    """Per-layer run: one traced pass over the draw between two untraced
    passes."""
    untraced = [runner.run(Result())]
    layer_trace = LayerTrace()
    cache = CacheTally()
    install_engine_layers(layer_trace)
    try:
        traced = runner.run(result, cache=cache)
    finally:
        layer_trace.uninstall()
    untraced.append(runner.run(Result()))
    report_engine_layers(result, layer_trace, cache)
    # set-up here is the index build: every constructor and reachability
    # walk of ``_build_indexes``, timed untraced as one
    result.add("index.build_ms", 1000.0 * statistics.median(
        seconds for _began, seconds in setups), "ms", len(setups),
        "median set-up")
    result.add("corpus.generate_s", generate_s, "s")
    result.add("trace.overhead_frac",
               traced["wall"] / statistics.mean(p["wall"] for p in untraced)
               - 1.0, "frac")
    timed_s = sum(v for v in traced["latencies"] if v is not None) / 1000.0
    result.add("layers.unaccounted_frac",
               1.0 - layer_trace.total_self_s() / timed_s, "frac")
    result.info["engine_steps_first_pass"] = traced["steps"]
    return result
