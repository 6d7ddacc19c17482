"""Workload ``corpus-edit-warm``: warm queries mixed with member edits.

One long-lived workspace each for the two largest corpus projects, WiX
and .NET.  A seeded, Zipf-skewed stream of queries over a small working
set of their Sec. 5.1 and 5.3 queries is sent as source text through
``CompletionSession.complete``; about every tenth operation is a seeded
member edit (``add_field`` / ``add_method`` / ``set_member_order``) on a
seeded type, and the operation after an edit is a query on the edited
universe.  Closed loop, one thread.

The stream moves through several phases, each with its own seeded working
set (the user moves on to other code; the workspaces and their caches
stay).  Which few queries are hot decides most of a phase's figures, so
pooling several phases keeps one lucky or unlucky draw from setting them.

Edits are never undone, so every query runs on a universe grown by the
edits before it.  Each phase therefore runs a fixed number of operations
(derived from ``--seconds``, not from the clock): a faster or slower
program or host runs the same stream and ends on the same universes.

The whole stream runs ``REPEATS`` times, each time on a fresh copy of the
unedited universes with freshly opened workspaces, so every repeat does
the same work in the same order.  Every operation's time is scaled to
reference host speed (see ``common.HostSpeed``; the host's speed is
sampled after every phase) and then taken as its median over the
repeats.  Opening the workspaces is the set-up, so each repeat is also
one set-up repeat.

Sec. 5.2 queries (a ``?`` argument) are left out of the working set: a
bare hole searches the whole universe, so every edit drops its cache
entry and it exercises no fine-grained invalidation, while its cold cost
(tens of ms) would make the figures depend on how many the seed drew.
"""

from __future__ import annotations

import gc
import itertools
import pickle
import random
import statistics
import time
from typing import List, Optional

from common import (
    HostSpeed,
    Result,
    answer_of,
    answer_of_completions,
    check_battery_in_process,
    per_item_median,
    self_peak_rss_mb,
    unscaled,
)
from corpus_queries import (
    ASSIGNMENT,
    COMPARISON,
    METHOD,
    ColdReference,
    build_corpus,
    context_for,
    draw_counts,
    truth_top10_frac,
)
from layers import CacheTally, LayerTrace, install_engine_layers, report_engine_layers
from serve_probe import serve_layers

PROJECTS = ("WiX", ".NET")
#: working-set queries per universe and family, in each phase
WORKING_SET = {METHOD: 20, ASSIGNMENT: 8, COMPARISON: 2}
#: phases per stream, each with a fresh working set
PHASES = 6
#: runs of the whole stream, each on fresh copies of the universes
REPEATS = 3
#: operations per ``--seconds`` second, over all repeats, fixed once:
#: about the rate of the closed loop when the benchmark was introduced (on
#: a 2-core virtual machine).  A run of ``s`` seconds runs
#: ``OPS_PER_SECOND * s / (PHASES * REPEATS)`` operations per phase.
OPS_PER_SECOND = 320
#: Zipf exponent of the query popularity
ZIPF_S = 0.8
#: share of operations that are edits
EDIT_RATE = 0.1
#: share of edits followed by an untimed check against a fresh engine
CHECK_RATE = 0.03
#: operations of the fixed stream the traced run replays twice
TRACED_OPS = 6000
#: measured seconds of the serving probe that adds the ``serve.*`` and
#: ``pack.*`` layers to this workload's traced run (see ``serve_probe``)
SERVE_PROBE_SECONDS = 8


class _Universe:
    """One long-lived workspace and its Zipf-weighted working set."""

    def __init__(self, name, ts) -> None:
        self.name = name
        self.ts = ts
        self.working_set = []
        self.weights = []
        self.scopes = []
        builtin = {"System.Object", "System.ValueType", "System.Enum",
                   "System.String", "void"}
        self.edit_targets = sorted(
            (t for t in ts.all_types()
             if t.full_name not in builtin and t.kind.value != "primitive"
             and (t.fields or t.properties or t.methods)),
            key=lambda t: t.full_name)
        self.member_types = sorted(
            (t for t in ts.all_types() if t.kind.value != "primitive"),
            key=lambda t: t.full_name)
        self.workspace = None

    def open(self):
        """Set-up: the workspace with its method index, root pools,
        dependency graph and every reachability walk built."""
        from repro.api import Workspace

        workspace = Workspace(self.ts, name=self.name)
        engine = workspace.engine
        engine.warm()
        engine.dependency_graph()
        for typedef in self.ts.all_types():
            engine.reachability.reachable(typedef, False)
            engine.reachability.reachable(typedef, True)
        return workspace

    def use(self, working_set) -> None:
        """Make ``working_set`` the queries this universe is asked, the
        first one the most popular."""
        self.working_set = working_set
        self.weights = list(itertools.accumulate(
            1.0 / (rank ** ZIPF_S) for rank in range(1, len(working_set) + 1)))
        self.scopes = [
            ({name: self.ts.get(type_name) for name, type_name in query.locals},
             self.ts.get(query.this) if query.this is not None else None)
            for query in working_set
        ]

    def pick(self, rng: random.Random) -> int:
        return rng.choices(range(len(self.working_set)),
                           cum_weights=self.weights)[0]

    def complete(self, position: int):
        from repro.ide.session import CompletionSession

        local_types, this_type = self.scopes[position]
        session = CompletionSession(self.workspace, locals=local_types,
                                    this_type=this_type, n=10)
        return session.complete(self.working_set[position].source)

    def edit(self, rng: random.Random, serial: int) -> None:
        from repro.codemodel.members import Field, Method, Parameter

        target = rng.choice(self.edit_targets)
        kind = rng.choice(("add_field", "add_method", "set_member_order"))
        if kind == "add_field":
            target.add_field(Field("pbField{}".format(serial),
                                   rng.choice(self.member_types)))
        elif kind == "add_method":
            param = Parameter("p0", rng.choice(self.member_types))
            target.add_method(Method("PbMethod{}".format(serial),
                                     rng.choice(self.member_types),
                                     params=(param,)))
        else:
            target.set_member_order(
                fields=rng.sample(target.fields, len(target.fields)),
                methods=rng.sample(target.methods, len(target.methods)))


def _operations(rng: random.Random, universes: List[_Universe]):
    """The seeded operation stream: ``("query", universe, position,
    after_edit, check)`` or ``("edit", universe, serial)``.  Edits pick
    their universe in proportion to its editable types, as if every type
    of both universes were equally likely to be edited."""
    serial = 0
    edited = None
    edit_weights = list(itertools.accumulate(
        len(universe.edit_targets) for universe in universes))
    while True:
        if edited is not None:
            check = rng.random() < CHECK_RATE
            yield "query", edited, edited.pick(rng), True, check
            edited = None
        elif rng.random() < EDIT_RATE:
            serial += 1
            edited = rng.choices(universes, cum_weights=edit_weights)[0]
            yield "edit", edited, serial
        else:
            universe = rng.choice(universes)
            yield "query", universe, universe.pick(rng), False, False


def _draw(corpus, seed: int):
    """Input generation: every phase's seeded working sets, the state of
    the random generator that drives the operation stream, and the
    unedited universes, pickled, to be copied for every repeat."""
    rng = random.Random("corpus-edit-warm:{}".format(seed))
    phases = [[draw_counts(corpus, rng, name, WORKING_SET)
               for name in PROJECTS] for _ in range(PHASES)]
    pristine = {name: pickle.dumps(corpus.projects[name].ts,
                                   pickle.HIGHEST_PROTOCOL)
                for name in PROJECTS}
    return rng.getstate(), phases, pristine


def _fresh_universes(pristine):
    """Set-up on fresh copies of the unedited universes: the universes
    with their workspaces opened, and when the opening began and how many
    seconds it took."""
    universes = [_Universe(name, pickle.loads(blob))
                 for name, blob in pristine.items()]
    gc.collect()
    began = time.perf_counter()
    for universe in universes:
        universe.workspace = universe.open()
    return universes, (began, time.perf_counter() - began)


class _Stream:
    """One run of the operation stream over a set of universes.

    ``times`` holds every operation's time in ms and ``kinds`` its kind
    (``edit``, ``query`` or ``post_edit``, the query right after an
    edit), in stream order; ``answers`` every answer given, warm-pass
    fills included.  With ``oracle`` the answers are checked against
    fresh engines (every warm-pass fill, and the post-edit queries the
    stream marks for a check); the other repeats are checked against the
    oracle repeat's answers."""

    def __init__(self, result: Result, universes, stream_state,
                 oracle: bool, layer_trace: Optional[LayerTrace] = None
                 ) -> None:
        self.result = result
        self.universes = universes
        self.oracle = oracle
        self.layer_trace = layer_trace
        self.rng = random.Random()
        self.rng.setstate(stream_state)
        self.operations = _operations(self.rng, universes)
        self.times: List[float] = []
        self.stamps: List[float] = []
        self.kinds: List[str] = []
        self.answers: List[object] = []
        self.edits = self.checks = 0

    def enter_phase(self, working_sets) -> None:
        """Make ``working_sets`` current and fill the caches with every
        working-set query (untimed)."""
        for universe, working_set in zip(self.universes, working_sets):
            universe.use(working_set)
        cold = (ColdReference({u.name: u.ts for u in self.universes})
                if self.oracle else None)
        for universe in self.universes:
            for position, query in enumerate(universe.working_set):
                self.result.attempted += 1
                record = universe.complete(position)
                answer = (record.error, answer_of(record.suggestions))
                self.answers.append(answer)
                if cold is not None and answer != (None, answer_of_completions(
                        cold.outcome(query).completions)):
                    self.result.fail("warm {}: {!r} differs from the cold "
                                     "answer".format(universe.name,
                                                     query.source))

    def drive(self, ops: int) -> None:
        """Run the next ``ops`` operations of the stream, and the query
        after a last edit; the untimed checks after edits pause the layer
        trace."""
        result = self.result
        done = 0
        after_edit = False
        while after_edit or done < ops:
            operation = next(self.operations)
            done += 1
            result.attempted += 1
            if operation[0] == "edit":
                _kind, universe, serial = operation
                began = time.perf_counter()
                try:
                    universe.edit(self.rng, serial)
                except Exception as error:  # noqa: BLE001 - counted, reported
                    result.fail("{}: edit {} raised {!r}".format(
                        universe.name, serial, error))
                self._timed("edit", began)
                self.edits += 1
                after_edit = True
                continue
            _kind, universe, position, after_edit, check = operation
            kind = "post_edit" if after_edit else "query"
            began = time.perf_counter()
            try:
                record = universe.complete(position)
            except Exception as error:  # noqa: BLE001 - counted, reported
                self._timed(kind, began)
                self.answers.append(repr(error))
                result.fail("{}: {!r} raised {!r}".format(
                    universe.name, universe.working_set[position].source,
                    error))
                continue
            self._timed(kind, began)
            answer = answer_of(record.suggestions)
            self.answers.append(answer)
            if record.error is not None or record.truncated or record.degraded:
                result.fail("{}: {!r} error={} truncated={} degraded={}".format(
                    universe.name, record.source, record.error,
                    record.truncated, sorted(record.degraded)))
            elif check and self.oracle:
                self.checks += 1
                if self.layer_trace is not None:
                    self.layer_trace.enabled = False
                expected = _fresh_answer(universe, position)
                if self.layer_trace is not None:
                    self.layer_trace.enabled = True
                if answer != expected:
                    result.fail("{}: {!r} after an edit differs from a "
                                "fresh engine".format(universe.name,
                                                      record.source))

    def run(self, phases, phase_ops: int, host: HostSpeed) -> "_Stream":
        """Every phase: fill its working sets, then ``phase_ops``
        operations of the stream, then sample the host's speed.  The
        universes are let go afterwards, so the next repeat's set-up does
        not share the heap with them."""
        for working_sets in phases:
            self.enter_phase(working_sets)
            self.drive(phase_ops)
            host.sample()
        self.universes = self.operations = None
        return self

    def _timed(self, kind: str, began: float) -> None:
        self.stamps.append(began)
        self.times.append((time.perf_counter() - began) * 1000.0)
        self.kinds.append(kind)


def _fresh_answer(universe: _Universe, position: int):
    """A fresh engine over the (mutated) universe: the post-edit oracle."""
    from repro.engine.completer import CompletionEngine
    from repro.lang.parser import parse

    query = universe.working_set[position]
    context = context_for(universe.ts, query)
    outcome = CompletionEngine(universe.ts).complete_query(
        parse(query.source, context), context, n=10)
    return answer_of_completions(outcome.completions)


def _index_rebuilds(universes) -> int:
    """Whole-index rebuilds the workspaces' indexes have made so far."""
    return sum(u.workspace.engine.index.rebuilds
               + u.workspace.engine.reachability.rebuilds
               for u in universes)


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    corpus = build_corpus(PROJECTS)
    generate_started = time.perf_counter()
    stream_state, phases, pristine = _draw(corpus, seed)
    generate_s = corpus.generate_s + time.perf_counter() - generate_started
    if trace:
        return _traced(result, seed, stream_state, phases, pristine,
                       generate_s)
    truth, truth_samples = truth_top10_frac(corpus)
    check_battery_in_process(result)

    phase_ops = max(1, round(OPS_PER_SECOND * seconds / (PHASES * REPEATS)))
    setups = []
    streams: List[_Stream] = []
    host = HostSpeed()
    for repeat in range(REPEATS):
        universes = None
        host.sample()
        universes, setup = _fresh_universes(pristine)
        setups.append(setup)
        host.sample()
        streams.append(_Stream(result, universes, stream_state,
                               oracle=repeat == 0)
                       .run(phases, phase_ops, host))
        if repeat:
            _check_repeat(result, streams[0], streams[-1])
    first = streams[0]
    note = "median of {} repeats".format(REPEATS)
    for prefix, scale, how in (("", host.slowdown_at,
                                "at reference host speed; "),
                               ("measured_", unscaled, "")):
        times = per_item_median([
            [ms / scale(began) for began, ms in zip(s.stamps, s.times)]
            for s in streams])
        latencies = [t for t, kind in zip(times, first.kinds)
                     if kind == "query"]
        post_edit = [t for t, kind in zip(times, first.kinds)
                     if kind == "post_edit"]
        queries = len(latencies) + len(post_edit)
        result.add_setup(prefix, setups, scale)
        # the first query after each edit has its own metric; the query
        # percentiles describe the others, whose cost is mostly a replay
        # or a partial recompute
        result.add_latency(prefix + "query", latencies, how + note)
        result.add(prefix + "queries_per_s", queries / (sum(times) / 1000.0),
                   "1/s", queries, how + "edits included; each operation "
                   "at its " + note)
        result.add(prefix + "post_edit_query_p50_ms",
                   statistics.median(post_edit), "ms", len(post_edit),
                   how + note)
    result.add_host(host)
    result.add_failure_metrics()
    result.add("truth_top10_frac", truth, "frac", truth_samples,
               "unedited universes")
    result.add("peak_rss_mb", self_peak_rss_mb(), "MB")
    result.info["repeat_busy_s"] = [round(sum(s.times) / 1000.0, 3)
                                    for s in streams]
    result.info["operations_per_repeat"] = len(first.times)
    result.info["edits_per_repeat"] = first.edits
    result.info["checks_after_edit"] = first.checks
    result.info["universe_versions"] = [u.ts.version for u in universes]
    result.info["dropped_queries"] = corpus.dropped
    result.info["corpus_generate_s"] = round(generate_s, 3)
    return result


def _check_repeat(result: Result, first: _Stream, repeat: _Stream) -> None:
    """A repeat must run the same operations and give the same answers as
    the first (checked) run of the stream."""
    if repeat.kinds != first.kinds:
        result.fail("a repeat ran another operation stream")
    for index, (expected, answer) in enumerate(zip(first.answers,
                                                   repeat.answers)):
        if answer != expected:
            result.fail("repeat answer {} differs from the first "
                        "run's".format(index))


def _traced(result: Result, seed: int, stream_state, phases, pristine,
            generate_s: float) -> Result:
    """Per-layer run: the same fixed operation stream on two fresh copies
    of the universes, once untraced and once traced."""
    walls = {}
    for traced in (False, True):
        universes, _setup = _fresh_universes(pristine)
        layer_trace = LayerTrace()
        cache = CacheTally()
        if traced:
            install_engine_layers(layer_trace)
        try:
            layer_trace.enabled = False
            stream = _Stream(result if traced else Result(), universes,
                             stream_state, oracle=True,
                             layer_trace=layer_trace)
            stream.enter_phase(phases[0])
            before = [u.workspace.cache_stats() for u in universes]
            rebuilds = _index_rebuilds(universes)
            layer_trace.enabled = True
            began = time.perf_counter()
            stream.drive(TRACED_OPS)
            walls[traced] = time.perf_counter() - began
            for universe, stats in zip(universes, before):
                cache.add(universe.workspace.cache_stats(), stats)
            rebuilds = _index_rebuilds(universes) - rebuilds
        finally:
            layer_trace.uninstall()
    report_engine_layers(result, layer_trace, cache)
    result.add("index.rebuilds", rebuilds, "count")
    result.add("corpus.generate_s", generate_s, "s")
    result.add("trace.overhead_frac", walls[True] / walls[False] - 1.0,
               "frac")
    result.add("layers.unaccounted_frac",
               1.0 - layer_trace.total_self_s() / (sum(stream.times) / 1000.0),
               "frac")
    result.info["edits"] = stream.edits
    serve_layers(result, seed, SERVE_PROBE_SECONDS)
    return result
