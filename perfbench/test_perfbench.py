"""Self-tests of the benchmark (not part of the repository's test suite).

Run from the root of a checkout::

    PYTHONPATH=src:perfbench python3 -m pytest -q perfbench/test_perfbench.py

They pin what later performance claims rest on: the same seed gives the
same draw, the same expansion-step total, the same accuracy, the same
dropped-query counts and the same answers; the edit stream of
``corpus-edit-warm`` ends on the same universes; another seed draws other
queries; and the layer wrappers account self time correctly.
"""

from __future__ import annotations

import random
import time

import pytest

import corpus_cold
import edit_warm
from common import REFERENCE_LOOP_S, HostSpeed, Result
from corpus_queries import (
    PROJECT_BUILDERS,
    build_corpus,
    stratified_draw,
    truth_top10_frac,
)
from layers import LayerTrace

#: held out from tuning: claims made against this benchmark must also
#: hold on this seed
HELD_OUT_SEED = 20261016

#: queries per determinism pass (a prefix of the draw keeps this quick)
PREFIX = 120


@pytest.fixture(scope="module")
def corpora():
    projects = list(PROJECT_BUILDERS)
    return build_corpus(projects), build_corpus(projects)


def _pass(corpus, seed):
    from repro.engine.completer import EngineConfig

    draw = stratified_draw(corpus, random.Random("corpus-cold:{}".format(
        seed)), corpus_cold.FRACTIONS)[:PREFIX]
    config = EngineConfig()
    runner = corpus_cold._Pass(corpus_cold._prepared(corpus, draw),
                               corpus_cold._build_indexes(corpus, config),
                               config)
    outcome = runner.run(Result())
    return draw, outcome


def test_same_seed_repeats_exactly(corpora):
    first_corpus, second_corpus = corpora
    assert first_corpus.dropped == second_corpus.dropped
    assert sum(first_corpus.dropped.values()) > 0
    draw_a, run_a = _pass(first_corpus, 7)
    draw_b, run_b = _pass(second_corpus, 7)
    assert [q.source for q in draw_a] == [q.source for q in draw_b]
    assert run_a["steps"] == run_b["steps"] > 0
    assert truth_top10_frac(first_corpus) == truth_top10_frac(second_corpus)
    assert (corpus_cold.digest(draw_a, run_a["answers"])
            == corpus_cold.digest(draw_b, run_b["answers"]))


def test_other_seed_changes_the_draw(corpora):
    corpus = corpora[0]
    draws = [stratified_draw(corpus, random.Random(
        "corpus-cold:{}".format(seed)), corpus_cold.FRACTIONS)
        for seed in (7, 8, HELD_OUT_SEED)]
    assert len({tuple(q.source for q in draw) for draw in draws}) == 3
    # the mix of projects and families does not depend on the seed
    mixes = [sorted((q.project, q.family) for q in draw) for draw in draws]
    assert mixes[0] == mixes[1] == mixes[2]


def test_dropped_queries_do_not_round_trip(corpora):
    corpus = corpora[0]
    assert all(q.source for q in corpus.queries)
    assert corpus.dropped["5.2"] > 0  # receiver holes have no source text


def test_edit_stream_ends_on_the_same_universes():
    """Edits are never undone, so the universes each query runs on must
    follow from the seed alone: a phase runs a fixed number of operations,
    however long they take.  Every repeat of the stream, in one process
    or another, must run the same operations on the same universes and
    give the same answers, since each operation's time is its median
    over the repeats."""
    states = []
    for _ in range(2):
        corpus = build_corpus(edit_warm.PROJECTS)
        stream_state, phases, pristine = edit_warm._draw(corpus, 5)
        for _repeat in range(2):
            universes, _setup = edit_warm._fresh_universes(pristine)
            result = Result()
            stream = edit_warm._Stream(result, universes, stream_state,
                                       oracle=True)
            stream.enter_phase(phases[0])
            stream.drive(300)
            assert result.failed == 0, result.failures
            states.append((stream.kinds, stream.answers,
                           [(u.ts.version, u.ts.fingerprint(fresh=True))
                            for u in universes]))
    assert all(state == states[0] for state in states)
    assert len(states[0][0]) >= 300 and "edit" in states[0][0]


def test_host_slowdown_comes_from_the_bursts_around_a_moment():
    host = HostSpeed()
    host.stamps = [10.0, 20.0, 30.0]
    host.fastest = [REFERENCE_LOOP_S, 2 * REFERENCE_LOOP_S,
                    4 * REFERENCE_LOOP_S]
    assert host.slowdown_at(5.0) == pytest.approx(1.0)
    assert host.slowdown_at(15.0) == pytest.approx(1.5)
    assert host.slowdown_at(25.0) == pytest.approx(3.0)
    assert host.slowdown_at(35.0) == pytest.approx(4.0)
    assert host.slowdown() == pytest.approx(2.0)
    # a scaled time is the measured one divided by the slowdown
    result = Result()
    result.add_setup("", [(15.0, 0.3), (25.0, 0.6)], host.slowdown_at)
    assert result.metrics["setup_s"].value == pytest.approx(0.2)


class _Toy:
    def outer(self):
        time.sleep(0.02)
        return self.inner() + self.inner()

    def inner(self):
        time.sleep(0.01)
        return 1


def test_layer_only_if_skips_unrecorded_calls():
    trace = LayerTrace()
    trace.wrap(_Toy, "inner", "inner", only_if=lambda toy: toy.record)
    toy = _Toy()
    try:
        toy.record = False
        assert toy.inner() == 1
        toy.record = True
        assert toy.inner() == 1
    finally:
        trace.uninstall()
    assert trace.calls["inner"] == 1


def test_layer_self_time_subtracts_wrapped_children():
    trace = LayerTrace()
    trace.wrap(_Toy, "outer", "outer")
    trace.wrap(_Toy, "inner", "inner")
    try:
        assert _Toy().outer() == 2
    finally:
        trace.uninstall()
    assert trace.calls["outer"] == 1 and trace.calls["inner"] == 2
    assert trace.self_time["outer"] == pytest.approx(0.02, abs=0.008)
    assert trace.self_time["inner"] == pytest.approx(0.02, abs=0.008)
    assert trace.total_self_s() == pytest.approx(trace.busy["outer"])
    assert _Toy.outer.__name__ == "outer" and not hasattr(
        _Toy.outer, "__wrapped__")
