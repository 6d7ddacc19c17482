"""The nested-merge cost floors against the search without them.

A known call hands ``merge_nested`` the ranker's call floor, and an
assignment or comparison hands ``reorder_with_slack`` the pair floor:
the least any result adds above its base, which lets the combinator
yield before it pulls the next argument tuple or pair.  Under the
know-nothing oracle both floors count one abstract-type mismatch per
slot (per pair).  The reference is the same query under an oracle that
subclasses ``AbstractTypeOracle`` and overrides nothing: it answers
exactly as the know-nothing oracle does, but the ranker cannot know
that, so its floors leave the mismatch out.  Both must return the same
completions, and the floored query must take no more steps, under every
ranking configuration, on known calls, assignments and comparisons in
the builtin universes and on a fixed sample of the corpus projects'
Sec. 5.2 argument queries.  A floor one too high fails the combinators'
assertions here.
"""

from __future__ import annotations

import pytest

from repro import RankingConfig, parse
from repro.corpus.projects import build_all_projects
from repro.engine.completer import CompletionEngine, EngineConfig
from repro.engine.ranking import NULL_ORACLE, AbstractTypeOracle
from repro.eval import queries as paper_queries

from .test_golden_completions import _universe

CONFIGS = [RankingConfig()] + [
    make(letter) for make in (RankingConfig.without, RankingConfig.only)
    for letter in RankingConfig._LETTERS
]

#: known calls, assignments and comparisons per builtin universe (one
#: pair of bare holes: under ``+a`` its reference takes half a second)
QUERIES = {
    "paint": ["System.Math.Max(?, ?)", "img.OnDeserialization(?)",
              "System.IO.Path.Combine(?, ?)",
              "CanvasSizeAction.FlipDocument(?, ?)", "size := ?",
              "? == ?", "img.?*f < size.?*f"],
    "geometry": ["DynamicGeometry.Math.Midpoint(point, ?)",
                 "System.Math.Min(?, ?)", "point.?f := ?", "? := this.?f",
                 "point.?*m >= this.?*m", "point.?*m < ?"],
    "bcl": ["now.AddDays(?)", "System.String.Format(?, ?)",
            "now.Subtract(?)", "? := now", "? := now.?m",
            "now.?*m != ?", "now.?*f == span.?*f"],
}

#: every CORPUS_STRIDE-th argument query of each corpus project, in
#: site order (about thirty in all)
CORPUS_STRIDE = 200


class _Blank(AbstractTypeOracle):
    """Knows nothing, like ``NULL_ORACLE``, without saying so."""


def _differential(runs):
    """Run each ``(engine, pe, context)`` floored and as the reference;
    return the two step totals after checking answers and steps."""
    floored_total = reference_total = 0
    for engine, pe, context in runs:
        floored = engine.complete_query(pe, context, abstypes=NULL_ORACLE)
        reference = engine.complete_query(pe, context, abstypes=_Blank())
        assert floored.completions == reference.completions, pe.key()
        assert floored.steps <= reference.steps, pe.key()
        floored_total += floored.steps
        reference_total += reference.steps
    return floored_total, reference_total


@pytest.mark.parametrize("ranking", CONFIGS, ids=lambda c: c.label())
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_floors_keep_builtin_answers(name, ranking):
    ts, context = _universe(name)
    engine = CompletionEngine(
        ts, EngineConfig(ranking=ranking, enable_cache=False))
    floored, reference = _differential(
        [(engine, parse(source, context), context)
         for source in QUERIES[name]])
    if ranking.abstract_types:
        assert floored < reference


def _corpus_argument_queries():
    """``(engine, pe, context)`` for every ``CORPUS_STRIDE``-th argument
    query of each project, one cache-off engine per project."""
    config = EngineConfig()
    for project in build_all_projects():
        engine = CompletionEngine(
            project.ts, EngineConfig(enable_cache=False))
        found = 0
        for impl, _index, call in project.iter_calls():
            context = impl.context(project.ts)
            for position, arg in enumerate(call.args):
                if not paper_queries.is_guessable_argument(
                        arg, context, config):
                    continue
                if found % CORPUS_STRIDE == 0:
                    yield (engine,
                           paper_queries.argument_query(call, position),
                           context)
                found += 1


def test_floors_keep_corpus_argument_answers():
    runs = list(_corpus_argument_queries())
    assert len(runs) >= 25
    floored, reference = _differential(runs)
    assert floored < reference
