"""Benchmark inputs: the paper's Sec. 5 queries over the corpus projects.

Every query is kept as *source text plus scope* (locals and ``this`` by
full type name), the form a user types and the form the HTTP protocol
carries, so one query can run cold in-process, warm through a
``CompletionSession``, and over the wire, and all three answers can be
compared.  A query whose ``to_source`` text does not parse back to the
same ``key()`` in that scope is dropped and counted (an integer literal
argument such as ``?({65})`` is the known case).

Everything here is input generation: callers time it as
``corpus.generate_s``, never as set-up.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.scope import Context
from repro.corpus.projects import PROJECT_BUILDERS
from repro.engine.completer import EngineConfig
from repro.eval import queries as paper_queries
from repro.lang.parser import ParseError, parse
from repro.lang.printer import to_source

#: corpus scale: 1.0 is the evaluation corpus the paper's figures use
SCALE = 1.0

#: query families, named after the paper section that defines them
METHOD, ARGUMENT, ASSIGNMENT, COMPARISON = "5.1", "5.2", "5.3a", "5.3c"
FAMILIES = (METHOD, ARGUMENT, ASSIGNMENT, COMPARISON)


@dataclass(frozen=True)
class BenchQuery:
    """One partial-expression query in a corpus project's scope."""

    project: str
    family: str
    source: str
    #: (local name, full type name) pairs, in declaration order
    locals: Tuple[Tuple[str, str], ...]
    this: Optional[str]
    #: Sec. 5.1 only: full name of the method written at the call site
    truth: Optional[str] = None

    def wire_body(self) -> Dict[str, object]:
        """The scope fields of a ``/v1/complete`` request."""
        body: Dict[str, object] = {"locals": dict(self.locals)}
        if self.this is not None:
            body["this"] = self.this
        return body


def context_for(ts, query: BenchQuery) -> Context:
    """The scope a session (or the server) builds for ``query``: locals
    and ``this`` resolved by full name, no separate enclosing type."""
    this_type = ts.get(query.this) if query.this is not None else None
    return Context(
        ts,
        locals={name: ts.get(type_name) for name, type_name in query.locals},
        this_type=this_type,
    )


@dataclass
class Corpus:
    """The projects a workload needs and every query extracted from them."""

    projects: Dict[str, object]
    queries: List[BenchQuery]
    #: queries whose source text did not round-trip, per family
    dropped: Dict[str, int]
    generate_s: float

    def type_systems(self) -> Dict[str, object]:
        """Each project's universe, by project name."""
        return {name: project.ts for name, project in self.projects.items()}

    def pool(self, project: str, family: str) -> List[BenchQuery]:
        return [q for q in self.queries
                if q.project == project and q.family == family]


def build_corpus(project_names: Sequence[str]) -> Corpus:
    """Synthesize the named projects and extract their Sec. 5 queries."""
    started = time.perf_counter()
    projects = {name: PROJECT_BUILDERS[name](SCALE) for name in project_names}
    config = EngineConfig()
    queries: List[BenchQuery] = []
    dropped = {family: 0 for family in FAMILIES}
    for name, project in projects.items():
        for family, pe, impl, truth in _extract(project, config):
            query = _as_bench_query(project, family, pe, impl, truth)
            if query is None:
                dropped[family] += 1
            else:
                queries.append(query)
    return Corpus(projects, queries, dropped,
                  time.perf_counter() - started)


def _extract(project, config: EngineConfig):
    """Every Sec. 5 query of one project, in site order, as
    ``(family, partial expression, impl, truth method name)``."""
    ts = project.ts
    for impl, _index, call in project.iter_calls():
        context = impl.context(ts)
        if call.method.arity >= 2:
            for subset in paper_queries.method_query_subsets(call):
                yield (METHOD, paper_queries.unknown_call_query(subset),
                       impl, call.method.full_name)
        for position, arg in enumerate(call.args):
            if paper_queries.is_guessable_argument(arg, context, config):
                yield (ARGUMENT, paper_queries.argument_query(call, position),
                       impl, None)
    for impl, _index, assign in project.iter_assignments():
        for _variant, target, source in paper_queries.ASSIGNMENT_VARIANTS:
            pe = paper_queries.assignment_query(assign, target, source)
            if pe is not None:
                yield ASSIGNMENT, pe, impl, None
    for impl, _index, compare in project.iter_comparisons():
        for _variant, left, right in paper_queries.COMPARISON_VARIANTS:
            pe = paper_queries.comparison_query(compare, left, right)
            if pe is not None:
                yield COMPARISON, pe, impl, None


def _as_bench_query(project, family, pe, impl, truth) -> Optional[BenchQuery]:
    method = impl.method
    this = (None if method.is_static or method.declaring_type is None
            else method.declaring_type.full_name)
    query = BenchQuery(
        project=project.name,
        family=family,
        source=to_source(pe),
        locals=tuple((name, typedef.full_name)
                     for name, typedef in impl.all_locals().items()
                     if name != "this"),
        this=this,
        truth=truth,
    )
    try:
        reparsed = parse(query.source, context_for(project.ts, query))
    except (ParseError, KeyError):
        return None
    return query if reparsed.key() == pe.key() else None


def stratified_draw(
    corpus: Corpus, rng: random.Random, fractions: Dict[str, float]
) -> List[BenchQuery]:
    """A seeded systematic sample of ``fractions[family]`` of every
    (project, family) pool, returned in seeded order.

    Each pool is walked in site order at an even stride from a seeded
    offset, so the mix of projects, families and call sites is the same
    for every seed and only the members change."""
    drawn: List[BenchQuery] = []
    for project in corpus.projects:
        for family in FAMILIES:
            pool = corpus.pool(project, family)
            count = round(len(pool) * fractions.get(family, 0.0))
            if count == 0:
                continue
            stride = len(pool) / count
            offset = rng.random() * stride
            drawn.extend(pool[int(offset + i * stride)] for i in range(count))
    rng.shuffle(drawn)
    return drawn


def draw_counts(corpus: Corpus, rng: random.Random, project: str,
                counts: Dict[str, int]) -> List[BenchQuery]:
    """A seeded sample of ``counts[family]`` queries of each family of one
    project, in seeded order: the family mix is the same for every seed."""
    drawn: List[BenchQuery] = []
    for family in FAMILIES:
        if counts.get(family):
            drawn.extend(rng.sample(corpus.pool(project, family),
                                    counts[family]))
    rng.shuffle(drawn)
    return drawn


#: every TRUTH_STRIDE-th method query of each project, in site order
TRUTH_STRIDE = 24


def truth_top10_frac(corpus: Corpus) -> Tuple[float, int]:
    """Share of a fixed sample of Sec. 5.1 queries (every
    ``TRUTH_STRIDE``-th of each project's pool, in site order) whose cold
    top 10 calls the method written at the site, and the sample size.

    The sample does not depend on the seed: accuracy is deterministic, and
    a seeded sample of a few hundred queries would move it by several
    percent from seed to seed."""
    cold = ColdReference(corpus.type_systems())
    hits = total = 0
    for project in corpus.projects:
        for query in corpus.pool(project, METHOD)[::TRUTH_STRIDE]:
            outcome = cold.outcome(query)
            total += 1
            hits += truth_in_top10(outcome.completions, query.truth)
    return hits / total, total


def truth_in_top10(completions, truth: str) -> bool:
    """Does one of the top 10 completions call the method written at the
    site (``truth``, a method's full name)?"""
    from repro.lang.ast import Call

    return any(isinstance(c.expr, Call) and c.expr.method.full_name == truth
               for c in completions[:10])


class ColdReference:
    """The slow reference: each query on a fresh ``CompletionEngine`` over
    prebuilt indexes of the current state of ``type_systems`` (the
    universe of each project, by project name)."""

    def __init__(self, type_systems: Dict[str, object]) -> None:
        from repro.engine.index import MethodIndex, ReachabilityIndex

        self.type_systems = type_systems
        self.config = EngineConfig()
        depth = self.config.max_chain_depth + 1
        self.indexes = {
            name: (MethodIndex(ts), ReachabilityIndex(ts, max_depth=depth))
            for name, ts in type_systems.items()
        }

    def outcome(self, query: BenchQuery):
        from repro.engine.completer import CompletionEngine

        ts = self.type_systems[query.project]
        index, reach = self.indexes[query.project]
        engine = CompletionEngine(ts, self.config, index=index,
                                  reachability=reach)
        context = context_for(ts, query)
        return engine.complete_query(parse(query.source, context), context,
                                     n=10)
