"""The completion engine (Sec. 4.2, Algorithm 1).

``CompletionEngine.all_completions`` is the paper's ``AllCompletions``: a
generator of well-typed completions of a partial expression in ascending
score order.  Callers pull the top *n*; for ``.?*`` suffixes the underlying
stream is unbounded and exploration is bounded only by the configured chain
depth.

The implementation uses the optimizations the paper describes:

* subexpression scores are computed once (streams memoise, Materialized);
* completions are generated best-first rather than by looping over every
  integer score (``best_first`` / ``merge_nested`` in
  :mod:`repro.engine.streams` deliver the same order);
* the method index narrows unknown-call candidates to methods that can
  accept at least one argument (smallest candidate set wins);
* the reachability index prunes ``.?*`` chains when a target type is known;
* completions of each subexpression are grouped (per tuple) so type checks
  run once per type combination.

On top sits the resilience layer (``docs/RESILIENCE.md``): every query
may carry a :class:`~repro.engine.budget.QueryBudget` (deadline + step
budget + cancellation) that the stream combinators and index traversals
check cooperatively, and the optional subsystems — abstract-type oracle,
method index narrowing, reachability pruning, target-type checks — are
guarded so a failure degrades the query (recorded in
``QueryOutcome.degraded``) instead of aborting it.
"""

from __future__ import annotations

import enum
import time
import weakref
from dataclasses import astuple, dataclass, field
from functools import cached_property
from itertools import islice, product
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..analysis.scope import Context
from ..obs.attribution import ScoreBreakdown
from ..obs.metrics import DEFAULT_BOUNDS, Metrics
from ..obs.runlog import RunLog
from ..obs.trace import Span, Tracer
from ..testing import faults
from ..codemodel.members import Method, Parameter
from ..codemodel.types import TypeDef
from ..codemodel.typesystem import TypeSystem
from ..lang.ast import (
    Assign,
    Call,
    Compare,
    Expr,
    FieldAccess,
    Unfilled,
    Var,
    is_complete,
)
from ..lang.partial import (
    Hole,
    KnownCall,
    PartialAssign,
    PartialCompare,
    SuffixHole,
    UnknownCall,
)
from ..lang import parser
from ..lang.printer import to_source
from .budget import CancellationToken, QueryBudget
from .cache import CompletionCache, context_signature
from .index import MethodIndex, ReachabilityIndex
from .ranking import AbstractTypeOracle, Ranker, RankingConfig
from .streams import (
    Materialized,
    Scored,
    best_first,
    merge,
    merge_nested,
    ordered_product,
    reorder_with_slack,
)


@dataclass(frozen=True)
class EngineConfig:
    """Tunables of the completion engine.

    The bounds exist because some completion streams are infinite (the
    paper's generator "will usually continue producing more completions
    forever"): ``max_chain_depth`` bounds lookup chains, and the two
    candidate caps bound how many subexpression completions feed the
    cartesian stages.  When a cap truncates a search, lower-ranked
    completions are dropped — raise the caps to explore deeper.

    The config is immutable: a change is a new value made with
    :func:`dataclasses.replace`.
    """

    ranking: RankingConfig = field(default_factory=RankingConfig)
    #: maximum lookups a `.?*f` / `.?*m` / `?` chain may add
    max_chain_depth: int = 3
    #: maximum argument tuples expanded per unknown/known call query
    max_tuple_candidates: int = 2000
    #: maximum completions considered per side of an assignment/comparison
    max_side_candidates: int = 500
    #: prune chains with the reachability index when a target type is known
    use_reachability: bool = True
    #: allow completions like ``Document.OnDeserialization(0, size)`` where
    #: the receiver slot itself is left ``0`` (the paper permits any unfilled
    #: argument position)
    allow_unfilled_receiver: bool = True
    #: extension: let unknown-call queries complete to constructors
    #: (``new T(...)``) — "the version used for our experiments does not
    #: generate constructor calls when asked for an unknown method"
    generate_constructors: bool = False
    #: prove provably-empty queries empty before searching (see
    #: :mod:`repro.analysis.preflight`): ``complete_query`` then returns
    #: an empty outcome without expanding a single stream.  A cache
    #: replay with at least one completion skips the check: that answer
    #: already proves the query satisfiable
    preflight: bool = True
    #: memoise root pools and sub-streams across queries (see
    #: :mod:`repro.engine.cache` and docs/PERFORMANCE.md); budgeted and
    #: oracle-backed queries bypass the cache automatically
    enable_cache: bool = True

    @cached_property
    def _signature(self) -> tuple:
        """The tunables as a hashable cache-key component, computed once
        per config value."""
        return astuple(self)


class Completion:
    """One ranked completion.

    ``breakdown`` is ``None`` on the ordinary query path; the
    attribution APIs (:meth:`CompletionEngine.explain`, the CLI's
    ``--explain``) return copies with a
    :class:`~repro.obs.attribution.ScoreBreakdown` attached whose terms
    sum to ``score``.

    ``text`` (the source rendering) and ``depth`` (the lookup depth the
    ``completion_depth`` histogram tracks) are computed on first use and
    kept: a query's deduplication makes each completion once, and a
    whole-query cache replay hands out the same objects again, so a
    replayed answer is rendered and measured only once.
    """

    __slots__ = ("score", "expr", "breakdown", "_text", "_depth")

    def __init__(self, score: int, expr: Expr,
                 breakdown: Optional[ScoreBreakdown] = None) -> None:
        self.score = score
        self.expr = expr
        self.breakdown = breakdown
        self._text: Optional[str] = None
        self._depth: Optional[int] = None

    @property
    def text(self) -> str:
        """The completion's source text (``to_source(expr)``)."""
        if self._text is None:
            self._text = to_source(self.expr)
        return self._text

    @property
    def depth(self) -> int:
        """Lookup depth: member lookups (field accesses and calls) in
        the expression tree."""
        if self._depth is None:
            self._depth = _expr_depth(self.expr)
        return self._depth

    def _replace(self, **changes) -> "Completion":
        """A copy with some of ``score``/``expr``/``breakdown``
        replaced; a copy of the same expression keeps the rendering."""
        copy = Completion(**{"score": self.score, "expr": self.expr,
                             "breakdown": self.breakdown, **changes})
        if copy.expr is self.expr:
            copy._text, copy._depth = self._text, self._depth
        return copy

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Completion):
            return NotImplemented
        return (self.score == other.score and self.expr == other.expr
                and self.breakdown == other.breakdown)

    def __hash__(self) -> int:
        return hash((self.score, self.expr))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Completion(score={}, expr={!r})".format(self.score,
                                                       self.expr)


class QueryStatus(enum.Enum):
    """How a query concluded: complete, truncated (and why), or proven
    unsatisfiable.

    ``OK`` also covers an empty-but-complete answer; the three
    truncation members carry the same wire values the budget layer uses
    (``docs/RESILIENCE.md``), and ``UNSATISFIABLE`` means pre-flight
    proved the query empty and the search never ran
    (``docs/ANALYSIS.md``).
    """

    OK = "ok"
    TIMEOUT = "timeout"
    BUDGET = "budget"
    CANCELLED = "cancelled"
    UNSATISFIABLE = "unsatisfiable"

    @classmethod
    def from_truncation(cls, reason: Optional[str]) -> "QueryStatus":
        """Map a budget trip reason (or ``None``) to a status."""
        return cls.OK if reason is None else cls(reason)

    @property
    def truncation(self) -> Optional[str]:
        """The budget trip reason, or ``None`` when not truncated."""
        value = self.value
        return value if self in _TRUNCATED_STATUSES else None

    @property
    def is_truncated(self) -> bool:
        return self in _TRUNCATED_STATUSES


_TRUNCATED_STATUSES = frozenset(
    {QueryStatus.TIMEOUT, QueryStatus.BUDGET, QueryStatus.CANCELLED}
)


class QueryOutcome:
    """The full result of a budgeted query.

    ``status`` says how the query concluded (:class:`QueryStatus`):
    complete, truncated by its budget (``completions`` is then the
    best-so-far prefix), or proven empty by pre-flight analysis
    (``preflight_report`` carries the RA020/RA023 proof and ``steps``
    stays 0).  ``degraded`` names the optional features that failed and
    were neutralised during ranking (see :class:`Ranker`).  ``trace``
    is the exported span list when the query ran with tracing on
    (``None`` otherwise; see ``docs/OBSERVABILITY.md``).
    """

    def __init__(
        self,
        completions: List[Completion],
        status: QueryStatus = QueryStatus.OK,
        elapsed_ms: float = 0.0,
        steps: int = 0,
        degraded: Optional[Set[str]] = None,
        preflight_report: Optional[object] = None,
        cached: bool = False,
        trace: Optional[List[dict]] = None,
    ) -> None:
        self.completions = completions
        self.status = status
        self.elapsed_ms = elapsed_ms
        self.steps = steps
        self.degraded: Set[str] = degraded if degraded is not None else set()
        self.preflight_report = preflight_report
        #: the whole result stream was replayed from the cross-query
        #: cache (``steps`` is then the cost of the replay: usually 0)
        self.cached = cached
        self.trace = trace

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryOutcome):
            return NotImplemented
        return (
            self.completions == other.completions
            and self.status == other.status
            and self.elapsed_ms == other.elapsed_ms
            and self.steps == other.steps
            and self.degraded == other.degraded
            and self.cached == other.cached
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return ("QueryOutcome({} completions, status={}, steps={}, "
                "cached={})".format(len(self.completions), self.status.name,
                                    self.steps, self.cached))


@dataclass
class CompletionRequest:
    """One query of a :meth:`CompletionEngine.complete_many` batch.

    Budget *parameters* rather than a :class:`QueryBudget` instance: the
    budget starts its clock at construction, so the engine builds it when
    the query actually runs, not when the batch is assembled.
    """

    pe: Expr
    context: Context
    n: int = 10
    abstypes: Optional[AbstractTypeOracle] = None
    expected_type: Optional[TypeDef] = None
    keyword: Optional[str] = None
    timeout_ms: Optional[float] = None
    max_steps: Optional[int] = None
    token: Optional[CancellationToken] = None
    #: trace this query (span tree lands in ``QueryOutcome.trace``)
    trace: bool = False

    def make_budget(self) -> Optional[QueryBudget]:
        if (
            self.timeout_ms is None
            and self.max_steps is None
            and self.token is None
        ):
            return None
        return QueryBudget(
            deadline_ms=self.timeout_ms,
            max_steps=self.max_steps,
            token=self.token,
        )


class CompletionEngine:
    """Completes partial expressions against a library universe.

    The engine is long-lived (it owns the method/reachability indexes built
    from the type system); per-query state — scope context, abstract-type
    oracle, expected result type — is passed to each call.

    An engine is not thread-safe: it and its cached streams must stay on
    one thread, as each ``repro serve`` tenant's one-worker executor does.
    """

    def __init__(
        self,
        ts: TypeSystem,
        config: Optional[EngineConfig] = None,
        index: Optional[MethodIndex] = None,
        reachability: Optional[ReachabilityIndex] = None,
    ) -> None:
        self.ts = ts
        self.config = config or EngineConfig()
        if index is None:
            index = MethodIndex(ts)
        if reachability is None:
            reachability = ReachabilityIndex(
                ts, max_depth=self.config.max_chain_depth + 1
            )
        self.index = index
        self.reachability = reachability
        #: engine-wide observability counters and histograms (always on
        #: — per-query cost is a handful of dict increments); metric
        #: names are listed in docs/OBSERVABILITY.md
        self.metrics = Metrics()
        #: the cross-query cache, counting into :attr:`metrics`; used
        #: only while ``config.enable_cache`` is on
        self.cache = CompletionCache(self.metrics)
        #: structured run log (:mod:`repro.obs.runlog`): when attached,
        #: every finished query appends one ``kind == "query"`` record
        #: (with its span tree when traced) and ``complete_many``
        #: records batch events; None = off, zero cost
        self.run_log: Optional[RunLog] = None
        #: ``(pe, context, signature)`` of the last memoised parse, for
        #: the query that follows it (see :meth:`parse`)
        self._parsed: Optional[Tuple[Expr, Context, tuple]] = None

    # ------------------------------------------------------------------
    # dependency analysis plumbing
    # ------------------------------------------------------------------
    def dependency_graph(self):
        """The universe's shared
        :class:`~repro.analysis.deps.DependencyGraph` at the current
        type-system version (:func:`~repro.analysis.deps.dependency_graph`:
        patched after member edits, rebuilt after structural ones).
        Backs cache footprints, ``impact()``, and the RA1xx lints."""
        from ..analysis.deps import dependency_graph

        return dependency_graph(self.ts)

    def impact(self, type_names: Sequence[str]):
        """What editing these types can touch
        (:class:`~repro.analysis.deps.ImpactReport`), including how many
        live cache entries a member-level edit would invalidate."""
        return self.dependency_graph().impact(type_names, cache=self.cache)

    def _footprint(self, pe: Expr, target: Optional[TypeDef] = None):
        """The :class:`~repro.analysis.deps.QueryFootprint` of a
        cacheable stream for ``pe`` — its directly-read signature types,
        the chain reads of any suffix-hole seeds (a ``.?*`` hole takes
        up to ``max_chain_depth`` lookups), and the supertype closure of
        any unknown-call argument types — or ``None`` when the search is
        universe-wide (hole queries)."""
        from ..analysis.deps import QueryFootprint, footprint_seeds

        parts = footprint_seeds(pe, self.config.max_chain_depth)
        if parts is None:
            return None
        reads, chains, accepting = parts
        if target is not None:
            # the expected type only contributes conversion distances
            # (structural, hence coarse), but keep the direct read so an
            # edit to the target type itself refreshes the entry
            reads = reads | {target.full_name}
        if chains:
            reads = reads | self.dependency_graph().footprint(chains)
        closed_accepting = set()
        for name in accepting:
            typedef = self.ts.try_get(name)
            if typedef is None:
                closed_accepting.add(name)
                continue
            for parent in self.ts.supertype_closure(typedef):
                closed_accepting.add(parent.full_name)
        return QueryFootprint(
            reads=frozenset(reads),
            accepting=frozenset(closed_accepting),
        )

    def _root_group_makers(self, ranker: Ranker):
        """Builders for the grouped global-root pool: the full pool and
        the regenerate-named-groups patcher the cache calls after a
        fine-grained invalidation.  Root scores are context-independent
        (one dot off a ``TypeLiteral``), so any query's ranker serves."""
        from ..analysis.scope import global_roots_of

        ts = self.ts

        def make_groups():
            groups = {}
            for typedef in ts.all_types():
                roots = global_roots_of(ts, typedef)
                if roots:
                    groups[typedef.full_name] = [
                        (ranker.score(root), root) for root in roots
                    ]
            return groups

        def make_missing(names):
            regenerated = {}
            for name in names:
                typedef = ts.try_get(name)
                roots = (
                    global_roots_of(ts, typedef)
                    if typedef is not None else []
                )
                regenerated[name] = [
                    (ranker.score(root), root) for root in roots
                ]
            return regenerated

        return make_groups, make_missing

    # ------------------------------------------------------------------
    # cross-query cache plumbing
    # ------------------------------------------------------------------
    def _config_signature(self) -> tuple:
        """The engine tunables as a hashable cache-key component: a
        config replaced between queries never serves stale entries."""
        return self.config._signature

    def _stream_cache(
        self,
        abstypes: Optional[AbstractTypeOracle],
        budget: Optional[QueryBudget],
    ) -> Optional[CompletionCache]:
        """The cache, iff this query may share streams (see
        :mod:`repro.engine.cache` for why each condition exists)."""
        if not self.config.enable_cache:
            return None
        if abstypes is not None or budget is not None:
            return None
        if faults.active_plan() is not None:
            return None
        return self.cache

    def _query_key(
        self,
        pe: Expr,
        signature: tuple,
        expected_type: Optional[TypeDef],
        keyword: Optional[str],
    ) -> tuple:
        return (
            "query",
            pe.key(),
            signature,
            expected_type.full_name if expected_type is not None else None,
            keyword,
            self._config_signature(),
        )

    def _probe(
        self,
        pe: Expr,
        context: Context,
        abstypes: Optional[AbstractTypeOracle],
        expected_type: Optional[TypeDef],
        keyword: Optional[str],
        budget: Optional[QueryBudget],
        tracer: Optional[Tracer] = None,
    ) -> tuple:
        """The query's one counted whole-query cache lookup:
        ``(cache, key, replay)``.  ``cache`` and ``key`` are ``None``
        when the query may not share streams; ``replay`` is the cached
        stream on a hit, else ``None``.  A traced probe records a
        ``cache`` span (``hit`` 0/1).  It takes the context signature
        of the parse just before it, if that parse returned ``pe`` in
        ``context``."""
        parsed, self._parsed = self._parsed, None
        cache = self._stream_cache(abstypes, budget)
        if cache is None:
            return None, None, None
        if parsed is not None and parsed[0] is pe and parsed[1] is context:
            signature = parsed[2]
        else:
            signature = context_signature(context)
        key = self._query_key(pe, signature, expected_type, keyword)
        if tracer is None:
            return cache, key, cache.peek(self.ts, key)
        with tracer.span("cache") as span:
            replay = cache.peek(self.ts, key)
            span.set("hit", 1 if replay is not None else 0)
        return cache, key, replay

    def _completion_stream(
        self,
        pe: Expr,
        context: Context,
        abstypes: Optional[AbstractTypeOracle],
        expected_type: Optional[TypeDef],
        keyword: Optional[str],
        budget: Optional[QueryBudget],
        tracer: Optional[Tracer],
        probe: tuple,
    ) -> Tuple[Iterator[Completion], Optional["_Query"], bool]:
        """The deduplicated result stream of a query already looked up
        with :meth:`_probe`.  Returns ``(iterator, query, cached)``;
        ``query`` is ``None`` on a warm replay (no per-query state was
        built).  Nothing here proves satisfiability: callers that want
        pre-flight run it between the probe and this call, and only
        when the probe did not replay a non-empty stream.
        """
        cache, key, replay = probe
        if replay is not None:
            return iter(replay), None, True
        signature = None if key is None else key[2]  # see _query_key
        query = _Query(self, context, abstypes, expected_type, keyword,
                       budget, tracer, signature)
        stream = query.result_stream(pe)
        if cache is None:
            return stream, query, False
        shared = cache.insert(
            self.ts, key, stream,
            footprint=lambda: self._footprint(pe, expected_type),
        )
        return iter(shared), query, False

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def parse(
        self, source: str, context: Context, span: Optional[Span] = None
    ) -> Expr:
        """``source`` parsed in ``context``, memoised in the cross-query
        cache under ``(source, context_signature(context))`` until a
        member edit touches a type the parse read (see
        :mod:`repro.lang.parser`).  A miss, and every parse with the
        cache off or a fault plan armed, runs
        :func:`repro.lang.parser.parse`; a ``ParseError`` propagates and
        is not memoised.  A traced caller passes its ``parse`` span,
        which gets ``cached`` 0/1.

        The next query of the returned expression in the same
        ``context`` keys the cache with this signature instead of
        computing it again, so change a context before parsing in it,
        not between the parse and its query."""
        cache = self._stream_cache(None, None)
        if cache is None:
            pe, hit = parser.parse(source, context), False
        else:
            signature = context_signature(context)
            pe, hit = cache.parse(
                self.ts, (source, signature),
                lambda reads: parser.parse(source, context, reads))
            self._parsed = (pe, context, signature)
        if span is not None:
            span.set("cached", 1 if hit else 0)
        return pe

    def preflight(
        self,
        pe: Expr,
        context: Context,
        expected_type: Optional[TypeDef] = None,
        keyword: Optional[str] = None,
    ):
        """Static pre-flight analysis of a query (no search, no budget).

        Returns a :class:`~repro.analysis.preflight.PreflightReport`:
        proven-empty verdicts (RA020/RA023) plus advisory diagnostics.
        Imported lazily — the analysis layer depends on the engine, not
        the other way around.
        """
        from ..analysis.preflight import preflight_query

        return preflight_query(self, pe, context, expected_type, keyword)

    def _try_preflight(
        self,
        pe: Expr,
        context: Context,
        expected_type: Optional[TypeDef],
        keyword: Optional[str],
    ):
        """Pre-flight guarded like every optional subsystem: an analysis
        failure means "no proof", never a failed query."""
        try:
            return self.preflight(pe, context, expected_type, keyword)
        except Exception:
            return None

    def all_completions(
        self,
        pe: Expr,
        context: Context,
        abstypes: Optional[AbstractTypeOracle] = None,
        expected_type: Optional[TypeDef] = None,
        keyword: Optional[str] = None,
        budget: Optional[QueryBudget] = None,
    ) -> Iterator[Completion]:
        """All completions in ascending score order, deduplicated.

        ``expected_type`` filters results to those producing that type
        (pass ``ts.void_type`` to ask for void-returning calls) — the
        Figure 12 "known return type" mode.

        ``keyword`` is an extension beyond the paper (it notes API
        Explorer's keyword filter as something partial expressions lack):
        when given, unknown-call completions are restricted to methods
        whose name contains the keyword, case-insensitively.

        ``budget`` bounds the query (wall clock, steps, cancellation);
        when it trips, the stream ends after the best-so-far prefix and
        the caller reads ``budget.tripped`` for the reason.
        """
        stream, _query, _cached = self._completion_stream(
            pe, context, abstypes, expected_type, keyword, budget, None,
            self._probe(pe, context, abstypes, expected_type, keyword, budget),
        )
        return stream

    def complete(
        self,
        pe: Expr,
        context: Context,
        n: int = 10,
        abstypes: Optional[AbstractTypeOracle] = None,
        expected_type: Optional[TypeDef] = None,
        keyword: Optional[str] = None,
        budget: Optional[QueryBudget] = None,
    ) -> List[Completion]:
        """The top ``n`` completions."""
        stream = self.all_completions(
            pe, context, abstypes, expected_type, keyword, budget
        )
        return list(islice(stream, n))

    def complete_query(
        self,
        pe: Expr,
        context: Context,
        n: int = 10,
        abstypes: Optional[AbstractTypeOracle] = None,
        expected_type: Optional[TypeDef] = None,
        keyword: Optional[str] = None,
        budget: Optional[QueryBudget] = None,
        strict: bool = False,
        trace: bool = False,
        tracer: Optional[Tracer] = None,
    ) -> QueryOutcome:
        """The top ``n`` completions plus resilience metadata.

        This is the service entry point: it never hangs (given a budget)
        and never raises for an optional-feature failure.  With
        ``strict=True`` a tripped budget raises the matching taxonomy
        error (:class:`QueryTimeout` / :class:`BudgetExhausted` /
        :class:`QueryCancelled`) instead of returning a truncated
        outcome.

        ``trace=True`` traces this query; callers that already opened
        spans (the session's ``parse``) may hand in their own ``tracer``
        instead.  Either way the exported span list lands in
        ``QueryOutcome.trace``.  A traced query runs the same program as
        an untraced one: it probes, fills and replays the cross-query
        cache alike.
        """
        if tracer is None and trace:
            tracer = Tracer()
        outcome = self._run_query(
            pe, context, n, abstypes, expected_type, keyword, budget,
            strict, tracer,
        )
        if tracer is not None:
            tracer.finish()
            outcome.trace = tracer.to_dicts()
        self._record_outcome(outcome)
        if self.run_log is not None:
            self.run_log.query_event(to_source(pe), outcome)
        return outcome

    def _run_query(
        self,
        pe: Expr,
        context: Context,
        n: int,
        abstypes: Optional[AbstractTypeOracle],
        expected_type: Optional[TypeDef],
        keyword: Optional[str],
        budget: Optional[QueryBudget],
        strict: bool,
        tracer: Optional[Tracer],
    ) -> QueryOutcome:
        started = time.monotonic()
        root_span: Optional[Span] = None
        if tracer is not None:
            root_span = tracer.start("query")
            tracer._stack.append(root_span)
        try:
            probe = self._probe(pe, context, abstypes, expected_type,
                                keyword, budget, tracer)
            replay = probe[2]
            if replay is not None and replay.get(0) is not None:
                # a non-empty replay equals the cold answer, which already
                # proves the query satisfiable: pre-flight has nothing
                # left to prove
                if tracer is not None and self.config.preflight:
                    with tracer.span("preflight") as span:
                        span.set("cached", 1)
            elif self.config.preflight:
                if tracer is not None:
                    with tracer.span("preflight") as span:
                        report = self._try_preflight(
                            pe, context, expected_type, keyword)
                        if report is not None:
                            span.set("unsatisfiable",
                                     1 if report.unsatisfiable else 0)
                            span.set("diagnostics", len(report.diagnostics))
                else:
                    report = self._try_preflight(
                        pe, context, expected_type, keyword)
                if report is not None and report.unsatisfiable:
                    # proven empty: skip the search entirely — the budget
                    # is never ticked, so ``steps`` stays 0
                    return QueryOutcome(
                        completions=[],
                        status=QueryStatus.UNSATISFIABLE,
                        elapsed_ms=(time.monotonic() - started) * 1000.0,
                        steps=budget.steps if budget is not None else 0,
                        preflight_report=report,
                    )
            stream, query, cached = self._completion_stream(
                pe, context, abstypes, expected_type, keyword, budget, tracer,
                probe,
            )
            if tracer is not None:
                with tracer.span("collect") as span:
                    completions = list(islice(stream, n))
                    span.set("completions", len(completions))
                    span.set("cached", 1 if cached else 0)
            else:
                completions = list(islice(stream, n))
            truncated = budget.tripped if budget is not None else None
            if strict and budget is not None:
                budget.raise_if_tripped()
            if budget is not None:
                elapsed_ms = budget.elapsed_ms()
                steps = budget.steps
            else:
                elapsed_ms = (time.monotonic() - started) * 1000.0
                steps = query.meter.steps if query is not None else 0
            if root_span is not None:
                root_span.set("steps", steps)
                root_span.set("completions", len(completions))
                root_span.set("cached", 1 if cached else 0)
                if query is not None and query.sharing:
                    root_span.set("stream_hits", query.stream_hits)
                    root_span.set("stream_misses", query.stream_misses)
            return QueryOutcome(
                completions=completions,
                status=QueryStatus.from_truncation(truncated),
                elapsed_ms=elapsed_ms,
                steps=steps,
                degraded=set(query.degraded) if query is not None else set(),
                cached=cached,
            )
        finally:
            if tracer is not None and root_span is not None:
                if tracer._stack and tracer._stack[-1] is root_span:
                    tracer._stack.pop()
                tracer.end(root_span)

    def _record_outcome(self, outcome: QueryOutcome) -> None:
        """Tick the engine-wide metrics registry for one finished query
        (docs/OBSERVABILITY.md lists the names)."""
        counters = {
            "queries": 1,
            "completions_returned": len(outcome.completions),
        }
        if outcome.cached:
            counters["queries_cached"] = 1
        if outcome.status is QueryStatus.UNSATISFIABLE:
            counters["queries_unsatisfiable"] = 1
        reason = outcome.status.truncation
        if reason is not None:
            counters["queries_truncated"] = 1
            counters["queries_truncated_{}".format(reason)] = 1
        if outcome.degraded:
            counters["queries_degraded"] = 1
        observations = [
            ("steps_per_query", outcome.steps, DEFAULT_BOUNDS),
            ("elapsed_ms_per_query", outcome.elapsed_ms, _LATENCY_BOUNDS),
        ]
        depths = [completion.depth for completion in outcome.completions]
        self.metrics.record(counters, observations,
                            [("completion_depth", depths, _DEPTH_BOUNDS)])

    def explain(
        self,
        pe: Expr,
        context: Context,
        n: int = 10,
        rank: Optional[int] = None,
        abstypes: Optional[AbstractTypeOracle] = None,
        expected_type: Optional[TypeDef] = None,
        keyword: Optional[str] = None,
        budget: Optional[QueryBudget] = None,
    ) -> List[Completion]:
        """The top ``n`` completions with ranking attribution attached.

        Each returned :class:`Completion` carries a
        :class:`~repro.obs.attribution.ScoreBreakdown` whose per-term
        contributions sum exactly to ``score``.  Breakdowns are
        recomputed from the expression, so a cache-replayed outcome
        explains identically to a cold one (the breakdown is just
        marked ``cached``).  With ``rank`` given, only that 1-based
        rank is returned (empty list when out of range).  Explaining
        records no query: the metrics and the run log count only the
        queries asked, so explaining an answer already shown does not
        count it twice.
        """
        outcome = self._run_query(
            pe, context, n, abstypes, expected_type, keyword, budget,
            strict=False, tracer=None,
        )
        ranker = Ranker(context, self.config.ranking, abstypes)
        explained = [
            completion._replace(breakdown=ScoreBreakdown.from_ranker(
                ranker, completion.expr, cached=outcome.cached))
            for completion in outcome.completions
        ]
        if rank is not None:
            if not 1 <= rank <= len(explained):
                return []
            return [explained[rank - 1]]
        return explained

    def warm(self) -> None:
        """Build the long-lived shared state up front: method and
        reachability indexes, and (when the cache is live) the scored
        global chain-root pool every ``?`` query starts from.  Idempotent
        and cheap when already warm; ``complete_many`` calls it once per
        batch so no query in the batch pays first-query costs."""
        self.index.refresh()
        self.reachability.refresh()
        cache = self._stream_cache(None, None)
        if cache is None:
            return
        context = Context(self.ts)
        ranker = Ranker(context, self.config.ranking)
        make_groups, make_missing = self._root_group_makers(ranker)
        cache.global_roots(
            self.ts, self.config.ranking.depth, make_groups, make_missing
        )

    def complete_many(
        self,
        requests: Sequence[CompletionRequest],
    ) -> List[QueryOutcome]:
        """Run a batch of queries, in order, against shared warm state.

        The engine is warmed once and every query shares the cross-query
        cache; each query still runs under its own :class:`QueryBudget`,
        built from the request's budget parameters when the query starts.
        Outcomes are returned in request order.
        """
        requests = list(requests)
        if not requests:
            return []
        self.warm()
        self.metrics.incr("batches")
        self.metrics.observe("batch_size", len(requests))
        if self.run_log is not None:
            self.run_log.event("batch", size=len(requests))
        outcomes = [
            self.complete_query(
                request.pe,
                request.context,
                n=request.n,
                abstypes=request.abstypes,
                expected_type=request.expected_type,
                keyword=request.keyword,
                budget=request.make_budget(),
                trace=request.trace,
            )
            for request in requests
        ]
        self._annotate_cache_attribution()
        return outcomes

    def _annotate_cache_attribution(self) -> None:
        """Stamp the run-log manifest with the cache's invalidation
        attribution (coarse vs fine, entries preserved) after a batch."""
        if self.run_log is None or not self.config.enable_cache:
            return
        snapshot = self.cache.snapshot()
        self.run_log.annotate(cache={
            key: snapshot[key] for key in (
                "invalidations", "invalidations_coarse",
                "invalidations_fine", "entries_preserved",
                "entries_dropped", "hit_rate",
            )
        })

    def cache_stats(self) -> Optional[dict]:
        """Current cross-query cache counters, or ``None`` when the
        cache is disabled."""
        return self.cache.snapshot() if self.config.enable_cache else None

    def rank_of(
        self,
        pe: Expr,
        context: Context,
        truth: Expr,
        limit: int = 100,
        abstypes: Optional[AbstractTypeOracle] = None,
        expected_type: Optional[TypeDef] = None,
        budget: Optional[QueryBudget] = None,
    ) -> Optional[int]:
        """1-based rank of a known intended expression, or ``None`` when it
        is not among the first ``limit`` completions."""
        truth_key = truth.key()
        stream = self.all_completions(
            pe, context, abstypes, expected_type, budget=budget
        )
        for position, completion in enumerate(islice(stream, limit), start=1):
            if completion.expr.key() == truth_key:
                return position
        return None

    def method_rank(
        self,
        pe: Expr,
        context: Context,
        truth_method: Method,
        limit: int = 100,
        abstypes: Optional[AbstractTypeOracle] = None,
        expected_type: Optional[TypeDef] = None,
        budget: Optional[QueryBudget] = None,
    ) -> Optional[int]:
        """1-based rank of a method among the *distinct methods* suggested
        for an unknown-call query (how the paper counts Fig. 9/Table 1:
        "the algorithm is able to give the correct method in the top 10
        choices")."""
        seen_methods: Set[int] = set()
        stream = self.all_completions(
            pe, context, abstypes, expected_type, budget=budget
        )
        for completion in stream:
            expr = completion.expr
            if not isinstance(expr, Call):
                continue
            if id(expr.method) in seen_methods:
                continue
            seen_methods.add(id(expr.method))
            if expr.method is truth_method:
                return len(seen_methods)
            if len(seen_methods) >= limit:
                return None
        return None


#: elapsed-ms histogram buckets (sub-ms through multi-second queries)
_LATENCY_BOUNDS = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0,
                   1000.0, 3000.0)
#: completion-depth histogram buckets (chains rarely exceed the
#: configured ``max_chain_depth`` + call nesting)
_DEPTH_BOUNDS = (0, 1, 2, 3, 4, 6, 8)


def _expr_depth(expr: Expr) -> int:
    """Lookup depth of a completion — the number of member lookups
    (field accesses and calls) in the expression tree, the quantity the
    ``completion_depth`` histogram tracks."""
    depth = 1 if isinstance(expr, (FieldAccess, Call)) else 0
    for child in expr.children():
        depth += _expr_depth(child)
    return depth


def _node_kind(pe: Expr) -> str:
    """A short tag naming the query node for ``expand:<kind>`` spans."""
    if isinstance(pe, Hole):
        return "hole"
    if isinstance(pe, SuffixHole):
        kind = "methods" if pe.methods else "fields"
        return "suffix_star_" + kind if pe.star else "suffix_" + kind
    if isinstance(pe, UnknownCall):
        return "unknown_call"
    if isinstance(pe, KnownCall):
        return "known_call"
    if isinstance(pe, (PartialAssign, Assign)):
        return "assign"
    if isinstance(pe, (PartialCompare, Compare)):
        return "compare"
    return type(pe).__name__.lower()


def _dedup(
    stream: Iterator[Scored], span: Optional[Span] = None
) -> Iterator[Completion]:
    seen: Set[tuple] = set()
    for score, expr in stream:
        key = expr.key()
        if span is not None:
            span.add("in")
        if key in seen:
            if span is not None:
                span.add("duplicates")
            continue
        seen.add(key)
        if span is not None:
            span.add("out")
        yield Completion(score, expr)


class _Query:
    """Per-query state: context, ranker, budget, and the stream dispatcher.

    ``degraded`` is shared with the ranker, so every guarded subsystem
    (oracle, indexes, type checks) records failures into one per-query
    set.

    The query holds its engine weakly.  The engine's cache keeps the
    query's streams, and the streams keep the query, so a strong
    reference would make a cycle that only the garbage collector frees;
    this way a finished engine goes as soon as its last reference does.
    A query that outlives its engine runs on as a cache-off query, with
    the same answers.
    """

    def __init__(
        self,
        engine: CompletionEngine,
        context: Context,
        abstypes: Optional[AbstractTypeOracle],
        expected_type: Optional[TypeDef],
        keyword: Optional[str] = None,
        budget: Optional[QueryBudget] = None,
        tracer: Optional[Tracer] = None,
        signature: Optional[tuple] = None,
    ) -> None:
        self._engine = weakref.ref(engine)
        self.config = engine.config
        self.ts: TypeSystem = engine.ts
        self.index = engine.index
        self.reachability = engine.reachability
        self.context = context
        self.ranker = Ranker(context, engine.config.ranking, abstypes)
        self.expected_type = expected_type
        self.keyword = keyword.lower() if keyword else None
        self.budget = budget
        self.tracer = tracer
        #: what the combinators tick: the real budget when there is one,
        #: else a private unlimited budget so expansion-step counts are
        #: measured (and attributable) on every query
        self.meter = budget if budget is not None else QueryBudget()
        self.degraded = self.ranker.degraded
        #: may this query share streams through the engine's cache?
        self.sharing = engine._stream_cache(abstypes, budget) is not None
        #: this query's sub-stream lookups, by outcome (a traced query
        #: reports them on its ``query`` span)
        self.stream_hits = 0
        self.stream_misses = 0
        if self.sharing:
            #: the query key's context signature, when the caller has it
            self._ctx_sig = (signature if signature is not None
                             else context_signature(context))
            self._cfg_sig = engine._config_signature()

    def _sharing_engine(self) -> Optional[CompletionEngine]:
        """The engine whose cache this query shares, or ``None`` when
        the query runs cold (not sharing, or the engine is gone)."""
        return self._engine() if self.sharing else None

    def result_stream(self, pe: Expr) -> Iterator[Completion]:
        """The query's final stream: dispatch on ``pe``, then dedup."""
        stream = self.stream(pe, self.expected_type)
        if self.tracer is None:
            return _dedup(stream)
        span = self.tracer.start("dedup")
        return self.tracer.wrap_stream("dedup", _dedup(stream, span),
                                       span=span)

    # ------------------------------------------------------------------
    # cached sub-streams
    # ------------------------------------------------------------------
    def _shared(
        self,
        tag: str,
        pe: Expr,
        target: Optional[TypeDef],
        make: Callable[[], Iterable[Scored]],
    ):
        """A re-playable :class:`Materialized` stream for a
        subexpression: the cache's shared one when caching is on, a
        private one otherwise."""
        engine = self._sharing_engine()
        if engine is None:
            return Materialized(make())
        key = (
            tag,
            pe.key(),
            self._ctx_sig,
            target.full_name if target is not None else None,
            self.keyword,
            self._cfg_sig,
        )
        shared, hit = engine.cache.stream(
            self.ts, key, make,
            footprint=lambda: engine._footprint(pe, target),
        )
        self.stream_hits += hit
        self.stream_misses += not hit
        return shared

    def _materialized(self, pe: Expr, target: Optional[TypeDef]):
        return self._shared("sub", pe, target, lambda: self.stream(pe, target))

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def stream(self, pe: Expr, target: Optional[TypeDef]) -> Iterator[Scored]:
        """Completions of ``pe`` usable where ``target`` is expected
        (``None`` = anywhere), in ascending score order.

        Under tracing, every dispatch — the query root and each
        recursive subexpression — is wrapped in an ``expand:<kind>``
        span counting items yielded, pull time (``busy_ms``), and
        expansion steps charged while the stream was live."""
        if self.tracer is None:
            return self._expand(pe, target)
        meter = self.meter
        return self.tracer.wrap_stream(
            "expand:{}".format(_node_kind(pe)),
            self._expand(pe, target),
            steps=lambda: meter.steps,
        )

    def _expand(self, pe: Expr, target: Optional[TypeDef]) -> Iterator[Scored]:
        if isinstance(pe, Hole):
            return self._chain_stream(
                self._root_items(target),
                methods=True,
                max_steps=self.config.max_chain_depth,
                target=target,
            )
        if isinstance(pe, SuffixHole):
            return self._suffix_stream(pe, target)
        if isinstance(pe, UnknownCall):
            return self._unknown_call_stream(pe, target)
        if isinstance(pe, KnownCall):
            return self._known_call_stream(pe, target)
        if isinstance(pe, PartialAssign):
            assert target is None, "assignments cannot be subexpressions"
            return self._assign_stream(pe)
        if isinstance(pe, PartialCompare):
            assert target is None, "comparisons cannot be subexpressions"
            return self._compare_stream(pe)
        if isinstance(pe, Assign):
            return self._assign_stream(PartialAssign(pe.lhs, pe.rhs))
        if isinstance(pe, Compare):
            return self._compare_stream(PartialCompare(pe.lhs, pe.rhs, pe.op))
        if is_complete(pe):
            return self._singleton(pe, target)
        raise TypeError(
            "cannot complete {!r} nodes".format(type(pe).__name__)
        )

    def _singleton(self, expr: Expr, target: Optional[TypeDef]) -> Iterator[Scored]:
        if not self._fits(expr, target):
            return
        yield self.ranker.score(expr), expr

    def _fits(self, expr: Expr, target: Optional[TypeDef]) -> bool:
        if target is None:
            return True
        expr_type = expr.type
        if expr_type is None:  # Unfilled wildcard fits anywhere
            return True
        try:
            faults.fire("type_check")
            return self.ts.implicitly_converts(expr_type, target)
        except Exception:
            # conservative: an uncheckable candidate is dropped rather
            # than risking a type-incorrect suggestion
            self.degraded.add("type_check")
            return False

    # ------------------------------------------------------------------
    # chains: ?, .?f, .?m, .?*f, .?*m
    # ------------------------------------------------------------------
    def _root_items(self, target: Optional[TypeDef]) -> List[Scored]:
        """Scored chain roots for a ``?`` hole: locals then globals.

        The global pool (static fields and zero-argument static calls of
        *every* visible type — by far the expensive part of a fresh
        context) is shared across queries: its scores depend only on the
        ``depth`` ranking switch, never on the scope.
        """
        if self.tracer is None:
            return self._build_root_items()
        with self.tracer.span("root_pool") as span:
            items = self._build_root_items()
            span.set("roots", len(items))
        return items

    def _build_root_items(self) -> List[Scored]:
        items: List[Scored] = [
            (self.ranker.score(var), var) for var in self.context.local_vars()
        ]
        engine = self._sharing_engine()
        if engine is None:
            for root in self.context.global_roots():
                items.append((self.ranker.score(root), root))
        else:
            make_groups, make_missing = engine._root_group_makers(
                self.ranker)
            items.extend(engine.cache.global_roots(
                self.ts,
                self.config.ranking.depth,
                make_groups,
                make_missing,
            ))
        return items

    def _suffix_stream(
        self, pe: SuffixHole, target: Optional[TypeDef]
    ) -> Iterator[Scored]:
        roots = list(self._materialized(pe.base, None))
        max_steps = self.config.max_chain_depth if pe.star else 1
        return self._chain_stream(
            roots, methods=pe.methods, max_steps=max_steps, target=target
        )

    def _chain_stream(
        self,
        roots: Sequence[Scored],
        methods: bool,
        max_steps: int,
        target: Optional[TypeDef],
    ) -> Iterator[Scored]:
        """Best-first closure over lookup chains (Dijkstra on expressions).

        One successor table per stream maps ``(base_type, remaining)`` to
        the surviving ``(cost, member, is_call)`` edges, sorted by cost
        (stably, so ties keep lookup order) as :func:`best_first` wants
        them, and the number of reachability checks that built them; a
        hit charges those steps.  Nothing is stored once reachability has
        degraded."""
        ts = self.ts
        ranker = self.ranker
        meter = self.meter
        prune = target is not None and self.config.use_reachability
        table: Dict[Tuple[TypeDef, int], Tuple[list, int]] = {}

        def successors(base_type: TypeDef, remaining: int) -> list:
            entry = table.get((base_type, remaining))
            if entry is not None:
                meter.tick(entry[1])
                return entry[0]
            lookups = [(member.type, member, False)
                       for member in ts.instance_lookups(base_type)]
            if methods:
                lookups.extend(
                    (method.return_type, method, True)
                    for method in ts.zero_arg_instance_methods(base_type)
                    if method.return_type is not None
                )
            edges = [
                (ranker.lookup_step_cost(base_type, member.declaring_type),
                 member, is_call)
                for result_type, member, is_call in lookups
                if not prune
                or self._can_reach(result_type, target, remaining, methods)
            ]
            edges.sort(key=itemgetter(0))
            if "reachability" not in self.degraded:
                table[(base_type, remaining)] = (
                    edges, len(lookups) if prune else 0)
            return edges

        def expand(score: int, node: Tuple[Expr, int]) -> list:
            expr, steps = node
            base_type = expr.type
            if steps >= max_steps or base_type is None:
                return []
            return successors(base_type, max_steps - steps - 1)

        def build(node: Tuple[Expr, int], edge: tuple) -> Tuple[Expr, int]:
            expr, steps = node
            _cost, member, is_call = edge
            return (Call(member, (expr,)) if is_call
                    else FieldAccess(expr, member), steps + 1)

        seeds = [(score, (expr, 0)) for score, expr in roots]
        for score, (expr, _steps) in best_first(seeds, expand, build, meter):
            if self._fits(expr, target):
                yield score, expr

    def _can_reach(
        self, source: TypeDef, target: TypeDef, within: int, methods: bool
    ) -> bool:
        """Reachability pruning, degrading to *no pruning* (correct but
        slower) when the index fails."""
        try:
            return self.reachability.can_reach(
                source, target, within, methods, self.meter
            )
        except Exception:
            self.degraded.add("reachability")
            return True

    # ------------------------------------------------------------------
    # unknown calls: ?({e1, ..., en})
    # ------------------------------------------------------------------
    def _unknown_call_stream(
        self, pe: UnknownCall, target: Optional[TypeDef]
    ) -> Iterator[Scored]:
        arg_streams = [self._materialized(arg, None) for arg in pe.args]
        tuples = islice(
            ordered_product(arg_streams, self.meter),
            self.config.max_tuple_candidates,
        )

        def expand(base: int, args: tuple) -> List[Scored]:
            return self._methods_for_args(base, args, target)

        return merge_nested(tuples, expand, self.meter)

    def _candidate_methods(self, arg_types: List[Optional[TypeDef]]):
        """The narrowed candidate set, degrading to a full scan of every
        method when the index fails."""
        try:
            return self.index.candidate_methods(arg_types, self.meter)
        except Exception:
            self.degraded.add("method_index")
            return self.index.all_methods()

    def _methods_for_args(
        self, base: int, args: tuple, target: Optional[TypeDef]
    ) -> List[Scored]:
        """All method completions using exactly these argument expressions
        (cheapest argument placement per method)."""
        arg_types = [a.type for a in args]
        distance_maps = [None if arg_type is None
                         else self.ts.distances_from(arg_type)
                         for arg_type in arg_types]
        results: List[Tuple[int, str, Expr]] = []
        for method in self._candidate_methods(arg_types):
            params = method.all_params()
            if len(params) < len(args):
                continue
            if method.is_constructor and not self.config.generate_constructors:
                continue
            if not self._return_matches(method, target):
                continue
            if self.keyword is not None and self.keyword not in method.name.lower():
                continue
            best = self._best_placement(
                method, params, args, arg_types, distance_maps)
            if best is not None:
                score, call = best
                results.append((base + score, method.full_name, call))
        results.sort(key=lambda item: (item[0], item[1]))
        return [(score, call) for score, _name, call in results]

    def _best_placement(
        self,
        method: Method,
        params: Tuple[Parameter, ...],
        args: tuple,
        arg_types: List[Optional[TypeDef]],
        distance_maps: List[Optional[Dict[TypeDef, int]]],
    ) -> Optional[Tuple[int, Call]]:
        """Cheapest injective placement of the argument set into the
        method's parameter positions; remaining positions become ``0``.

        Each argument's row lists the positions it converts to with its
        type distance there, read from the argument type's distance map
        (a wildcard fits every position at distance 0).  The search walks
        the product of the rows, a depth-first order, so ties keep the
        first placement; each placement costs the sum of its slots'
        :meth:`Ranker.call_slot_cost`.  The placement-invariant
        :meth:`Ranker.call_fixed_cost` is added once, to the winner.
        ``None`` when no placement type-checks."""
        arity = len(params)
        rows: List[List[Tuple[int, int]]] = []
        for distances in distance_maps:
            if distances is None:
                row = [(position, 0) for position in range(arity)]
            else:
                row = []
                for position, param in enumerate(params):
                    distance = distances.get(param.type)
                    if distance is not None:
                        row.append((position, distance))
                if not row:
                    return None
            rows.append(row)

        # an unfilled receiver is a `0` receiver, which a property-like
        # zero-argument call never has (Ranker.call_completion_cost)
        receiver_required = not method.is_static and (
            not self.config.allow_unfilled_receiver
            or method.is_zero_arg_instance)
        slot_cost = self.ranker.call_slot_cost
        empty = Unfilled()
        best_cost: Optional[int] = None
        best_slots: List[Optional[Tuple[Expr, int]]] = []
        for choice in product(*rows):
            # (argument, type distance) per slot; None for an empty slot
            slots: List[Optional[Tuple[Expr, int]]] = [None] * arity
            for arg, (position, distance) in zip(args, choice):
                if slots[position] is not None:
                    break  # two arguments in one slot
                slots[position] = (arg, distance)
            else:
                receiver = None
                if not method.is_static and slots[0] is not None:
                    receiver = slots[0][0].type
                if receiver_required and receiver is None:
                    continue
                cost = 0
                for position, slot in enumerate(slots):
                    if slot is None:
                        cost += slot_cost(method, position, 0, receiver, empty)
                    else:
                        cost += slot_cost(method, position, slot[1], receiver,
                                          slot[0])
                if best_cost is None or cost < best_cost:
                    best_cost, best_slots = cost, slots
        if best_cost is None:
            return None
        placed = tuple(empty if slot is None else slot[0]
                       for slot in best_slots)
        return (best_cost + self.ranker.call_fixed_cost(method, arg_types),
                Call(method, placed))

    def _return_matches(self, method: Method, target: Optional[TypeDef]) -> bool:
        if target is None:
            return True
        if target is self.ts.void_type:
            return method.return_type is None
        if method.return_type is None:
            return False
        return self.ts.implicitly_converts(method.return_type, target)

    # ------------------------------------------------------------------
    # known calls: Name(e1, ..., en) with partial arguments
    # ------------------------------------------------------------------
    def _known_call_stream(
        self, pe: KnownCall, target: Optional[TypeDef]
    ) -> Iterator[Scored]:
        per_candidate: List[Iterator[Scored]] = []
        for method in pe.candidates:
            if method.arity != len(pe.args):
                continue
            if not self._return_matches(method, target):
                continue
            per_candidate.append(self._candidate_call_stream(method, pe.args))
        return merge(per_candidate, self.meter)

    def _candidate_call_stream(
        self, method: Method, args: Tuple[Expr, ...]
    ) -> Iterator[Scored]:
        params = method.all_params()
        arg_streams = [
            self._materialized(arg, param.type)
            for arg, param in zip(args, params)
        ]
        tuples = islice(
            ordered_product(arg_streams, self.meter),
            self.config.max_tuple_candidates,
        )

        def expand(base: int, values: tuple) -> List[Scored]:
            types = [v.type for v in values]
            extra = self.ranker.call_completion_cost(method, types, values)
            if extra is None:
                return []
            return [(base + extra, Call(method, values))]

        return merge_nested(tuples, expand, self.meter,
                            self.ranker.call_floor(method))

    # ------------------------------------------------------------------
    # binary expressions
    # ------------------------------------------------------------------
    def _side_stream(self, pe: Expr):
        # a distinct tag: side streams are truncated at
        # ``max_side_candidates`` and must never be confused with the
        # unbounded "sub" streams of the same subexpression
        return self._shared(
            "side",
            pe,
            None,
            lambda: islice(
                self.stream(pe, None), self.config.max_side_candidates
            ),
        )

    def _assign_stream(self, pe: PartialAssign) -> Iterator[Scored]:
        left = self._side_stream(pe.lhs)
        right = self._side_stream(pe.rhs)
        slack = Ranker.PAIR_TERM_SLACK
        ts = self.ts

        def pairs() -> Iterator[Tuple[int, int, Expr]]:
            for base, (lhs, rhs) in ordered_product([left, right], self.meter):
                if not _is_lvalue(lhs):
                    continue
                lhs_type, rhs_type = lhs.type, rhs.type
                if (
                    lhs_type is not None
                    and rhs_type is not None
                    and not ts.implicitly_converts(rhs_type, lhs_type)
                ):
                    continue
                extra = self.ranker.assign_pair_cost(lhs, rhs)
                if extra > slack:
                    continue
                yield base, base + extra, Assign(lhs, rhs)

        return reorder_with_slack(pairs(), slack, self.meter,
                                  self.ranker.pair_floor())

    def _compare_stream(self, pe: PartialCompare) -> Iterator[Scored]:
        left = self._side_stream(pe.lhs)
        right = self._side_stream(pe.rhs)
        slack = Ranker.PAIR_TERM_SLACK
        ts = self.ts

        def pairs() -> Iterator[Tuple[int, int, Expr]]:
            for base, (lhs, rhs) in ordered_product([left, right], self.meter):
                lhs_type, rhs_type = lhs.type, rhs.type
                if (
                    lhs_type is not None
                    and rhs_type is not None
                    and not ts.comparable(lhs_type, rhs_type)
                ):
                    continue
                extra = self.ranker.compare_pair_cost(lhs, rhs)
                if extra > slack:
                    continue
                yield base, base + extra, Compare(lhs, rhs, pe.op)

        return reorder_with_slack(pairs(), slack, self.meter,
                                  self.ranker.pair_floor())


def _is_lvalue(expr: Expr) -> bool:
    """Assignment targets: locals and (non-static-qualifier) field lookups."""
    if isinstance(expr, Var):
        return not expr.is_this
    return isinstance(expr, FieldAccess)
