"""Interactive completion sessions.

A :class:`CompletionSession` is the state an editor keeps per cursor
position: the scope (locals + ``this``), result-list size, an optional
keyword filter, and a history of queries.  ``accept`` implements the
paper's iterative-refinement loop: "The user may afterward decide to
convert the 0 to ? or some other partial expression."

:func:`open_session` is the one way a scope becomes a session and
:func:`render_record` the one text rendering of a query's result.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Union

from ..analysis.scope import Context
from ..codemodel.types import TypeDef
from ..engine.budget import CancellationToken, QueryBudget
from ..engine.completer import Completion, QueryStatus
from ..engine.ranking import AbstractTypeOracle
from ..obs.trace import Tracer
from ..lang.ast import Expr, Unfilled
from ..lang.parser import ParseError, parse
from ..lang.partial import Hole
from ..lang.printer import to_source
from .workspace import Workspace


@dataclass
class Suggestion:
    """One line of a result list."""

    rank: int
    score: int
    text: str
    expr: Expr


class AutoCompleteStatus(enum.Enum):
    """Why :meth:`CompletionSession.auto_complete` stopped."""

    CONVERGED = "converged"
    PARSE_ERROR = "parse_error"
    NO_SUGGESTIONS = "no_suggestions"
    NO_CONVERGENCE = "no_convergence"


@dataclass
class QueryRecord:
    """One history entry.

    ``status``/``elapsed_ms``/``degraded`` carry the resilience
    metadata of the underlying engine query: how it concluded
    (:class:`~repro.engine.completer.QueryStatus`), how long it ran,
    and which optional ranking features failed and were neutralised.
    ``truncated`` mirrors ``status.truncation`` for display.  ``cached``
    marks a whole-query cache replay, ``steps`` the expansion-step count
    the engine charged, and ``trace`` holds the exported span dicts when
    the session ran the query with tracing on.
    """

    source: str
    suggestions: List[Suggestion] = field(default_factory=list)
    error: Optional[str] = None
    elapsed_ms: Optional[float] = None
    truncated: Optional[str] = None
    degraded: Set[str] = field(default_factory=set)
    status: Optional[QueryStatus] = None
    cached: bool = False
    steps: int = 0
    trace: Optional[List[dict]] = None


#: a scope type: a resolved :class:`TypeDef` or a name to resolve
TypeRef = Union[str, TypeDef]


class ScopeError(ValueError):
    """A scope type that does not resolve; ``location`` names the
    binding (a local's name, ``this`` or ``expected``)."""

    def __init__(self, message: str, location: str) -> None:
        super().__init__(message)
        self.location = location


def require_positive(name: str, value):
    """``value`` when it is ``None`` or positive, else a
    :class:`ValueError` naming ``name``: a non-positive result count,
    deadline or step budget is a usage error on every surface."""
    if value is not None and value <= 0:
        raise ValueError("{} must be positive, got {}".format(name, value))
    return value


def render_record(record: "QueryRecord", breakdowns=None) -> List[str]:
    """The text lines of one query's result: the ranked suggestions, each
    followed by its ranking-term breakdown when ``breakdowns`` maps its
    rank to one, then the empty / degraded / truncated notes."""
    if record.error is not None:
        return ["parse error: {}".format(record.error)]
    lines = []
    for suggestion in record.suggestions:
        lines.append("{:>3}. (score {:>3}) {}".format(
            suggestion.rank, suggestion.score, suggestion.text))
        breakdown = (breakdowns or {}).get(suggestion.rank)
        if breakdown is not None:
            lines.append("        {}{}".format(
                "  ".join("{}={}".format(feature, value)
                          for feature, value in breakdown.rows())
                or "(no enabled terms)",
                "  (cache replay)" if breakdown.cached else ""))
    if not record.suggestions:
        lines.append("(no completions)")
    if record.degraded:
        lines.append("(degraded features: {})".format(
            ", ".join(sorted(record.degraded))))
    if record.truncated is not None:
        lines.append("(truncated: {} after {:.0f} ms — results are "
                     "best-so-far)".format(
                         record.truncated, record.elapsed_ms or 0.0))
    return lines


def holes_for_unfilled(expr: Expr) -> Expr:
    """Rewrite every ``0`` leftover into a fresh ``?`` hole, producing the
    next partial expression of an iterative refinement."""
    if isinstance(expr, Unfilled):
        return Hole()
    from ..lang.ast import Assign, Call, Compare, FieldAccess

    if isinstance(expr, Call):
        return Call(expr.method, tuple(holes_for_unfilled(a) for a in expr.args))
    if isinstance(expr, FieldAccess):
        return FieldAccess(holes_for_unfilled(expr.base), expr.member)
    if isinstance(expr, Assign):
        return Assign(holes_for_unfilled(expr.lhs), holes_for_unfilled(expr.rhs))
    if isinstance(expr, Compare):
        return Compare(
            holes_for_unfilled(expr.lhs), holes_for_unfilled(expr.rhs), expr.op
        )
    return expr


class CompletionSession:
    """Query loop state over a workspace."""

    def __init__(
        self,
        workspace: Workspace,
        locals: Optional[Dict[str, TypeDef]] = None,
        this_type: Optional[TypeDef] = None,
        n: int = 10,
        abstypes: Optional[AbstractTypeOracle] = None,
    ) -> None:
        self.workspace = workspace
        self.locals: Dict[str, TypeDef] = dict(locals or {})
        self.this_type = this_type
        self.n = n
        self.abstypes = abstypes
        self.keyword: Optional[str] = None
        self.expected_type: Optional[TypeDef] = None
        self.history: List[QueryRecord] = []
        #: per-query wall-clock deadline (None = unlimited)
        self.timeout_ms: Optional[float] = None
        #: per-query expansion-step budget (None = unlimited)
        self.step_budget: Optional[int] = None
        #: cooperative cancellation shared by subsequent queries
        self.cancellation: Optional[CancellationToken] = None
        #: why the last :meth:`auto_complete` run stopped
        self.auto_status: Optional[AutoCompleteStatus] = None
        #: trace every query this session runs (the REPL's ``:trace``);
        #: exported spans land in ``QueryRecord.trace``
        self.trace: bool = False

    # ------------------------------------------------------------------
    # scope manipulation
    # ------------------------------------------------------------------
    def _resolve(self, type_ref: TypeRef) -> TypeDef:
        if isinstance(type_ref, TypeDef):
            return type_ref
        return self.workspace.resolve_type(type_ref)

    def declare(self, name: str, type_ref: TypeRef) -> TypeDef:
        """``:let name Type`` — add a local to the scope."""
        typedef = self._resolve(type_ref)
        self.locals[name] = typedef
        return typedef

    def set_this(self, type_ref: Optional[TypeRef]) -> Optional[TypeDef]:
        self.this_type = None if type_ref is None else self._resolve(type_ref)
        return self.this_type

    def set_expected(self, type_ref: Optional[TypeRef]) -> Optional[TypeDef]:
        """Constrain results to a type (``void`` allowed), or clear."""
        if type_ref is None:
            self.expected_type = None
        elif type_ref == "void":
            self.expected_type = self.workspace.ts.void_type
        else:
            self.expected_type = self._resolve(type_ref)
        return self.expected_type

    def context(self) -> Context:
        return self.workspace.context(
            locals=dict(self.locals), this_type=self.this_type
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _make_budget(self) -> Optional[QueryBudget]:
        if (
            self.timeout_ms is None
            and self.step_budget is None
            and self.cancellation is None
        ):
            return None
        return QueryBudget(
            deadline_ms=self.timeout_ms,
            max_steps=self.step_budget,
            token=self.cancellation,
        )

    def _log_parse_failure(self, record: QueryRecord) -> None:
        """Parse failures never reach the engine, so its run log would
        miss them — record them here with status ``parse_error``."""
        run_log = self.workspace.run_log
        if run_log is not None:
            run_log.query_event(record.source, status="parse_error",
                                error=record.error, spans=record.trace)

    def _fill_record(self, record: QueryRecord, outcome) -> None:
        record.suggestions = [
            Suggestion(rank, completion.score, to_source(completion.expr),
                       completion.expr)
            for rank, completion in enumerate(outcome.completions, start=1)
        ]
        record.elapsed_ms = outcome.elapsed_ms
        record.status = outcome.status
        record.truncated = outcome.status.truncation
        record.degraded = set(outcome.degraded)
        record.cached = outcome.cached
        record.steps = outcome.steps
        record.trace = outcome.trace

    def complete(self, source: str) -> QueryRecord:
        """Parse and complete one partial expression; record it.

        Queries are best-effort under the session's budget settings: a
        tripped deadline/step budget yields the best-so-far suggestions
        with ``record.status`` naming the trip, and broken optional
        ranking features land in ``record.degraded`` — the query itself
        always returns.  With :attr:`trace` on, the record carries the
        full span tree (parsing included).
        """
        record = QueryRecord(source=source)
        context = self.context()
        tracer = Tracer() if self.trace else None
        try:
            if tracer is not None:
                with tracer.span("parse"):
                    pe = parse(source, context)
            else:
                pe = parse(source, context)
        except ParseError as error:
            record.error = str(error)
            if tracer is not None:
                tracer.finish()
                record.trace = tracer.to_dicts()
            self._log_parse_failure(record)
            self.history.append(record)
            return record
        outcome = self.workspace.engine.complete_query(
            pe,
            context,
            n=self.n,
            abstypes=self.abstypes,
            expected_type=self.expected_type,
            keyword=self.keyword,
            budget=self._make_budget(),
            tracer=tracer,
        )
        self._fill_record(record, outcome)
        self.history.append(record)
        return record

    def explain(
        self, rank: Optional[int] = None, source: Optional[str] = None
    ) -> List[Completion]:
        """Ranking attribution for the last query (or an explicit
        ``source``): the top suggestions with a
        :class:`~repro.obs.attribution.ScoreBreakdown` attached, whose
        terms sum to each score.  ``rank`` narrows to one 1-based rank.
        Returns ``[]`` when there is nothing to explain."""
        if source is None:
            record = self.last()
            if record is None or record.error is not None:
                return []
            source = record.source
        context = self.context()
        try:
            pe = parse(source, context)
        except ParseError:
            return []
        return self.workspace.engine.explain(
            pe,
            context,
            n=self.n,
            rank=rank,
            abstypes=self.abstypes,
            expected_type=self.expected_type,
            keyword=self.keyword,
            budget=self._make_budget(),
        )

    def complete_many(self, sources: List[str]) -> List[QueryRecord]:
        """Parse and complete a batch of partial expressions through
        :meth:`CompletionEngine.complete_many`, so every query shares the
        warmed indexes and the cross-query cache.  Records are appended
        to the history in input order; parse failures consume no engine
        time.
        """
        from ..engine.completer import CompletionRequest

        context = self.context()
        records = [QueryRecord(source=source) for source in sources]
        requests: List[CompletionRequest] = []
        targets: List[QueryRecord] = []
        for record in records:
            try:
                pe = parse(record.source, context)
            except ParseError as error:
                record.error = str(error)
                self._log_parse_failure(record)
                continue
            requests.append(CompletionRequest(
                pe=pe,
                context=context,
                n=self.n,
                abstypes=self.abstypes,
                expected_type=self.expected_type,
                keyword=self.keyword,
                timeout_ms=self.timeout_ms,
                max_steps=self.step_budget,
                token=self.cancellation,
                trace=self.trace,
            ))
            targets.append(record)
        outcomes = self.workspace.engine.complete_many(requests)
        for record, outcome in zip(targets, outcomes):
            self._fill_record(record, outcome)
        self.history.extend(records)
        return records

    def analyze(self, source: str):
        """Pre-flight a query without running it (the REPL's ``:lint``).

        Parses ``source`` in the session scope and returns a
        :class:`~repro.analysis.preflight.PreflightReport`: a parse
        failure becomes an RA022 diagnostic (with the failure's source
        span when the parser reports one), and a well-formed query gets
        the full satisfiability / dead-term analysis.
        """
        from ..analysis.diagnostics import diag
        from ..analysis.preflight import PreflightReport

        context = self.context()
        try:
            pe = parse(source, context)
        except ParseError as error:
            span = getattr(error, "span", None)
            report = PreflightReport(unsatisfiable=False)
            report.diagnostics.append(
                diag("RA022", str(error), location="query", span=span)
            )
            return report
        return self.workspace.engine.preflight(
            pe,
            context,
            expected_type=self.expected_type,
            keyword=self.keyword,
        )

    def accept(self, rank: int) -> Optional[str]:
        """Accept suggestion ``rank`` of the most recent query; returns the
        next query source with every leftover ``0`` turned into ``?`` (or
        the final source when nothing is left to fill)."""
        if not self.history or not self.history[-1].suggestions:
            return None
        suggestions = self.history[-1].suggestions
        if not 1 <= rank <= len(suggestions):
            return None
        chosen = suggestions[rank - 1].expr
        refined = holes_for_unfilled(chosen)
        return to_source(refined)

    def last(self) -> Optional[QueryRecord]:
        return self.history[-1] if self.history else None

    def auto_complete(
        self, source: str, max_iterations: int = 5
    ) -> Optional[str]:
        """Drive the paper's Figure 1 workflow to a fixpoint: query, take
        the top suggestion, turn its leftover ``0``s into ``?``s, and
        re-query until the top suggestion is fully concrete.

        Returns the final expression source, or ``None`` when a query
        fails or the loop does not converge within ``max_iterations``.
        ``self.auto_status`` records *why* it stopped (parse error, empty
        result list, or non-convergence), so callers can distinguish the
        ``None`` cases.
        """
        from ..lang.ast import iter_subtree

        current = source
        for _ in range(max_iterations):
            record = self.complete(current)
            if record.error is not None:
                self.auto_status = AutoCompleteStatus.PARSE_ERROR
                return None
            if not record.suggestions:
                self.auto_status = AutoCompleteStatus.NO_SUGGESTIONS
                return None
            top = record.suggestions[0].expr
            if not any(isinstance(n, Unfilled) for n in iter_subtree(top)):
                self.auto_status = AutoCompleteStatus.CONVERGED
                return to_source(top)
            current = to_source(holes_for_unfilled(top))
        self.auto_status = AutoCompleteStatus.NO_CONVERGENCE
        return None


def open_session(
    workspace: Workspace,
    locals: Optional[Dict[str, TypeRef]] = None,
    this: Optional[TypeRef] = None,
    expected: Optional[TypeRef] = None,
    keyword: Optional[str] = None,
    n: int = 10,
    timeout_ms: Optional[float] = None,
    max_steps: Optional[int] = None,
    trace: bool = False,
) -> CompletionSession:
    """A session over ``workspace`` with the given scope: ``locals``
    (name → type name or :class:`TypeDef`), ``this``, ``expected``
    (``"void"`` allowed), ``keyword``, result count ``n``, deadline
    ``timeout_ms``, step budget ``max_steps`` and ``trace``.

    Raises :class:`ValueError` for a non-positive ``n``, ``timeout_ms``
    or ``max_steps``, and :class:`ScopeError` (a ``ValueError``) for a
    scope type that does not resolve.
    """
    session = CompletionSession(workspace, n=require_positive("n", n))
    session.timeout_ms = require_positive("timeout_ms", timeout_ms)
    session.step_budget = require_positive("max_steps", max_steps)
    location = "locals"
    try:
        for location, type_ref in (locals or {}).items():
            session.declare(location, type_ref)
        location = "this"
        session.set_this(this)
        location = "expected"
        session.set_expected(expected)
    except ValueError as error:
        raise ScopeError(str(error), location) from None
    session.keyword = keyword
    session.trace = trace
    return session
