"""The single public facade of the ``repro`` package.

Everything a library consumer needs is importable from here (and
re-exported by ``repro`` itself): the task-level functions —

* :func:`open_workspace` — a universe plus its engine,
* :func:`complete` / :func:`complete_many` — run queries,
* :func:`explain` — ranking attribution for a query,
* :func:`lint` — static diagnostics,
* :func:`impact` — "what would editing these types invalidate?",
* :func:`profile` — deterministic self-time profile of traced queries,

plus the stable types behind them (engine, language, analysis,
observability).  Deeper modules (``repro.engine``, ``repro.obs``, …)
remain importable but are internal layering; new code should depend on
this surface.

Each function is the one implementation of its operation; the CLI and
the REPL call it.  ``scope`` keywords go to
:func:`~repro.ide.session.open_session`, which raises
:class:`ValueError` for a non-positive limit or an unknown scope type.

Quickstart::

    from repro import open_workspace, complete, explain

    workspace = open_workspace("paint")
    record = complete(workspace, "?({img, size})",
                      locals={"img": "PaintDotNet.Document",
                              "size": "System.Drawing.Size"})
    for suggestion in record.suggestions:
        print(suggestion.rank, suggestion.score, suggestion.text)
    for completion in explain(workspace, "?({img, size})",
                              locals={"img": "PaintDotNet.Document",
                                      "size": "System.Drawing.Size"}):
        print(completion.breakdown.rows())
"""

from __future__ import annotations

from typing import List, Optional, Union

from .analysis.abstract_types import AbstractTypeAnalysis
from .analysis.deps import (
    DependencyGraph,
    ImpactReport,
    QueryFootprint,
    expand_mutations,
    footprint_seeds,
    lint_dependencies,
    method_param_types,
)
from .analysis.diagnostics import (
    Diagnostic,
    Severity,
    diag,
    sort_diagnostics,
)
from .analysis.codemodel_lint import lint_type_system
from .analysis.preflight import PreflightReport, preflight_query
from .analysis.sanitize import run_sanitizer_probes
from .analysis.scope import Context
from .codemodel import (
    Field,
    LibraryBuilder,
    Method,
    Parameter,
    Property,
    TypeDef,
    TypeKind,
    TypeSystem,
)
from .engine import (
    CancellationToken,
    Completion,
    CompletionCache,
    CompletionEngine,
    CompletionRequest,
    EngineConfig,
    MethodIndex,
    QueryBudget,
    QueryOutcome,
    QueryStatus,
    Ranker,
    RankingConfig,
    ReachabilityIndex,
    check_stream,
    sanitize_streams,
    sanitizer_active,
)
from .errors import (
    BudgetExhausted,
    CompletionError,
    CorpusError,
    FeatureUnavailable,
    PackCorruptError,
    PackError,
    PackStaleError,
    QueryCancelled,
    QueryTimeout,
    StreamInvariantViolation,
)
from .ide.session import (
    AutoCompleteStatus,
    CompletionSession,
    QueryRecord,
    ScopeError,
    Suggestion,
    open_session,
    require_positive,
)
from .ide.workspace import Workspace
from .lang import (
    Assign,
    Call,
    Compare,
    Expr,
    FieldAccess,
    Hole,
    KnownCall,
    Literal,
    ParseError,
    PartialAssign,
    PartialCompare,
    SuffixHole,
    TypeLiteral,
    Unfilled,
    UnknownCall,
    Var,
    derivable,
    parse,
    to_source,
    well_typed,
)
from .obs import (
    Histogram,
    Metrics,
    Profile,
    RunLog,
    ScoreBreakdown,
    Span,
    Tracer,
    ndjson_to_dicts,
    profile_traces,
    read_run_log,
    trace_to_ndjson,
    validate_runlog_text,
    validate_trace_text,
)

def _sniff_format(path: str) -> Optional[str]:
    """The ``"format"`` value of a JSON artifact file, read from its
    first few KB (works for both one-document files and the two-line
    pack layout)."""
    import re

    try:
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            head = handle.read(4096)
    except OSError:
        return None
    match = re.search(r'"format"\s*:\s*"([a-z0-9_-]+)"', head)
    return match.group(1) if match else None


def open_workspace(
    source: Union[str, TypeSystem],
    config: Optional[EngineConfig] = None,
    cache_enabled: Optional[bool] = None,
    *,
    expect_fingerprint: Optional[str] = None,
) -> Workspace:
    """The one constructor: a :class:`Workspace` from any universe
    source.

    ``source`` may be:

    * a builtin universe key — ``"paint"``, ``"geometry"``, ``"bcl"``;
    * an already-built :class:`TypeSystem`;
    * a path to a ``repro-universe`` document (``repro dump-universe``);
    * a path to a ``repro-project`` document (a serialized corpus
      project — the workspace carries the project and its analyses);
    * a path to a ``repro-pack`` artifact (:mod:`repro.pack`), restored
      without rebuilding indexes — the millisecond cold-start path.

    ``expect_fingerprint`` pins the universe content hash: the call
    raises :class:`~repro.errors.PackStaleError` when the opened
    universe's :meth:`~TypeSystem.fingerprint` disagrees.
    """
    if isinstance(source, TypeSystem):
        workspace = Workspace(source, config=config,
                              cache_enabled=cache_enabled)
    elif source in Workspace.BUILTIN:
        workspace = Workspace.builtin(source, config)
        if cache_enabled is not None:
            workspace.cache_enabled = cache_enabled
    else:
        import os

        if not os.path.exists(source):
            raise ValueError(
                "unknown universe {!r}: not a builtin key ({}) and no such "
                "file".format(source, ", ".join(sorted(Workspace.BUILTIN))))
        kind = _sniff_format(source)
        if kind == "repro-pack":
            from .pack import load_pack as _load_pack

            return _load_pack(source, config=config,
                              cache_enabled=cache_enabled,
                              expect_fingerprint=expect_fingerprint)
        if kind == "repro-project":
            from .serialize import open_project

            workspace = Workspace.corpus_project(open_project(source), config)
            if cache_enabled is not None:
                workspace.cache_enabled = cache_enabled
        elif kind == "repro-universe":
            import json

            from .serialize import load_type_system

            with open(source, "r", encoding="utf-8") as handle:
                ts = load_type_system(json.load(handle))
            name = os.path.splitext(os.path.basename(source))[0]
            workspace = Workspace(ts, name=name, config=config,
                                  cache_enabled=cache_enabled)
        else:
            raise ValueError(
                "{!r} is not a recognised artifact: expected a repro-pack, "
                "repro-universe, or repro-project document".format(source))
    if expect_fingerprint is not None:
        actual = workspace.ts.fingerprint(fresh=True)
        if actual != expect_fingerprint:
            from .errors import PackStaleError

            raise PackStaleError(
                "universe fingerprint mismatch: caller expects {} but "
                "{!r} hashes to {}".format(
                    expect_fingerprint,
                    source if isinstance(source, str) else workspace.name,
                    actual),
                expected=expect_fingerprint, actual=actual)
    return workspace


def build_pack(
    source: Union[str, TypeSystem, Workspace],
    path: str,
    config: Optional[EngineConfig] = None,
) -> dict:
    """Snapshot a universe source (anything :func:`open_workspace`
    accepts, or an existing :class:`Workspace`) into a pack artifact at
    ``path``; returns the pack header (format, checksum, meta).  See
    ``docs/ARTIFACTS.md``."""
    from .pack import build_pack as _build_pack

    workspace = (source if isinstance(source, Workspace)
                 else open_workspace(source, config=config))
    return _build_pack(workspace, path)


def load_pack(
    path: str,
    config: Optional[EngineConfig] = None,
    cache_enabled: Optional[bool] = None,
    expect_fingerprint: Optional[str] = None,
) -> Workspace:
    """Open a pack artifact as a ready :class:`Workspace` (checksum- and
    fingerprint-verified; raises
    :class:`~repro.errors.PackCorruptError` /
    :class:`~repro.errors.PackStaleError`).  Equivalent to
    :func:`open_workspace` on the path, spelled explicitly."""
    from .pack import load_pack as _load_pack

    return _load_pack(path, config=config, cache_enabled=cache_enabled,
                      expect_fingerprint=expect_fingerprint)


def complete(
    workspace: Workspace, source: str, **scope
) -> QueryRecord:
    """Parse and complete one partial expression.

    ``scope`` keywords: ``locals`` (name → type name or
    :class:`TypeDef`), ``this``, ``n``, ``expected``, ``keyword``,
    ``timeout_ms``, ``max_steps``, ``trace``.  Returns the session's
    :class:`QueryRecord` (ranked suggestions plus status / timing /
    trace metadata); repeated calls against one workspace share its
    engine's warm indexes and cross-query cache.
    """
    return open_session(workspace, **scope).complete(source)


def complete_many(
    workspace: Workspace,
    sources: List[str],
    **scope,
) -> List[QueryRecord]:
    """Complete a batch of partial expressions under one shared scope
    (same keywords as :func:`complete`); indexes warm once and the
    queries share the cross-query cache."""
    return open_session(workspace, **scope).complete_many(sources)


def explain(
    workspace: Workspace,
    source: str,
    rank: Optional[int] = None,
    **scope,
) -> List[Completion]:
    """Ranking attribution for one query (same keywords as
    :func:`complete`): the top completions, each carrying a
    :class:`ScoreBreakdown` whose per-term contributions sum exactly to
    its score.  ``rank`` narrows the list to one 1-based entry."""
    return open_session(workspace, **scope).explain(rank=rank, source=source)


def lint(
    workspace: Workspace,
    query: Optional[str] = None,
    sanitize: bool = False,
    **scope,
) -> List[Diagnostic]:
    """Static diagnostics: the universe's code-model lint (RA00x),
    optionally the stream-sanitizer probes, and — when ``query`` is
    given — pre-flight analysis of that partial expression under
    ``scope`` (same keywords as :func:`complete`).  A scope type that
    does not resolve is an RA021 finding, not an exception; the query
    then is not analysed."""
    diagnostics = workspace.lint(sanitize=sanitize)
    if query is not None:
        try:
            report = open_session(workspace, **scope).analyze(query)
        except ScopeError as error:
            diagnostics.append(
                diag("RA021", str(error), location=error.location))
        else:
            diagnostics.extend(report.diagnostics)
        diagnostics = sort_diagnostics(diagnostics)
    return diagnostics


def impact(
    workspace: Workspace, *type_names: str
) -> ImpactReport:
    """Answer "which completion state can editing these types touch?" —
    the reverse-dependency closure over the workspace's universe
    (affected types, global root pools, indexed methods, and the live
    cache's blast radius).  Accepts full names, unique simple names, or
    primitive keywords.  See ``docs/ANALYSIS.md``."""
    full_names = [
        workspace.resolve_type(name).full_name for name in type_names
    ]
    return workspace.impact(full_names)


def fuzz(seed: int = 0, iterations: int = 20, chaos: bool = False,
         transforms: Optional[List[str]] = None,
         universes: Optional[List[str]] = None,
         out_dir: str = ".", log=None, run_log: Optional[RunLog] = None):
    """Run the rank-stability fuzzing harness and return its
    :class:`~repro.fuzz.harness.FuzzReport` (``report.failed``,
    ``report.records``, ``report.repro_path``).  Fully deterministic in
    ``seed``; a failing iteration is shrunk and written as a replayable
    repro file under ``out_dir``.  See ``docs/FUZZING.md``.  Imported
    lazily — the harness pulls in the corpus layer."""
    from .fuzz import FuzzConfig, run_fuzz

    config = FuzzConfig(
        seed=seed, iterations=require_positive("iterations", iterations),
        chaos=chaos, transforms=transforms, out_dir=out_dir,
    )
    if universes is not None:
        config.universes = tuple(
            Workspace.builtin_key(key) for key in universes)
    config.families()  # unknown transform families are a ValueError
    return run_fuzz(config, write=log, run_log=run_log)


def serve(universes=tuple(Workspace.BUILTIN), **options):
    """Start the completion server on a background thread and return its
    :class:`~repro.serve.server.ServerHandle` once every workspace is
    warm and the port is bound (``handle.url``; stop with
    ``handle.stop()``, which drains in-flight requests).  One warm
    engine per named workspace, per-request ``deadline_ms`` admission
    control, per-tenant metrics and run logs — see docs/SERVING.md.

    ``options`` are the :class:`~repro.serve.server.CompletionServer`
    keywords: ``host``, ``port`` (default 0, an ephemeral port),
    ``default_deadline_ms``, ``run_log_dir`` and ``packs``.  ``packs``
    mounts additional tenants from pack artifacts (:mod:`repro.pack`):
    each path is verified and restored without an index rebuild, served
    under its recorded universe name — the millisecond warm-up path for
    large universes.  Imported lazily — the serving layer pulls in the
    corpus layer."""
    from .serve import start_in_thread

    return start_in_thread(universes, **options)


def profile(
    workspace: Workspace, sources: List[str], **scope
) -> Profile:
    """Run ``sources`` traced against the workspace and return the
    aggregated :class:`Profile` (per-call-path inclusive/self time and
    counter rollups; same keywords as :func:`complete`).  Use
    ``Profile.to_collapsed()`` for flamegraph text or
    ``Profile.render()`` for a table (docs/OBSERVABILITY.md)."""
    scope["trace"] = True
    records = open_session(workspace, **scope).complete_many(sources)
    return profile_traces(record.trace for record in records)


__all__ = [
    # facade functions
    "build_pack",
    "complete",
    "complete_many",
    "explain",
    "fuzz",
    "impact",
    "lint",
    "load_pack",
    "open_workspace",
    "profile",
    "serve",
    # analysis
    "AbstractTypeAnalysis",
    "Context",
    "DependencyGraph",
    "Diagnostic",
    "ImpactReport",
    "PreflightReport",
    "QueryFootprint",
    "Severity",
    "expand_mutations",
    "footprint_seeds",
    "lint_dependencies",
    "lint_type_system",
    "method_param_types",
    "preflight_query",
    "run_sanitizer_probes",
    # code model
    "Field",
    "LibraryBuilder",
    "Method",
    "Parameter",
    "Property",
    "TypeDef",
    "TypeKind",
    "TypeSystem",
    # engine
    "CancellationToken",
    "Completion",
    "CompletionCache",
    "CompletionEngine",
    "CompletionRequest",
    "EngineConfig",
    "MethodIndex",
    "QueryBudget",
    "QueryOutcome",
    "QueryStatus",
    "Ranker",
    "RankingConfig",
    "ReachabilityIndex",
    "check_stream",
    "sanitize_streams",
    "sanitizer_active",
    # errors
    "BudgetExhausted",
    "CompletionError",
    "CorpusError",
    "FeatureUnavailable",
    "PackCorruptError",
    "PackError",
    "PackStaleError",
    "QueryCancelled",
    "QueryTimeout",
    "StreamInvariantViolation",
    # ide
    "AutoCompleteStatus",
    "CompletionSession",
    "QueryRecord",
    "Suggestion",
    "Workspace",
    # language
    "Assign",
    "Call",
    "Compare",
    "Expr",
    "FieldAccess",
    "Hole",
    "KnownCall",
    "Literal",
    "ParseError",
    "PartialAssign",
    "PartialCompare",
    "SuffixHole",
    "TypeLiteral",
    "Unfilled",
    "UnknownCall",
    "Var",
    "derivable",
    "parse",
    "to_source",
    "well_typed",
    # observability
    "Histogram",
    "Metrics",
    "Profile",
    "RunLog",
    "ScoreBreakdown",
    "Span",
    "Tracer",
    "ndjson_to_dicts",
    "read_run_log",
    "trace_to_ndjson",
    "validate_runlog_text",
    "validate_trace_text",
]
