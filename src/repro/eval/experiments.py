"""Experiment runners for the paper's evaluation (Sec. 5.1–5.3).

Each runner replays queries extracted from the corpus projects and records
where the ground-truth expression ranks.  Runners are pure functions of
(projects, config) and return flat result lists; :mod:`repro.eval.figures`
and :mod:`repro.eval.tables` aggregate them into the paper's tables/figures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterable, List, Optional, Tuple

from ..analysis.abstract_types import AbstractTypeAnalysis
from ..baselines.intellisense import intellisense_rank
from ..corpus.oracle import ImplAbstractTypes
from ..corpus.program import MethodImpl, Project
from ..engine.completer import CompletionEngine, EngineConfig
from ..engine.index import MethodIndex, ReachabilityIndex
from ..engine.ranking import AbstractTypeOracle, RankingConfig
from ..lang.ast import Call, Var
from ..lang.printer import to_source
from ..obs.runlog import RunLog
from . import queries


def _log_query(
    run_log: Optional[RunLog],
    pe,
    family: str,
    project: str,
    rank: Optional[int],
    seconds: float,
) -> None:
    """One run-log record per timed eval query (rank queries bypass
    ``complete_query``, so the engine-level emission never sees them)."""
    if run_log is None:
        return
    run_log.query_event(
        to_source(pe),
        family=family,
        project=project,
        rank=rank,
        status="ok" if rank is not None else "not_found",
        elapsed_ms=seconds * 1000.0,
    )


@dataclass
class EvalConfig:
    """Knobs of an evaluation run."""

    ranking: RankingConfig = field(default_factory=RankingConfig)
    #: scan depth: ranks beyond this count as "not found"
    limit: int = 100
    #: deterministic per-project site caps (None = everything)
    max_calls_per_project: Optional[int] = None
    max_arguments_per_project: Optional[int] = None
    max_assignments_per_project: Optional[int] = None
    max_comparisons_per_project: Optional[int] = None
    #: also compute the return-type-filtered ranks (Fig. 12)
    with_return_type: bool = True
    #: also compute the Intellisense baseline ranks (Fig. 11)
    with_intellisense: bool = True
    #: abstract types: "exclude" re-runs inference per site hiding the
    #: query and later code (the paper's protocol); "full" analyses the
    #: whole corpus once; "none" disables the oracle
    abstypes: str = "exclude"

    @classmethod
    def capped(cls) -> "EvalConfig":
        """The default ``repro eval`` run: the first sites of each
        project per family, every figure on.  With Table 2 and the
        ablations at their own caps it takes about 40 s on a 2-core VM."""
        return cls(
            limit=60,
            max_calls_per_project=40,
            max_arguments_per_project=50,
            max_assignments_per_project=25,
            max_comparisons_per_project=15,
        )

    def engine_config(self) -> EngineConfig:
        return EngineConfig(ranking=self.ranking)


@dataclass
class MethodCallResult:
    """One call site of the Sec. 5.1 experiment."""

    project: str
    method_name: str
    arity: int
    is_static: bool
    #: best rank over argument subsets of size <= 2
    best_rank: Optional[int]
    #: best rank over single-argument subsets only (Fig. 10's lower series)
    best_rank_single: Optional[int]
    #: best rank when the return type is known (Fig. 12); None if not run
    best_rank_return: Optional[int]
    #: alphabetic Intellisense rank (Fig. 11); None if not run
    intellisense: Optional[int]
    #: wall-clock of the best-performing query
    best_query_seconds: float
    #: wall-clock of every subset query
    query_seconds: List[float]


@dataclass
class ArgumentResult:
    """One argument position of the Sec. 5.2 experiment."""

    project: str
    kind: str
    guessable: bool
    is_local: bool
    rank: Optional[int]
    seconds: float


@dataclass
class LookupResult:
    """One query of the Sec. 5.3 experiment (assignments or comparisons)."""

    project: str
    variant: str
    rank: Optional[int]
    seconds: float


@dataclass
class Sweep:
    """What a ranking sweep shares across its variants' runs of one
    project: the method and reachability indexes and the leave-one-out
    analyses by site.  None of them reads a ranking term; engines, which
    do, are never shared across variants."""

    index: Optional[MethodIndex] = None
    reachability: Optional[ReachabilityIndex] = None
    analyses: Dict[Tuple[int, int], AbstractTypeAnalysis] = field(
        default_factory=dict)


class _ProjectRun:
    """Per-project engine + abstract-type analysis cache.

    Sites arrive in order, so alone a run keeps only the current site's
    leave-one-out analysis; in a :class:`Sweep` it keeps every site's
    for the variants after it.
    """

    def __init__(
        self, project: Project, cfg: EvalConfig,
        sweep: Optional[Sweep] = None,
    ) -> None:
        self.project = project
        self.cfg = cfg
        self.sweep = sweep
        self.engine = CompletionEngine(
            project.ts, cfg.engine_config(),
            index=sweep.index if sweep else None,
            reachability=sweep.reachability if sweep else None,
        )
        self.engine.warm()
        if sweep is not None:
            sweep.index = self.engine.index
            sweep.reachability = self.engine.reachability
        self._full_analysis: Optional[AbstractTypeAnalysis] = None
        self._analyses = sweep.analyses if sweep else {}

    def oracle_for(
        self, impl: MethodImpl, stmt_index: int
    ) -> Optional[AbstractTypeOracle]:
        mode = self.cfg.abstypes
        if mode == "none":
            return None
        if mode == "full":
            if self._full_analysis is None:
                self._full_analysis = AbstractTypeAnalysis(self.project)
            return ImplAbstractTypes(self._full_analysis, impl)
        key = (id(impl), stmt_index)
        analysis = self._analyses.get(key)
        if analysis is None:
            if self.sweep is None:
                self._analyses.clear()
            analysis = self._analyses[key] = AbstractTypeAnalysis(
                self.project, exclude_from=(impl, stmt_index)
            )
        return ImplAbstractTypes(analysis, impl)


def project_runs(
    projects: Iterable[Project],
    cfg: EvalConfig,
    sweeps: Optional[Dict[str, Sweep]] = None,
) -> "dict[str, _ProjectRun]":
    """One warm engine (plus analysis caches) per project.

    Historically every family runner built a fresh engine per project,
    so a full evaluation paid four index builds per project.  Build this
    map once and pass it to each runner — ``run_all`` does — and all
    four families share warm indexes and the cross-query cache.  A
    ranking sweep passes the same ``sweeps`` map (a :class:`Sweep` per
    project name, added on first use) for each of its variants.
    """
    return {
        project.name: _ProjectRun(
            project, cfg,
            None if sweeps is None else sweeps.setdefault(project.name,
                                                          Sweep()))
        for project in projects
    }


def _run_for(
    project: Project,
    cfg: EvalConfig,
    runs: "Optional[dict[str, _ProjectRun]]",
) -> _ProjectRun:
    """The shared run for ``project``, or a fresh one when no map was
    given (or the map was built for a different config — ranking-variant
    sweeps like Table 2 must not reuse engines across configs)."""
    if runs is None:
        return _ProjectRun(project, cfg)
    run = runs.get(project.name)
    if run is None or run.cfg is not cfg:
        run = _ProjectRun(project, cfg)
        runs[project.name] = run
    return run


def _capped(items: Iterable, cap: Optional[int]) -> List:
    return list(islice(items, cap))


# ---------------------------------------------------------------------------
# Sec. 5.1 — predicting method names
# ---------------------------------------------------------------------------
def run_method_prediction(
    projects: Iterable[Project],
    cfg: Optional[EvalConfig] = None,
    runs: "Optional[dict[str, _ProjectRun]]" = None,
    run_log: Optional[RunLog] = None,
) -> List[MethodCallResult]:
    cfg = cfg or EvalConfig()
    results: List[MethodCallResult] = []
    for project in projects:
        run = _run_for(project, cfg, runs)
        sites = _capped(
            (s for s in project.iter_calls() if s[2].method.arity >= 2),
            cfg.max_calls_per_project,
        )
        for impl, index, call in sites:
            results.append(_evaluate_call(run, impl, index, call, run_log))
    return results


def _evaluate_call(
    run: _ProjectRun, impl: MethodImpl, index: int, call: Call,
    run_log: Optional[RunLog] = None,
) -> MethodCallResult:
    cfg = run.cfg
    context = impl.context(run.project.ts)
    oracle = run.oracle_for(impl, index)
    subsets = queries.method_query_subsets(call)

    best_rank: Optional[int] = None
    best_single: Optional[int] = None
    best_seconds = 0.0
    all_seconds: List[float] = []
    for subset in subsets:
        pe = queries.unknown_call_query(subset)
        started = time.perf_counter()
        rank = run.engine.method_rank(
            pe, context, call.method, limit=cfg.limit, abstypes=oracle
        )
        elapsed = time.perf_counter() - started
        all_seconds.append(elapsed)
        _log_query(run_log, pe, "methods", run.project.name, rank, elapsed)
        if rank is not None:
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best_seconds = elapsed
            if len(subset) == 1 and (best_single is None or rank < best_single):
                best_single = rank

    best_return: Optional[int] = None
    if cfg.with_return_type:
        expected = call.method.return_type or run.project.ts.void_type
        for subset in subsets:
            pe = queries.unknown_call_query(subset)
            rank = run.engine.method_rank(
                pe,
                context,
                call.method,
                limit=cfg.limit,
                abstypes=oracle,
                expected_type=expected,
            )
            if rank is not None and (best_return is None or rank < best_return):
                best_return = rank

    baseline: Optional[int] = None
    if cfg.with_intellisense:
        baseline = intellisense_rank(run.project.ts, call)

    return MethodCallResult(
        project=run.project.name,
        method_name=call.method.full_name,
        arity=call.method.arity,
        is_static=call.method.is_static,
        best_rank=best_rank,
        best_rank_single=best_single,
        best_rank_return=best_return,
        intellisense=baseline,
        best_query_seconds=best_seconds,
        query_seconds=all_seconds,
    )


# ---------------------------------------------------------------------------
# Sec. 5.2 — predicting method arguments
# ---------------------------------------------------------------------------
def run_argument_prediction(
    projects: Iterable[Project],
    cfg: Optional[EvalConfig] = None,
    runs: "Optional[dict[str, _ProjectRun]]" = None,
    run_log: Optional[RunLog] = None,
) -> List[ArgumentResult]:
    cfg = cfg or EvalConfig()
    results: List[ArgumentResult] = []
    for project in projects:
        run = _run_for(project, cfg, runs)
        budget = cfg.max_arguments_per_project
        for impl, index, call in project.iter_calls():
            if budget is not None and budget <= 0:
                break
            context = impl.context(project.ts)
            for position, arg in enumerate(call.args):
                if budget is not None:
                    if budget <= 0:
                        break
                    budget -= 1
                kind = queries.argument_kind(arg)
                guessable = queries.is_guessable_argument(
                    arg, context, run.engine.config
                )
                if not guessable:
                    results.append(
                        ArgumentResult(
                            project=project.name,
                            kind=kind,
                            guessable=False,
                            is_local=isinstance(arg, Var),
                            rank=None,
                            seconds=0.0,
                        )
                    )
                    continue
                oracle = run.oracle_for(impl, index)
                pe = queries.argument_query(call, position)
                started = time.perf_counter()
                rank = run.engine.rank_of(
                    pe, context, call, limit=cfg.limit, abstypes=oracle
                )
                elapsed = time.perf_counter() - started
                _log_query(run_log, pe, "arguments", project.name, rank,
                           elapsed)
                results.append(
                    ArgumentResult(
                        project=project.name,
                        kind=kind,
                        guessable=True,
                        is_local=isinstance(arg, Var),
                        rank=rank,
                        seconds=elapsed,
                    )
                )
    return results


# ---------------------------------------------------------------------------
# Sec. 5.3 — predicting field lookups
# ---------------------------------------------------------------------------
def run_assignment_prediction(
    projects: Iterable[Project],
    cfg: Optional[EvalConfig] = None,
    runs: "Optional[dict[str, _ProjectRun]]" = None,
    run_log: Optional[RunLog] = None,
) -> List[LookupResult]:
    cfg = cfg or EvalConfig()
    results: List[LookupResult] = []
    for project in projects:
        run = _run_for(project, cfg, runs)
        sites = _capped(
            project.iter_assignments(), cfg.max_assignments_per_project
        )
        for impl, index, assign in sites:
            context = impl.context(project.ts)
            for variant, strip_target, strip_source in queries.ASSIGNMENT_VARIANTS:
                pe = queries.assignment_query(assign, strip_target, strip_source)
                if pe is None:
                    continue
                oracle = run.oracle_for(impl, index)
                started = time.perf_counter()
                rank = run.engine.rank_of(
                    pe, context, assign, limit=cfg.limit, abstypes=oracle
                )
                elapsed = time.perf_counter() - started
                _log_query(run_log, pe, "assignments", project.name, rank,
                           elapsed)
                results.append(
                    LookupResult(
                        project=project.name,
                        variant=variant,
                        rank=rank,
                        seconds=elapsed,
                    )
                )
    return results


def run_comparison_prediction(
    projects: Iterable[Project],
    cfg: Optional[EvalConfig] = None,
    runs: "Optional[dict[str, _ProjectRun]]" = None,
    run_log: Optional[RunLog] = None,
) -> List[LookupResult]:
    cfg = cfg or EvalConfig()
    results: List[LookupResult] = []
    for project in projects:
        run = _run_for(project, cfg, runs)
        sites = _capped(
            project.iter_comparisons(), cfg.max_comparisons_per_project
        )
        for impl, index, compare in sites:
            context = impl.context(project.ts)
            for variant, strip_left, strip_right in queries.COMPARISON_VARIANTS:
                pe = queries.comparison_query(compare, strip_left, strip_right)
                if pe is None:
                    continue
                oracle = run.oracle_for(impl, index)
                started = time.perf_counter()
                rank = run.engine.rank_of(
                    pe, context, compare, limit=cfg.limit, abstypes=oracle
                )
                elapsed = time.perf_counter() - started
                _log_query(run_log, pe, "comparisons", project.name, rank,
                           elapsed)
                results.append(
                    LookupResult(
                        project=project.name,
                        variant=variant,
                        rank=rank,
                        seconds=elapsed,
                    )
                )
    return results
