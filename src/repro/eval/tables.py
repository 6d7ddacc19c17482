"""Table 1 (per-project quality), Table 2 (ranking-term sensitivity)
and the three ablations, each at fixed caps its report section states."""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from ..corpus.program import Project
from ..engine.completer import EngineConfig
from ..engine.ranking import RankingConfig
from .experiments import (
    EvalConfig,
    Sweep,
    project_runs,
    run_argument_prediction,
    run_assignment_prediction,
    run_comparison_prediction,
    run_method_prediction,
)
from .figures import proportion_top


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------
@dataclass
class Table1Row:
    project: str
    calls: int
    top10: int
    top10_20: int


def table1(results) -> List[Table1Row]:
    """Per-project counts of best rank in the top 10 / next 10, plus a
    Totals row (Table 1 of the paper)."""
    order: "OrderedDict[str, List]" = OrderedDict()
    for result in results:
        order.setdefault(result.project, []).append(result)
    rows: List[Table1Row] = []
    for project, bucket in order.items():
        rows.append(
            Table1Row(
                project=project,
                calls=len(bucket),
                top10=sum(
                    1 for r in bucket if r.best_rank is not None and r.best_rank <= 10
                ),
                top10_20=sum(
                    1
                    for r in bucket
                    if r.best_rank is not None and 10 < r.best_rank <= 20
                ),
            )
        )
    rows.append(
        Table1Row(
            project="Totals",
            calls=sum(r.calls for r in rows),
            top10=sum(r.top10 for r in rows),
            top10_20=sum(r.top10_20 for r in rows),
        )
    )
    return rows


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------
#: the paper's column order
TABLE2_CONFIGS: List[RankingConfig] = (
    [RankingConfig.all_features()]
    + [RankingConfig.without(letter) for letter in "nsdmta"]
    + [RankingConfig.without("at")]
    + [RankingConfig.only(letter) for letter in "nsdmta"]
    + [RankingConfig.only("at")]
)

#: row groups of Table 2
TABLE2_ROWS = [
    ("Methods", "All"),
    ("Methods", "Instance"),
    ("Methods", "Static"),
    ("Arguments", "Normal"),
    ("Arguments", "No variables"),
    ("Assignments", "Target"),
    ("Assignments", "Source"),
    ("Assignments", "Both"),
    ("Comparisons", "Left"),
    ("Comparisons", "Right"),
    ("Comparisons", "Both"),
    ("Comparisons", "2xLeft"),
    ("Comparisons", "2xRight"),
]


#: the report's Table 2 caps (the grid re-runs every family 15 times)
TABLE2_CAPS = dict(limit=40, max_calls_per_project=10,
                   max_arguments_per_project=14,
                   max_assignments_per_project=8,
                   max_comparisons_per_project=6)


@dataclass
class Table2:
    """Ranks per (family, row) and ranking-variant label, gathered at
    the caps of ``cfg``; the paper's grid reads them at top 20."""

    cfg: EvalConfig
    columns: List[str]
    ranks: Dict[tuple, Dict[str, List[Optional[int]]]]

    def top(self, row: tuple, label: str, cutoff: int = 20) -> float:
        return proportion_top(self.ranks[row][label], cutoff)


def table2(
    projects: Sequence[Project], base: Optional[EvalConfig] = None
) -> Table2:
    """Re-run every experiment family under each ranking variant, at the
    caps of ``base`` (default :data:`TABLE2_CAPS`).

    Projects are swept one at a time, each with one
    :class:`~repro.eval.experiments.Sweep`: a site's leave-one-out
    abstract-type analysis and a project's indexes are built once for
    all 15 variants.
    """
    base = base or EvalConfig(**TABLE2_CAPS)
    columns = [config.label() for config in TABLE2_CONFIGS]
    ranks: Dict[tuple, Dict[str, List[Optional[int]]]] = {
        row: {label: [] for label in columns} for row in TABLE2_ROWS}
    for project in projects:
        sweeps: dict = {}
        for config in TABLE2_CONFIGS:
            cfg = replace(base, ranking=config, with_return_type=False,
                          with_intellisense=False)
            runs = project_runs([project], cfg, sweeps)
            for row, values in _variant_ranks(project, cfg, runs):
                ranks[row][config.label()].extend(values)
    return Table2(cfg=base, columns=columns, ranks=ranks)


def _variant_ranks(project, cfg, runs):
    """(row, ranks) for every Table 2 row under one ranking variant."""
    projects = [project]
    methods = run_method_prediction(projects, cfg, runs)
    yield ("Methods", "All"), [r.best_rank for r in methods]
    yield ("Methods", "Instance"), [
        r.best_rank for r in methods if not r.is_static]
    yield ("Methods", "Static"), [r.best_rank for r in methods if r.is_static]
    arguments = [r for r in run_argument_prediction(projects, cfg, runs)
                 if r.guessable]
    yield ("Arguments", "Normal"), [r.rank for r in arguments]
    yield ("Arguments", "No variables"), [
        r.rank for r in arguments if not r.is_local]
    assignments = run_assignment_prediction(projects, cfg, runs)
    for variant in ("Target", "Source", "Both"):
        yield ("Assignments", variant), [
            r.rank for r in assignments if r.variant == variant]
    comparisons = run_comparison_prediction(projects, cfg, runs)
    for variant in ("Left", "Right", "Both", "2xLeft", "2xRight"):
        yield ("Comparisons", variant), [
            r.rank for r in comparisons if r.variant == variant]


# ---------------------------------------------------------------------------
# Ablations of the design choices DESIGN.md calls out
# ---------------------------------------------------------------------------
@dataclass
class Ablation:
    """A measured value per arm, gathered at the caps of ``cfg``."""

    cfg: EvalConfig
    arms: Dict[str, float]


@dataclass
class ReachabilityAblation(Ablation):
    """Seconds per arm on ``project``'s argument queries, and whether
    both arms ranked every query the same (pruning must not matter)."""

    project: str = ""
    queries: int = 0
    identical: bool = True


class _Unpruned(EvalConfig):
    """The reachability ablation's control arm: no pruning index."""

    def engine_config(self) -> EngineConfig:
        return replace(super().engine_config(), use_reachability=False)


def top1_ablation(grid: Table2) -> Ablation:
    """Table 2's Methods/All row at cutoff 1: at 20 it saturates on these
    small universes, at 1 the type-distance terms' weight shows."""
    return Ablation(grid.cfg, {
        label: grid.top(("Methods", "All"), label, 1)
        for label in ("All", "-t", "-a", "-at", "+d")})


def reachability_ablation(
    projects: Sequence[Project],
) -> ReachabilityAblation:
    """Argument prediction on the project with the most methods (WiX),
    abstract types off, with the Sec. 4.2 reachability index and
    without."""
    project = max(projects,
                  key=lambda p: sum(1 for _ in p.ts.all_methods()))
    arms, ranks = {}, {}
    for label, kind in (("with index", EvalConfig),
                        ("without index", _Unpruned)):
        cfg = kind(limit=40, max_arguments_per_project=40, abstypes="none",
                   with_return_type=False, with_intellisense=False)
        started = time.perf_counter()
        results = run_argument_prediction([project], cfg)
        arms[label] = time.perf_counter() - started
        ranks[label] = [r.rank for r in results]
    return ReachabilityAblation(
        cfg, arms, project=project.name,
        queries=sum(1 for r in results if r.guessable),
        identical=ranks["with index"] == ranks["without index"])


def abstypes_ablation(projects: Sequence[Project]) -> Ablation:
    """Top-5 share of guessable argument queries under the paper's
    per-site ``exclude`` protocol, the ``full`` analysis (the Sec. 5.5
    maturity leak) and ``none``.  The arms share each project's indexes
    (one :class:`~repro.eval.experiments.Sweep` per project); only
    ``exclude`` reads leave-one-out analyses, so none are kept past
    their site."""
    sweeps = {project.name: Sweep(analyses=None) for project in projects}
    arms = {}
    for mode in ("exclude", "full", "none"):
        cfg = EvalConfig(limit=40, max_arguments_per_project=30,
                         abstypes=mode, with_return_type=False,
                         with_intellisense=False)
        runs = project_runs(projects, cfg, sweeps)
        arms[mode] = proportion_top(
            [r.rank for r in run_argument_prediction(projects, cfg, runs)
             if r.guessable], 5)
    return Ablation(cfg, arms)
