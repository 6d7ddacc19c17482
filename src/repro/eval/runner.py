"""One-call evaluation runs bundling all four experiment families."""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from ..corpus.program import Project
from ..obs.runlog import RunLog, signature_hex
from .experiments import (
    ArgumentResult,
    EvalConfig,
    LookupResult,
    MethodCallResult,
    project_runs,
    run_argument_prediction,
    run_assignment_prediction,
    run_comparison_prediction,
    run_method_prediction,
)
from .persistence import load_results, save_results


@dataclass
class ResultBundle:
    """Results of one complete evaluation run."""

    methods: List[MethodCallResult] = field(default_factory=list)
    arguments: List[ArgumentResult] = field(default_factory=list)
    assignments: List[LookupResult] = field(default_factory=list)
    comparisons: List[LookupResult] = field(default_factory=list)

    def save(self, path: str) -> None:
        save_results(
            path,
            methods=self.methods,
            arguments=self.arguments,
            assignments=self.assignments,
            comparisons=self.comparisons,
        )

    @classmethod
    def load(cls, path: str) -> "ResultBundle":
        data = load_results(path)
        return cls(
            methods=data["methods"],
            arguments=data["arguments"],
            assignments=data["assignments"],
            comparisons=data["comparisons"],
        )

    def families(self) -> dict:
        return {
            "methods": self.methods,
            "arguments": self.arguments,
            "assignments": self.assignments,
            "comparisons": self.comparisons,
        }


def _phase(run_log: Optional[RunLog], name: str):
    return run_log.phase(name) if run_log is not None else nullcontext()


def run_all(
    projects: Iterable[Project],
    cfg: Optional[EvalConfig] = None,
    run_log: Optional[RunLog] = None,
) -> ResultBundle:
    """Run every experiment family over the projects.

    This is the only place the four families run.  They share one warm
    engine per project (indexes and the cross-query cache are built
    once, not once per family).  With a ``run_log`` attached, its
    manifest gets the engine-config signature and universe versions,
    each family is recorded as an ``eval/<family>`` phase and every
    timed query as a structured record (docs/OBSERVABILITY.md).
    """
    projects = list(projects)
    cfg = cfg or EvalConfig()
    if run_log is not None:
        run_log.annotate(
            config_signature=signature_hex(cfg.engine_config()._signature),
            universes={project.name: project.ts.version
                       for project in projects},
        )
    runs = project_runs(projects, cfg)
    bundle = ResultBundle()
    with _phase(run_log, "eval/methods"):
        bundle.methods = run_method_prediction(projects, cfg, runs, run_log)
    with _phase(run_log, "eval/arguments"):
        bundle.arguments = run_argument_prediction(
            projects, cfg, runs, run_log)
    with _phase(run_log, "eval/assignments"):
        bundle.assignments = run_assignment_prediction(
            projects, cfg, runs, run_log)
    with _phase(run_log, "eval/comparisons"):
        bundle.comparisons = run_comparison_prediction(
            projects, cfg, runs, run_log)
    return bundle
