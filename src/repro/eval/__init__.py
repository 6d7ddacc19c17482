"""Evaluation harness: queries, experiments, tables, figures, ablations
and the markdown report."""

from .experiments import (
    ArgumentResult,
    EvalConfig,
    LookupResult,
    MethodCallResult,
    run_argument_prediction,
    run_assignment_prediction,
    run_comparison_prediction,
    run_method_prediction,
)
from .figures import (
    cdf,
    mean_reciprocal_rank,
    summary_metrics,
    figure9,
    figure9_by_project,
    figure10,
    figure11,
    figure11_histogram,
    figure12,
    figure13,
    figure14,
    figure15,
    figure16,
    proportion_top,
)
from .markdown import render_report
from .runner import ResultBundle, run_all
from .stats import ProjectCensus, corpus_census, format_census, project_census
from .speed import (
    argument_query_times,
    best_method_query_times,
    lookup_query_times,
    method_query_times,
    speed_summary,
)
from .tables import TABLE2_CONFIGS, TABLE2_ROWS, Table1Row, Table2, table1, table2

__all__ = [
    "ArgumentResult",
    "EvalConfig",
    "LookupResult",
    "MethodCallResult",
    "TABLE2_CONFIGS",
    "TABLE2_ROWS",
    "Table1Row",
    "Table2",
    "argument_query_times",
    "best_method_query_times",
    "ProjectCensus",
    "ResultBundle",
    "run_all",
    "cdf",
    "corpus_census",
    "format_census",
    "project_census",
    "figure9",
    "figure9_by_project",
    "figure11_histogram",
    "mean_reciprocal_rank",
    "summary_metrics",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "figure15",
    "figure16",
    "lookup_query_times",
    "method_query_times",
    "proportion_top",
    "render_report",
    "run_argument_prediction",
    "run_assignment_prediction",
    "run_comparison_prediction",
    "run_method_prediction",
    "speed_summary",
    "table1",
    "table2",
]
