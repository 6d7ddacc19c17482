"""The evaluation report: one markdown document per ``repro eval`` run.

``render_report`` renders a :class:`~repro.eval.runner.ResultBundle`
from :func:`~repro.eval.runner.run_all` together with the run log that
recorded it (docs/OBSERVABILITY.md):

* a **run manifest** table — label, run id, git SHA, config signature,
  universe versions, seed — so a report is attributable to the exact
  code and configuration that produced it;
* the corpus census, Table 1, Figures 9–16, Table 2 and the three
  ablations, each section at fixed caps it states;
* per-family query latency;
* a **phase timing** table from the run log's phase records and a
  per-family query rollup, so the report says where the wall-clock
  went, not just what the accuracy was.

The checked-in ``EVAL_REPORT.md`` is this document for a capped run.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping

from ..corpus.program import Project
from ..obs.runlog import RunLog
from .experiments import EvalConfig
from .figures import (
    figure9,
    figure9_by_project,
    figure10,
    figure11_histogram,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
    figure16,
)
from .runner import ResultBundle
from .speed import (
    argument_query_times,
    best_method_query_times,
    lookup_query_times,
    speed_summary,
)
from .stats import corpus_census
from .tables import Ablation, Table2, table1


def _pct(value: float) -> str:
    return "{:.1f}%".format(100.0 * value)


def _md_table(headers: List[str], rows: Iterable[List[str]]) -> List[str]:
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def _cdf_table(series: Mapping[str, Mapping[int, float]]) -> List[str]:
    cutoffs: List[int] = []
    for values in series.values():
        cutoffs = list(values.keys())
        break
    headers = ["series"] + ["<= {}".format(c) for c in cutoffs]
    rows = [
        [name] + [_pct(v) for v in values.values()]
        for name, values in series.items()
    ]
    return _md_table(headers, rows)


def _speed_row(title: str, summary: Mapping[str, float]) -> List[str]:
    if summary.get("count", 0) == 0:
        return [title, "0", "-", "-", "-"]
    return [
        title,
        str(int(summary["count"])),
        "{:.1f} ms".format(summary["p50_ms"]),
        _pct(summary["under_100ms"]),
        _pct(summary["under_500ms"]),
    ]


def _caps(cfg: EvalConfig) -> str:
    caps = (("calls", cfg.max_calls_per_project),
            ("argument positions", cfg.max_arguments_per_project),
            ("assignments", cfg.max_assignments_per_project),
            ("comparisons", cfg.max_comparisons_per_project))
    return "Caps: scan depth {}; first sites per project: {}.".format(
        cfg.limit, ", ".join("{} {}".format(name, cap)
                             for name, cap in caps if cap is not None))


def _table2_section(grid: Table2) -> List[str]:
    out = ["", "## Table 2 — ranking-term sensitivity (top 20)", "",
           _caps(grid.cfg), ""]
    return out + _md_table(
        ["Family", "Row", "Count"] + grid.columns,
        [[family, row, str(len(by_label[grid.columns[-1]]))]
         + ["{:.2f}".format(grid.top((family, row), label))
            for label in grid.columns]
         for (family, row), by_label in grid.ranks.items()])


def _ablation_section(title: str, note: str, ablation: Ablation,
                      headers: List[str], cell) -> List[str]:
    out = ["", "## Ablation — " + title, "",
           note + " " + _caps(ablation.cfg), ""]
    return out + _md_table(headers, [[label, cell(value)] for label, value
                                     in ablation.arms.items()])


def _ablation_sections(bundle: ResultBundle) -> List[str]:
    reach = bundle.reachability
    out = _ablation_section(
        "methods at top-1", "Table 2's Methods/All row at cutoff 1, from "
        "the same sweep.", bundle.top1, ["ranking", "top-1"], _pct)
    out += _ablation_section(
        "reachability pruning", "{} argument queries of {}, abstract types "
        "off.".format(reach.queries, reach.project), reach,
        ["arm", "time"], "{:.2f} s".format)
    out += ["", "Rank lists equal with and without the index: {}.".format(
        "yes" if reach.identical else "NO")]
    return out + _ablation_section(
        "abstract types", "Guessable argument queries in the top 5 under "
        "the paper's per-site protocol (exclude), the completed project "
        "(full: the maturity leak) and none.", bundle.abstypes,
        ["mode", "top-5"], _pct)


def _manifest_section(manifest: Dict[str, Any]) -> List[str]:
    universes = manifest.get("universes") or {}
    rows = [
        ["label", str(manifest.get("label"))],
        ["run id", str(manifest.get("run_id"))],
        ["git SHA", str(manifest.get("git_sha"))],
        ["config signature", str(manifest.get("config_signature"))],
        ["universes", ", ".join(
            "{} v{}".format(name, universes[name])
            for name in sorted(universes)) or "-"],
        ["seed", str(manifest.get("seed"))],
    ]
    return ["## Run manifest", ""] + _md_table(["key", "value"], rows) + [""]


def _phase_sections(records: List[Dict[str, Any]]) -> List[str]:
    out: List[str] = []
    phases = [r for r in records if r.get("kind") == "phase"]
    if phases:
        out += ["## Phase timings", ""]
        out += _md_table(
            ["phase", "duration"],
            [[p["name"], "{:.1f} ms".format(p["duration_ms"])]
             for p in phases],
        )
        out.append("")

    families: Dict[str, Dict[str, float]] = {}
    for record in records:
        if record.get("kind") != "query":
            continue
        bucket = families.setdefault(
            record.get("family") or "(other)",
            {"count": 0, "elapsed_ms": 0.0, "found": 0})
        bucket["count"] += 1
        bucket["elapsed_ms"] += record.get("elapsed_ms") or 0.0
        if record.get("status") == "ok":
            bucket["found"] += 1
    if families:
        out += ["## Query rollup", ""]
        out += _md_table(
            ["family", "queries", "ok", "total time"],
            [[name, str(int(bucket["count"])), str(int(bucket["found"])),
              "{:.1f} ms".format(bucket["elapsed_ms"])]
             for name, bucket in sorted(families.items())],
        )
        out.append("")
    return out


def render_report(
    bundle: ResultBundle,
    projects: Iterable[Project],
    run_log: RunLog,
    title: str = "Evaluation report",
) -> str:
    """Render one evaluation run as a markdown document.

    Figures 11 and 12 appear when the bundle carries Intellisense
    (and return-type) ranks, i.e. when the run's config computed them.
    """
    records = run_log.records()
    methods, arguments = bundle.methods, bundle.arguments
    assignments, comparisons = bundle.assignments, bundle.comparisons
    out: List[str] = ["# {}".format(title), ""]
    out += _manifest_section(records[0])

    out += ["## Corpus census", ""]
    out += _md_table(
        ["Project", "types", "methods", "impls", "calls", "assigns",
         "compares"],
        [
            [c.name, str(c.types), str(c.methods), str(c.impls),
             str(c.calls), str(c.assignments), str(c.comparisons)]
            for c in corpus_census(list(projects))
        ],
    )
    out.append("")

    out += ["## Table 1 — method prediction per project", ""]
    rows = [
        [r.project, str(r.calls), str(r.top10), str(r.top10_20)]
        for r in table1(methods)
    ]
    out += _md_table(["Program", "# calls", "# top 10", "# top 10..20"], rows)

    out += ["", "## Figure 9 — best-rank CDF", ""]
    out += _cdf_table(figure9(methods))
    out += ["", "### Per project", ""]
    out += _cdf_table(figure9_by_project(methods))

    out += ["", "## Figure 10 — one vs. two known arguments", ""]
    out += _md_table(
        ["arity", "count", "top-20 (2 args)", "top-20 (1 arg)"],
        [
            [str(arity), str(int(row["count"])), _pct(row["two_args"]),
             _pct(row["one_arg"])]
            for arity, row in figure10(methods).items()
        ],
    )

    if any(r.intellisense is not None for r in methods):
        out += ["", "## Figures 11 & 12 — vs. Intellisense", ""]
        fig11 = figure11(methods)
        fig12 = (figure12(methods)
                 if any(r.best_rank_return is not None for r in methods)
                 else None)
        headers = ["bucket", "Fig. 11"] + (["Fig. 12 (return type known)"]
                                           if fig12 else [])
        rows = []
        for key in ("we_win_by_10+", "we_win", "tie", "intellisense_wins",
                    "intellisense_wins_by_10+"):
            row = [key, _pct(fig11.get(key, 0.0))]
            if fig12:
                row.append(_pct(fig12.get(key, 0.0)))
            rows.append(row)
        out += _md_table(headers, rows)
        out += ["", "### Rank-difference histogram (ours − Intellisense)", ""]
        out += _md_table(
            ["band", "share"],
            [[band, _pct(share)]
             for band, share in figure11_histogram(methods).items()],
        )

    out += ["", "## Figure 13 — argument prediction", ""]
    out += _cdf_table(figure13(arguments))
    out += ["", "## Figure 14 — argument kinds", ""]
    out += _md_table(
        ["kind", "share"],
        [[kind, _pct(share)] for kind, share in figure14(arguments).items()],
    )

    out += ["", "## Figure 15 — assignments", ""]
    out += _cdf_table(figure15(assignments))

    out += ["", "## Figure 16 — comparisons", ""]
    out += _cdf_table(figure16(comparisons))
    if bundle.table2 is not None:
        out += _table2_section(bundle.table2) + _ablation_sections(bundle)

    out += ["", "## Query latency", ""]
    out += _md_table(
        ["family", "queries", "p50", "< 100 ms", "< 500 ms"],
        [
            _speed_row("methods",
                       speed_summary(best_method_query_times(methods))),
            _speed_row("arguments",
                       speed_summary(argument_query_times(arguments))),
            _speed_row("lookups",
                       speed_summary(lookup_query_times(
                           assignments + comparisons))),
        ],
    )
    out.append("")
    out += _phase_sections(records)
    return "\n".join(out)
