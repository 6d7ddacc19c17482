"""Run-log diffing: attribute a latency regression to a phase.

``diff_runs(old, new)`` takes two structured run logs
(:mod:`repro.obs.runlog` record lists) and produces a
:class:`RunDiff`: per-phase latency deltas over the span taxonomy
(``parse`` / ``preflight`` / ``cache`` / ``root_pool`` /
``expand:<kind>`` / ``dedup`` / ``collect``), sorted worst-first, with
the top regressed phase called out.  ``render_markdown`` turns that
into a regression-attribution report, so a slower run says *which
phase* got slower, not just that something did.

A run log is a list of records with a leading ``kind == "run"``
manifest: phase totals come from a :class:`~repro.obs.profile.Profile`
over the embedded span trees, query counts/latency from the query
records.  :func:`load_run_artifact` reads one from NDJSON and refuses
anything else.  The module takes no engine or eval imports, so it stays
below both layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .profile import profile_run_log


@dataclass
class PhaseDelta:
    """One phase's latency movement between two runs."""

    name: str
    old_ms: float
    new_ms: float

    @property
    def delta_ms(self) -> float:
        return self.new_ms - self.old_ms

    @property
    def ratio(self) -> float:
        """Relative growth (0.0 when there is no baseline time)."""
        if self.old_ms <= 0:
            return 0.0
        return self.new_ms / self.old_ms - 1.0


@dataclass
class RunDiff:
    """The phase-attributed difference between two run artifacts."""

    old_label: str
    new_label: str
    phases: List[PhaseDelta]
    old_total_ms: float
    new_total_ms: float
    old_queries: int
    new_queries: int
    notes: List[str] = field(default_factory=list)

    @property
    def top_regression(self) -> Optional[PhaseDelta]:
        """The phase with the largest positive latency delta, or None
        when no phase got slower."""
        worst = max(self.phases, key=lambda p: p.delta_ms, default=None)
        if worst is None or worst.delta_ms <= 0:
            return None
        return worst

    def summary(self) -> str:
        top = self.top_regression
        if top is None:
            return "no phase regressed"
        return "top regressed phase: {} ({:+.2f} ms)".format(
            top.name, top.delta_ms)


# ----------------------------------------------------------------------
# normalisation
# ----------------------------------------------------------------------

RunArtifact = List[Dict[str, Any]]


def _summarise(
    records: RunArtifact,
) -> Tuple[str, Dict[str, float], float, int, List[str]]:
    if not (isinstance(records, list) and records
            and isinstance(records[0], dict)
            and records[0].get("kind") == "run"):
        raise ValueError(
            "not a run artifact: expected a repro-runlog record list")
    label = str(records[0].get("label", "run"))
    totals = profile_run_log(records).phase_totals()
    queries = [r for r in records if r.get("kind") == "query"]
    total_ms = sum(float(r.get("elapsed_ms", 0.0)) for r in queries)
    notes = []
    if not totals and queries:
        notes.append("run {!r}: queries carry no span trees "
                     "(run was not traced)".format(label))
    return label, totals, total_ms, len(queries), notes


def diff_runs(old: RunArtifact, new: RunArtifact) -> RunDiff:
    """Phase-attributed latency diff of two run-log record lists."""
    old_label, old_phases, old_total, old_queries, old_notes = _summarise(old)
    new_label, new_phases, new_total, new_queries, new_notes = _summarise(new)
    notes = old_notes + new_notes
    if bool(old_phases) != bool(new_phases):
        # exactly one side has phase totals: a delta table would compare
        # every phase against a zero baseline and attribute the entire
        # total to whichever phase happens to be largest — say so
        # instead
        bare = old_label if not old_phases else new_label
        notes.append(
            "no phase profile on {!r}; cannot attribute the latency "
            "delta to phases".format(bare))
        deltas: List[PhaseDelta] = []
    else:
        deltas = [
            PhaseDelta(name, round(old_phases.get(name, 0.0), 4),
                       round(new_phases.get(name, 0.0), 4))
            for name in sorted(set(old_phases) | set(new_phases))
        ]
        deltas.sort(key=lambda p: (-p.delta_ms, p.name))
    return RunDiff(
        old_label=old_label,
        new_label=new_label,
        phases=deltas,
        old_total_ms=round(old_total, 4),
        new_total_ms=round(new_total, 4),
        old_queries=old_queries,
        new_queries=new_queries,
        notes=notes,
    )


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------

def parse_run_artifact(text: str) -> RunArtifact:
    """Parse NDJSON run-log text into its records."""
    from .runlog import read_run_log

    try:
        return read_run_log(text)
    except ValueError as error:
        raise ValueError("expected an NDJSON run log: {}".format(error))


def load_run_artifact(path: str) -> RunArtifact:
    """Load a run-log file."""
    with open(path) as handle:
        text = handle.read()
    try:
        return parse_run_artifact(text)
    except ValueError as error:
        raise ValueError("{}: {}".format(path, error))


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def render_text(diff: RunDiff) -> List[str]:
    """Terminal-friendly summary lines (the ``repro diff`` output)."""
    lines = ["diff {!r} -> {!r}".format(diff.old_label, diff.new_label)]
    lines.append("  queries: {} -> {}; total {:.2f} ms -> {:.2f} ms".format(
        diff.old_queries, diff.new_queries,
        diff.old_total_ms, diff.new_total_ms))
    if diff.phases:
        lines.append("  {:<28s}{:>12s}{:>12s}{:>12s}".format(
            "phase", "old ms", "new ms", "delta ms"))
        for phase in diff.phases:
            lines.append("  {:<28s}{:>12.2f}{:>12.2f}{:>+12.2f}".format(
                phase.name[:28], phase.old_ms, phase.new_ms, phase.delta_ms))
    lines.append("  " + diff.summary())
    for note in diff.notes:
        lines.append("  note: {}".format(note))
    return lines


def render_markdown(diff: RunDiff) -> str:
    """The regression-attribution report (``repro diff --markdown``)."""
    out = ["# Regression attribution: {!r} vs {!r}".format(
        diff.old_label, diff.new_label), ""]
    out.append("| | old | new |")
    out.append("|---|---|---|")
    out.append("| queries | {} | {} |".format(
        diff.old_queries, diff.new_queries))
    out.append("| total latency | {:.2f} ms | {:.2f} ms |".format(
        diff.old_total_ms, diff.new_total_ms))
    out.append("")
    top = diff.top_regression
    if top is not None:
        out.append("**{}** — {:.2f} ms → {:.2f} ms ({:+.2f} ms)".format(
            diff.summary(), top.old_ms, top.new_ms, top.delta_ms))
    else:
        out.append("No phase regressed.")
    out.append("")
    if diff.phases:
        out += ["## Phase deltas (worst first)", ""]
        out.append("| phase | old ms | new ms | delta ms | growth |")
        out.append("|---|---|---|---|---|")
        for phase in diff.phases:
            growth = ("n/a" if phase.old_ms <= 0
                      else "{:+.1f}%".format(100.0 * phase.ratio))
            out.append(
                "| `{}` | {:.2f} | {:.2f} | {:+.2f} | {} |".format(
                    phase.name, phase.old_ms, phase.new_ms,
                    phase.delta_ms, growth))
        out.append("")
    if diff.notes:
        out += ["## Notes", ""]
        out += ["- {}".format(note) for note in diff.notes]
        out.append("")
    return "\n".join(out)
