"""The ``repro bench`` harness: a pinned workload with regression gating.

Runs four kinds of workloads and writes one schema-versioned
``BENCH_<label>.json``:

* **paper** — the Figure-2-style queries over each builtin universe
  (paint / geometry / bcl), the workload the paper's speed claims are
  about;
* **scaling** — synthetic universes of growing size (the
  ``benchmarks/test_scaling.py`` spec), checking latency grows slower
  than the universe;
* **repeated** — the paper workload replayed against one warm engine
  vs. a cache-disabled engine, measuring the cross-query cache's
  speedup and hit rate (docs/PERFORMANCE.md);
* **mutate** — the scaling workload primed warm, then a single-type
  member edit followed by a re-query, repeated; run once under
  fine-grained (footprint) invalidation and once under the coarse
  clear-on-mutation fallback, so the document carries the edit-time
  warm-path speedup and the fraction of cache entries the fine path
  preserved.

``compare_bench(old, new)`` gates regressions: any workload whose p95
latency grew by more than ``threshold`` (default 20%) *and* by more
than an absolute floor (default 2 ms, so micro-benchmarks don't flap on
scheduler noise) is a failure.  The CLI maps that to exit codes
0 (ok) / 1 (regression) / 2 (bad input).
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..analysis.scope import Context
from ..engine.completer import CompletionEngine, CompletionRequest, EngineConfig
from ..ide.workspace import Workspace
from ..lang.parser import parse
from ..obs.diff import PhaseDelta, top_phase_delta
from ..obs.runlog import RunLog

_FORMAT = "repro-bench"
VERSION = 1

#: default regression gate: p95 must grow by BOTH more than this ratio
#: and more than ``FLOOR_MS`` before we call it a regression.
THRESHOLD = 0.20
FLOOR_MS = 2.0

# ----------------------------------------------------------------------
# pinned workloads
# ----------------------------------------------------------------------

#: the paper workload: per universe, the declared locals / ``this`` and
#: the query list.  Pinned — editing this invalidates old BENCH files as
#: a comparison baseline, so don't, without bumping ``VERSION``.
PAPER_WORKLOADS: List[Dict[str, Any]] = [
    {
        "name": "paint",
        "universe": "paint",
        "locals": {"img": "PaintDotNet.Document", "size": "System.Drawing.Size"},
        "this": None,
        "queries": ["?", "?({img, size})", "?({img})", "img.?*f", "size := ?"],
    },
    {
        "name": "geometry",
        "universe": "geometry",
        "locals": {
            "point": "DynamicGeometry.Point",
            "shapeStyle": "DynamicGeometry.ShapeStyle",
        },
        "this": "DynamicGeometry.EllipseArc",
        "queries": ["?({point, shapeStyle})", "point.?*m", "this.?f", "? := ?"],
    },
    {
        "name": "bcl",
        "universe": "bcl",
        "locals": {"now": "System.DateTime", "span": "System.TimeSpan"},
        "this": None,
        "queries": ["?", "?({now, span})", "now.?*f", "now.?*m >= now.?*m"],
    },
]

#: synthetic-universe sizes (num_classes) for the scaling workload
SCALING_SIZES = [10, 30, 90]
SCALING_SIZES_QUICK = [10, 30]

#: synthetic-universe sizes for the cold-start battery — an order of
#: magnitude past the scaling workload, where rebuilding derived state
#: costs seconds and the pack-vs-rebuild ratio is meaningful
COLDSTART_SIZES = [300, 900]
COLDSTART_SIZES_QUICK = [100, 300]

_REPEATS = 5
_REPEATS_QUICK = 3


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def _workload_context(workspace: Workspace, spec: Dict[str, Any]) -> Context:
    locals_map = {
        name: workspace.resolve_type(type_name)
        for name, type_name in spec["locals"].items()
    }
    this_type = (
        workspace.resolve_type(spec["this"]) if spec.get("this") else None
    )
    return workspace.context(locals=locals_map, this_type=this_type)


def _time_queries(
    engine: CompletionEngine,
    context: Context,
    queries: List[str],
    repeats: int,
) -> Tuple[List[float], int]:
    """Run each query ``repeats`` times; per-run latencies (ms) and the
    total expansion-step count."""
    timings: List[float] = []
    steps = 0
    for _ in range(repeats):
        requests = [
            CompletionRequest(pe=parse(q, context), context=context)
            for q in queries
        ]
        started = time.perf_counter()
        outcomes = engine.complete_many(requests)
        timings.append((time.perf_counter() - started) * 1000.0)
        steps += sum(outcome.steps for outcome in outcomes)
    return timings, steps


def _phase_profile(spec: Dict[str, Any]) -> Dict[str, float]:
    """Aggregate span durations (ms) by span name over one traced run of
    the workload's queries, on a fresh engine so every phase runs cold.

    Profiled *separately* from the timed runs: tracing has a per-span
    cost and disables stream sharing, so it must never touch the
    latencies the regression gate compares.
    """
    workspace = Workspace.builtin(spec["universe"])
    context = _workload_context(workspace, spec)
    totals: Dict[str, float] = {}
    for query in spec["queries"]:
        outcome = workspace.engine.complete_query(
            parse(query, context), context, trace=True
        )
        for span in outcome.trace or []:
            if span["duration_ms"] is not None:
                totals[span["name"]] = (
                    totals.get(span["name"], 0.0) + span["duration_ms"]
                )
    return {name: round(totals[name], 4) for name in sorted(totals)}


def _paper_workloads(
    repeats: int, run_log: Optional[RunLog] = None
) -> List[Dict[str, Any]]:
    results = []
    for spec in PAPER_WORKLOADS:
        workspace = Workspace.builtin(spec["universe"])
        workspace.run_log = run_log
        context = _workload_context(workspace, spec)
        phase = (run_log.phase("bench/paper/{}".format(spec["name"]))
                 if run_log is not None else nullcontext())
        with phase:
            timings, steps = _time_queries(
                workspace.engine, context, spec["queries"], repeats
            )
        ordered = sorted(timings)
        stats = workspace.cache_stats() or {}
        results.append({
            "name": "paper/{}".format(spec["name"]),
            "queries": len(spec["queries"]),
            "repeats": repeats,
            "p50_ms": _percentile(ordered, 0.50),
            "p95_ms": _percentile(ordered, 0.95),
            "steps": steps,
            "cache_hit_rate": stats.get("hit_rate", 0.0),
            # additive, so VERSION stays 1: old documents simply lack it
            "phases": _phase_profile(spec),
        })
    return results


def _scaling_spec(size: int):
    """The pinned synthetic-universe spec shared by the scaling and
    mutate workloads (same classes, same seed, same client)."""
    from ..corpus import SynthesisSpec

    return SynthesisSpec(
        name="scale{}".format(size),
        seed=4242,
        namespace_root="Scale",
        nouns=["Alpha", "Beta", "Gamma", "Delta"],
        num_classes=size,
        num_helper_classes=max(2, size // 5),
        num_client_classes=1,
    )


def _scaling_workloads(sizes: List[int], repeats: int) -> List[Dict[str, Any]]:
    from ..corpus import synthesize_project

    results = []
    for size in sizes:
        project = synthesize_project(_scaling_spec(size))
        engine = CompletionEngine(project.ts)
        context = project.impls[0].context(project.ts)
        locals_list = list(context.locals.items())[:2]
        query = "?({{{}}})".format(", ".join(name for name, _ in locals_list))
        timings, steps = _time_queries(engine, context, [query], repeats)
        ordered = sorted(timings)
        results.append({
            "name": "scaling/{}".format(size),
            "queries": 1,
            "repeats": repeats,
            "p50_ms": _percentile(ordered, 0.50),
            "p95_ms": _percentile(ordered, 0.95),
            "steps": steps,
        })
    return results


def _mutation_target(ts, context: Context):
    """Deterministic edit target for the mutate workload: the
    lexicographically first type with members that is neither the query
    context's ``this`` type nor a local's type — the "edit somewhere
    else, keep the warm cache" case fine-grained invalidation exists
    for."""
    excluded = {
        typedef.full_name for typedef in context.locals.values()
    }
    if context.this_type is not None:
        excluded.add(context.this_type.full_name)
    candidates = sorted(ts.all_types(), key=lambda t: t.full_name)
    for typedef in candidates:
        if typedef.full_name in excluded:
            continue
        if typedef.methods or typedef.fields:
            return typedef
    return candidates[0]


def _mutate_workloads(
    sizes: List[int], repeats: int
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """The mutate-then-requery battery.

    Per scaling size: prime a warm engine with the scaling query, then
    ``repeats`` times add a field to one deterministically-chosen type
    and re-run the query warm.  Measured twice on identical fresh
    universes — once under the cache's fine-grained invalidation, once
    clearing the whole cache after every edit (the coarse
    clear-on-mutation baseline) — so the speedup attributes the win to
    footprint-based invalidation alone.  Returns the gateable
    ``mutate/<size>`` workload entries (timings of the default = fine
    engine) and the per-size fine-vs-coarse summary for the document's
    ``mutate`` section.
    """
    from ..codemodel import Field
    from ..corpus import synthesize_project

    workloads: List[Dict[str, Any]] = []
    summary: List[Dict[str, Any]] = []
    for size in sizes:
        measured: Dict[str, Dict[str, Any]] = {}
        for mode, fine in (("fine", True), ("coarse", False)):
            project = synthesize_project(_scaling_spec(size))
            ts = project.ts
            engine = CompletionEngine(ts)
            context = project.impls[0].context(ts)
            locals_list = list(context.locals.items())[:2]
            query = "?({{{}}})".format(
                ", ".join(name for name, _ in locals_list)
            )
            _time_queries(engine, context, [query], 1)  # prime the cache
            target = _mutation_target(ts, context)
            timings: List[float] = []
            steps = 0
            for index in range(repeats):
                target.add_field(
                    Field("bench_probe_{}".format(index), ts.string_type)
                )
                if not fine:
                    engine.cache.clear()
                run, run_steps = _time_queries(engine, context, [query], 1)
                timings += run
                steps += run_steps
            stats = engine.cache_stats() or {}
            preserved = stats.get("entries_preserved", 0)
            dropped = stats.get("entries_dropped", 0)
            touched = preserved + dropped
            measured[mode] = {
                "ordered": sorted(timings),
                "total_ms": sum(timings),
                "steps": steps,
                "preserved_fraction": (
                    preserved / touched if touched else 0.0
                ),
            }
        fine = measured["fine"]
        coarse = measured["coarse"]
        workloads.append({
            "name": "mutate/{}".format(size),
            "queries": 1,
            "repeats": repeats,
            "p50_ms": _percentile(fine["ordered"], 0.50),
            "p95_ms": _percentile(fine["ordered"], 0.95),
            "steps": fine["steps"],
        })
        summary.append({
            "size": size,
            "repeats": repeats,
            "fine_ms": fine["total_ms"],
            "coarse_ms": coarse["total_ms"],
            "speedup": (
                coarse["total_ms"] / fine["total_ms"]
                if fine["total_ms"] > 0 else 0.0
            ),
            "preserved_fraction": fine["preserved_fraction"],
        })
    return workloads, summary


def _rebuild_derived(doc: Dict[str, Any]):
    """One full cold rebuild — exactly the state a pack restores: the
    universe from its serialized document, the method-index buckets,
    every reachability walk (both ``allow_methods`` flags, at the
    engine's default depth), and the dependency graph with all closures.
    Returns the warm engine."""
    from ..serialize import load_type_system

    ts = load_type_system(doc)
    engine = CompletionEngine(ts)
    engine.index.refresh()
    for typedef in ts.all_types():
        engine.reachability.reachable(typedef, False)
        engine.reachability.reachable(typedef, True)
    graph = engine.dependency_graph()
    for name in list(graph._forward):
        graph.closure(name)
        graph.reverse_closure(name)
    return engine


def _coldstart_workloads(
    sizes: List[int], repeats: int
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """The pack-load vs. rebuild battery (docs/ARTIFACTS.md).

    Per size: synthesize the pinned scaling universe, build a pack into
    a temp dir, then time (a) a full cold rebuild of every derived
    structure from the serialized universe and (b)
    :func:`repro.pack.load_pack`.  Rebuilds are capped at 3 repetitions
    (they dominate wall clock at the large sizes); loads run the full
    ``repeats``.  Also answers the scaling query on both engines and
    records whether the top-10 matches — the gateable ``coldstart/*``
    workload entries track the *load* latency.
    """
    import os
    import tempfile

    from ..corpus import synthesize_project
    from ..lang.printer import to_source
    from ..pack import build_pack, load_pack
    from ..serialize import dump_type_system

    workloads: List[Dict[str, Any]] = []
    summary: List[Dict[str, Any]] = []
    with tempfile.TemporaryDirectory(prefix="repro-coldstart-") as tmp:
        for size in sizes:
            project = synthesize_project(_scaling_spec(size))
            workspace = Workspace(
                project.ts, name="scale{}".format(size))
            doc = dump_type_system(project.ts)
            path = os.path.join(tmp, "scale{}.pack".format(size))
            started = time.perf_counter()
            build_pack(workspace, path)
            build_ms = (time.perf_counter() - started) * 1000.0
            pack_bytes = os.path.getsize(path)

            rebuild_times: List[float] = []
            rebuilt_engine = None
            for _ in range(min(repeats, 3)):
                started = time.perf_counter()
                rebuilt_engine = _rebuild_derived(doc)
                rebuild_times.append(
                    (time.perf_counter() - started) * 1000.0)

            load_times: List[float] = []
            loaded = None
            for _ in range(repeats):
                started = time.perf_counter()
                loaded = load_pack(path)
                load_times.append((time.perf_counter() - started) * 1000.0)

            context = project.impls[0].context(project.ts)
            locals_list = list(context.locals.items())[:2]
            query = "?({{{}}})".format(
                ", ".join(name for name, _ in locals_list))

            def _top10(engine: CompletionEngine, ts) -> List[str]:
                scope = Context(ts, locals={
                    name: ts.get(typedef.full_name)
                    for name, typedef in locals_list
                })
                outcome = engine.complete_many([
                    CompletionRequest(pe=parse(query, scope), context=scope)
                ])[0]
                return [to_source(c.expr) for c in outcome.completions[:10]]

            identical = (_top10(rebuilt_engine, rebuilt_engine.ts)
                         == _top10(loaded.engine, loaded.ts))

            ordered_loads = sorted(load_times)
            rebuild_ms = _percentile(sorted(rebuild_times), 0.50)
            load_ms = _percentile(ordered_loads, 0.50)
            workloads.append({
                "name": "coldstart/{}".format(size),
                "queries": 0,
                "repeats": repeats,
                "p50_ms": load_ms,
                "p95_ms": _percentile(ordered_loads, 0.95),
                "steps": 0,
            })
            summary.append({
                "size": size,
                "rebuild_ms": rebuild_ms,
                "load_ms": load_ms,
                "speedup": (rebuild_ms / load_ms) if load_ms > 0 else 0.0,
                "pack_bytes": pack_bytes,
                "build_ms": build_ms,
                "identical_top10": identical,
            })
    return workloads, summary


def _repeated_workload(repeats: int) -> Dict[str, Any]:
    """The paper workload replayed: warm cached engine vs. cache-disabled.

    The acceptance bar for the cross-query cache is an end-to-end >=2x
    speedup here; the result carries both totals so BENCH files document
    the claim.
    """
    spec = PAPER_WORKLOADS[0]

    cold_ws = Workspace.builtin(
        spec["universe"], config=EngineConfig(enable_cache=False)
    )
    cold_context = _workload_context(cold_ws, spec)
    cold_timings, cold_steps = _time_queries(
        cold_ws.engine, cold_context, spec["queries"], repeats
    )

    warm_ws = Workspace.builtin(spec["universe"])
    warm_context = _workload_context(warm_ws, spec)
    warm_timings, warm_steps = _time_queries(
        warm_ws.engine, warm_context, spec["queries"], repeats
    )

    # first warm run is the cache-filling run; the speedup claim is about
    # the steady state, so compare totals excluding it when possible.
    steady = warm_timings[1:] or warm_timings
    cold_steady = cold_timings[1:] or cold_timings
    cold_total = sum(cold_steady)
    warm_total = sum(steady)
    stats = warm_ws.cache_stats() or {}
    return {
        "workload": "paper/{}".format(spec["name"]),
        "repeats": repeats,
        "cold_ms": cold_total,
        "warm_ms": warm_total,
        "cold_steps": cold_steps,
        "warm_steps": warm_steps,
        "speedup": (cold_total / warm_total) if warm_total > 0 else 0.0,
        "hit_rate": stats.get("hit_rate", 0.0),
    }


# ----------------------------------------------------------------------
# document: run / save / load
# ----------------------------------------------------------------------

def run_bench(
    label: str = "local",
    quick: bool = False,
    log: Optional[Callable[[str], None]] = None,
    run_log: Optional[RunLog] = None,
    seed: Optional[int] = None,
) -> Dict[str, Any]:
    """Run the pinned workload and return the BENCH document.

    With ``run_log`` attached, each workload section is recorded as a
    phase and the paper workloads' engines emit per-query records, so
    the NDJSON log doubles as a profiling input for ``repro diff``.

    ``seed`` is provenance only — the workload itself is pinned — and is
    stamped into both the document and the run-log manifest so bench
    artifacts carry the same reproducibility field fuzz runs do.
    """
    emit = log or (lambda _line: None)
    if run_log is not None and seed is not None:
        run_log.annotate(seed=seed)
    repeats = _REPEATS_QUICK if quick else _REPEATS
    sizes = SCALING_SIZES_QUICK if quick else SCALING_SIZES

    def _phase(name: str):
        return run_log.phase(name) if run_log is not None else nullcontext()

    emit("paper workloads ({} universes)...".format(len(PAPER_WORKLOADS)))
    workloads = _paper_workloads(repeats, run_log)
    emit("scaling workloads (sizes {})...".format(sizes))
    with _phase("bench/scaling"):
        workloads += _scaling_workloads(sizes, repeats)
    emit("mutate-then-requery workloads (sizes {})...".format(sizes))
    with _phase("bench/mutate"):
        mutate_workloads, mutate_summary = _mutate_workloads(sizes, repeats)
    workloads += mutate_workloads
    coldstart_sizes = COLDSTART_SIZES_QUICK if quick else COLDSTART_SIZES
    emit("cold-start workloads: pack load vs. rebuild (sizes {})...".format(
        coldstart_sizes))
    with _phase("bench/coldstart"):
        coldstart_workloads, coldstart_summary = _coldstart_workloads(
            coldstart_sizes, repeats)
    workloads += coldstart_workloads
    emit("repeated-query workload (cache on vs. off)...")
    with _phase("bench/repeated"):
        repeated = _repeated_workload(repeats)

    return {
        "format": _FORMAT,
        "version": VERSION,
        "label": label,
        "quick": quick,
        "seed": seed,
        "workloads": workloads,
        "repeated": repeated,
        # additive, so VERSION stays 1: old documents simply lack it
        "mutate": mutate_summary,
        "coldstart": coldstart_summary,
    }


def validate_bench(document: Any) -> Dict[str, Any]:
    """Check a loaded document against the schema; raise ValueError."""
    if not isinstance(document, dict):
        raise ValueError("not a repro bench document")
    if document.get("format") != _FORMAT:
        raise ValueError("not a repro bench document")
    if document.get("version") != VERSION:
        raise ValueError(
            "unsupported bench schema version {!r} (want {})".format(
                document.get("version"), VERSION
            )
        )
    workloads = document.get("workloads")
    if not isinstance(workloads, list):
        raise ValueError("bench document has no workload list")
    for workload in workloads:
        for key in ("name", "p50_ms", "p95_ms", "steps"):
            if key not in workload:
                raise ValueError(
                    "workload entry missing {!r}".format(key)
                )
    return document


def save_bench(path: str, document: Dict[str, Any]) -> None:
    validate_bench(document)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_bench(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as error:
            raise ValueError("not valid JSON: {}".format(error))
    return validate_bench(document)


# ----------------------------------------------------------------------
# comparison / regression gate
# ----------------------------------------------------------------------

def compare_bench(
    old: Dict[str, Any],
    new: Dict[str, Any],
    threshold: float = THRESHOLD,
    floor_ms: float = FLOOR_MS,
) -> Tuple[bool, List[str]]:
    """Diff two BENCH documents; ``(ok, report_lines)``.

    A workload regresses when its p95 grew by more than ``threshold``
    *and* more than ``floor_ms`` over the baseline.  Workloads present
    in only one document are reported but never fail the gate (the
    pinned set can grow).

    Regressed workloads are attributed to a phase: when both documents
    carry a ``phases`` profile for the workload, the report names the
    phase whose traced time grew the most, and the final verdict names
    the single worst phase across all regressed workloads — so a red
    gate says *which phase* regressed, not just that one did.
    """
    validate_bench(old)
    validate_bench(new)
    old_by_name = {w["name"]: w for w in old["workloads"]}
    lines: List[str] = []
    ok = True
    worst_phase: Optional[PhaseDelta] = None
    for workload in new["workloads"]:
        name = workload["name"]
        baseline = old_by_name.pop(name, None)
        if baseline is None:
            lines.append("  {:<16s} (new workload, no baseline)".format(name))
            continue
        old_p95 = float(baseline["p95_ms"])
        new_p95 = float(workload["p95_ms"])
        delta = new_p95 - old_p95
        ratio = (new_p95 / old_p95 - 1.0) if old_p95 > 0 else 0.0
        regressed = ratio > threshold and delta > floor_ms
        lines.append(
            "  {:<16s} p95 {:>8.2f} ms -> {:>8.2f} ms  ({:+.1f}%){}".format(
                name, old_p95, new_p95, 100.0 * ratio,
                "  REGRESSION" if regressed else "",
            )
        )
        if regressed:
            ok = False
            top = top_phase_delta(
                baseline.get("phases"), workload.get("phases")
            )
            if top is not None:
                lines.append(
                    "    top regressed phase: {} ({:.2f} ms -> {:.2f} ms, "
                    "{:+.2f} ms)".format(
                        top.name, top.old_ms, top.new_ms, top.delta_ms
                    )
                )
                if worst_phase is None or top.delta_ms > worst_phase.delta_ms:
                    worst_phase = top
            else:
                lines.append(
                    "    (no phase profile on both sides; cannot attribute)"
                )
    for name in old_by_name:
        lines.append("  {:<16s} (dropped from workload)".format(name))
    verdict = "ok" if ok else "p95 regression over {:.0f}% (+{:.0f} ms floor)".format(
        100.0 * threshold, floor_ms
    )
    if not ok and worst_phase is not None:
        verdict += "; top regressed phase: {} ({:+.2f} ms)".format(
            worst_phase.name, worst_phase.delta_ms
        )
    lines.append("comparison vs {!r}: {}".format(old.get("label"), verdict))
    return ok, lines


def render_bench(document: Dict[str, Any]) -> List[str]:
    """Human-readable summary lines for one BENCH document."""
    lines = ["bench '{}'{}".format(
        document.get("label"), " (quick)" if document.get("quick") else "")]
    lines.append("  {:<16s}{:>10s}{:>10s}{:>10s}".format(
        "workload", "p50 ms", "p95 ms", "steps"))
    for workload in document["workloads"]:
        lines.append("  {:<16s}{:>10.2f}{:>10.2f}{:>10d}".format(
            workload["name"], workload["p50_ms"], workload["p95_ms"],
            int(workload["steps"])))
        phases = workload.get("phases")
        if phases:
            top = sorted(phases.items(), key=lambda kv: -kv[1])[:3]
            lines.append("    phases (traced run): {}".format(
                ", ".join("{} {:.2f} ms".format(name, value)
                          for name, value in top)))
    repeated = document.get("repeated")
    if repeated:
        lines.append(
            "  repeated-query: cold {:.1f} ms vs warm {:.1f} ms -> "
            "{:.1f}x speedup (cache hit rate {:.1%})".format(
                repeated["cold_ms"], repeated["warm_ms"],
                repeated["speedup"], repeated["hit_rate"]))
    for entry in document.get("mutate") or []:
        lines.append(
            "  mutate/{}: coarse {:.1f} ms vs fine {:.1f} ms -> "
            "{:.1f}x speedup ({:.0%} of touched cache entries "
            "preserved)".format(
                entry["size"], entry["coarse_ms"], entry["fine_ms"],
                entry["speedup"], entry["preserved_fraction"]))
    for entry in document.get("coldstart") or []:
        lines.append(
            "  coldstart/{}: rebuild {:.1f} ms vs pack load {:.1f} ms -> "
            "{:.1f}x speedup ({} KiB pack, built in {:.0f} ms, top-10 "
            "{})".format(
                entry["size"], entry["rebuild_ms"], entry["load_ms"],
                entry["speedup"], entry["pack_bytes"] // 1024,
                entry["build_ms"],
                "identical" if entry["identical_top10"] else "DIVERGED"))
    return lines
