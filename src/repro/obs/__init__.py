"""Observability: span tracing, ranking attribution, engine metrics.

Three independent pieces (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.trace` — a lightweight span tracer instrumenting the
  query pipeline (preflight, cache, root pool, per-combinator stream
  expansion, dedup), NDJSON/dict export.  Opt-in per query; zero cost
  when off.
* :mod:`repro.obs.attribution` — :class:`ScoreBreakdown`, the six
  Figure-7 ranking terms per candidate, summing exactly to the ranked
  score.
* :mod:`repro.obs.metrics` — the engine-wide :class:`Metrics`
  registry: counters and histograms (steps per query, latency, depth
  distribution, truncation/preflight/cache rates), JSON-exportable.
* :mod:`repro.obs.runlog` — the structured NDJSON run/event log
  (:class:`RunLog`): a manifest plus per-phase and per-query records
  for a whole run (eval battery, corpus build, fuzz run, batch).
* :mod:`repro.obs.profile` — :class:`Profile`, the deterministic
  self-time profiler aggregating span trees across a run, with
  collapsed-stack flamegraph export.
* :mod:`repro.obs.expo` — Prometheus text exposition (render, parse,
  validate) of :class:`Metrics` registries; what ``GET /v1/metrics``
  and ``repro stats --url`` speak.
* :mod:`repro.obs.slo` — rolling-window SLO objectives with
  multi-window burn rates, evaluated live (``/v1/healthz``) or offline
  over server run logs (``repro slo``).

This package sits *below* the engine (the engine imports it), so it
must not import :mod:`repro.engine` at module level.
"""

from .attribution import ScoreBreakdown
from .expo import (
    EXPOSITION_CONTENT_TYPE,
    LATENCY_BOUNDS_MS,
    parse_exposition,
    render_metrics_table,
    render_prometheus,
    validate_exposition,
)
from .slo import (
    DEFAULT_SLO_SPEC,
    SLOObjectives,
    SLOTracker,
    render_slo_report,
    slo_from_run_log,
)
from .metrics import DEFAULT_BOUNDS, Histogram, Metrics
from .profile import Profile, profile_traces
from .runlog import (
    RUNLOG_FORMAT,
    RUNLOG_VERSION,
    RunLog,
    read_run_log,
    signature_hex,
)
from .schema import (
    load_runlog_schema,
    load_schema,
    validate_record,
    validate_runlog_text,
    validate_trace_text,
)
from .trace import (
    Span,
    TRACE_FORMAT,
    TRACE_VERSION,
    Tracer,
    ndjson_to_dicts,
    trace_to_ndjson,
)

__all__ = [
    "DEFAULT_BOUNDS",
    "DEFAULT_SLO_SPEC",
    "EXPOSITION_CONTENT_TYPE",
    "Histogram",
    "LATENCY_BOUNDS_MS",
    "Metrics",
    "Profile",
    "RUNLOG_FORMAT",
    "RUNLOG_VERSION",
    "RunLog",
    "SLOObjectives",
    "SLOTracker",
    "ScoreBreakdown",
    "Span",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "Tracer",
    "load_runlog_schema",
    "load_schema",
    "ndjson_to_dicts",
    "parse_exposition",
    "profile_traces",
    "read_run_log",
    "render_metrics_table",
    "render_prometheus",
    "render_slo_report",
    "signature_hex",
    "slo_from_run_log",
    "trace_to_ndjson",
    "validate_exposition",
    "validate_record",
    "validate_runlog_text",
    "validate_trace_text",
]
