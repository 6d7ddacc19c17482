"""Prometheus text exposition for the :class:`~repro.obs.metrics.Metrics`
registries — dependency-free render *and* parse.

The serve path exposes every tenant's engine registry (plus the
server-wide HTTP registry) at ``GET /v1/metrics`` in the Prometheus
text exposition format (version 0.0.4), so any standard scraper can
poll a live completion server.  This module is the whole story:

* :func:`render_prometheus` turns ``Metrics.to_dict()``-shaped
  snapshots (counters + bucketed histograms) into exposition text,
  one label set per snapshot (the server labels tenants with
  ``workspace="<name>"``);
* :func:`parse_exposition` parses exposition text back into typed
  samples — what ``repro stats --url --validate`` round-trips;
* :func:`validate_exposition` runs the structural checks a scraper
  would trip over (unparsable lines, missing ``# TYPE``, histogram
  buckets that are not cumulative, ``+Inf`` bucket != ``_count``);
* :func:`render_metrics_table` / :func:`table_from_samples` are the
  human-readable spellings behind ``repro stats --watch``.

Counters render as ``<prefix>_<name>_total``; histograms render the
standard ``_bucket{le=...}`` cumulative series plus ``_sum`` and
``_count``.  Metric names are sanitised to the Prometheus charset
(``repro stats``' engine phase counters contain ``:``, which becomes
``_``).  See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: metric-name prefix stamped on every exposed family
DEFAULT_PREFIX = "repro"

#: the content type a compliant scrape endpoint answers with
EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: histogram bucket bounds for millisecond latencies (powers of two up
#: to ~4 s); finer than the engine's step-count bounds so serve-path
#: tail latency resolves
LATENCY_BOUNDS_MS: Sequence[float] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096,
)

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_]")

#: one exposition sample line: name, optional {labels}, value
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)

_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

#: a sample key: (metric name, sorted (label, value) pairs)
SampleKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def sanitize_metric_name(name: str) -> str:
    """Map an internal metric name onto the Prometheus charset."""
    cleaned = _INVALID_CHARS.sub("_", name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned or "_"


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _label_suffix(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    parts = ['{}="{}"'.format(key, _escape_label(str(labels[key])))
             for key in sorted(labels)]
    return "{" + ",".join(parts) + "}"


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_bound(bound: float) -> str:
    return "+Inf" if bound == math.inf else _format_value(float(bound))


def render_prometheus(
    sections: Iterable[Tuple[Dict[str, str], Dict[str, Any]]],
    prefix: str = DEFAULT_PREFIX,
    gauges: Iterable[Tuple[str, Dict[str, str], float]] = (),
) -> str:
    """Render registry snapshots as Prometheus exposition text.

    ``sections`` is an iterable of ``(labels, metrics_dict)`` pairs
    where ``metrics_dict`` is :meth:`Metrics.to_dict` output; every
    sample in a section carries that section's labels.  ``gauges`` adds
    point-in-time values (uptime, queue depth, warm-probe latency) that live in
    no registry.  Samples of the same family are grouped under one
    ``# TYPE`` line, as the format requires.
    """
    counters: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    histograms: Dict[str, List[Tuple[Dict[str, str], Dict[str, Any]]]] = {}
    for labels, snapshot in sections:
        for name, value in snapshot.get("counters", {}).items():
            metric = "{}_{}_total".format(prefix, sanitize_metric_name(name))
            counters.setdefault(metric, []).append((labels, float(value)))
        for name, hist in snapshot.get("histograms", {}).items():
            metric = "{}_{}".format(prefix, sanitize_metric_name(name))
            histograms.setdefault(metric, []).append((labels, hist))

    gauge_families: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for name, labels, value in gauges:
        metric = "{}_{}".format(prefix, sanitize_metric_name(name))
        gauge_families.setdefault(metric, []).append((labels, float(value)))

    lines: List[str] = []
    for metric in sorted(gauge_families):
        lines.append("# TYPE {} gauge".format(metric))
        for labels, value in gauge_families[metric]:
            lines.append("{}{} {}".format(
                metric, _label_suffix(labels), _format_value(value)))
    for metric in sorted(counters):
        lines.append("# TYPE {} counter".format(metric))
        for labels, value in counters[metric]:
            lines.append("{}{} {}".format(
                metric, _label_suffix(labels), _format_value(value)))
    for metric in sorted(histograms):
        lines.append("# TYPE {} histogram".format(metric))
        for labels, hist in histograms[metric]:
            cumulative = 0
            for bound, count in zip(
                list(hist["bounds"]) + [math.inf], hist["buckets"]
            ):
                cumulative += count
                bucket_labels = dict(labels)
                bucket_labels["le"] = _format_bound(bound)
                lines.append("{}_bucket{} {}".format(
                    metric, _label_suffix(bucket_labels), cumulative))
            lines.append("{}_sum{} {}".format(
                metric, _label_suffix(labels), _format_value(hist["sum"])))
            lines.append("{}_count{} {}".format(
                metric, _label_suffix(labels), hist["count"]))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# parsing / validation (the --validate round trip)
# ----------------------------------------------------------------------

def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)


def parse_exposition(text: str) -> Dict[str, Any]:
    """Parse exposition text into ``{"types": {...}, "samples": {...}}``.

    ``types`` maps family name to its declared type; ``samples`` maps
    :data:`SampleKey` to the float value.  Raises ``ValueError`` on the
    first malformed line or duplicated sample.
    """
    types: Dict[str, str] = {}
    samples: Dict[SampleKey, float] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(
                    "line {}: malformed TYPE line: {!r}".format(number, line))
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(
                "line {}: not an exposition sample: {!r}".format(number, line))
        labels: Dict[str, str] = {}
        blob = match.group("labels")
        if blob:
            consumed = 0
            for found in _LABEL_RE.finditer(blob):
                labels[found.group(1)] = (
                    found.group(2).replace('\\"', '"')
                    .replace("\\n", "\n").replace("\\\\", "\\"))
                consumed += len(found.group(0))
            if consumed < len(blob.replace(",", "")):
                raise ValueError(
                    "line {}: malformed labels: {!r}".format(number, blob))
        try:
            value = _parse_value(match.group("value"))
        except ValueError:
            raise ValueError("line {}: bad sample value {!r}".format(
                number, match.group("value")))
        key = (match.group("name"), tuple(sorted(labels.items())))
        if key in samples:
            raise ValueError(
                "line {}: duplicate sample {}{}".format(
                    number, key[0], _label_suffix(labels)))
        samples[key] = value
    return {"types": types, "samples": samples}


def _family_of(name: str) -> str:
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def validate_exposition(text: str) -> List[str]:
    """Structural problems in exposition text (empty list = valid).

    Checks every line parses, every sample belongs to a declared
    family, counters and histogram counts are non-negative, and each
    histogram series is cumulative with its ``+Inf`` bucket equal to
    ``_count`` — the invariants a Prometheus scraper relies on.
    """
    try:
        parsed = parse_exposition(text)
    except ValueError as error:
        return [str(error)]
    problems: List[str] = []
    types, samples = parsed["types"], parsed["samples"]
    if not samples:
        problems.append("no samples in exposition")
    histogram_series: Dict[SampleKey, Dict[str, float]] = {}
    for (name, labels), value in samples.items():
        family = _family_of(name)
        declared = types.get(family) or types.get(name)
        if declared is None:
            problems.append("sample {} has no # TYPE declaration".format(name))
            continue
        if declared == "counter" and value < 0:
            problems.append("counter {} is negative ({})".format(name, value))
        if declared == "histogram" and name.endswith("_bucket"):
            le = dict(labels).get("le")
            if le is None:
                problems.append(
                    "histogram bucket {} lacks an 'le' label".format(name))
                continue
            base = tuple(sorted(pair for pair in labels if pair[0] != "le"))
            series = histogram_series.setdefault((family, base), {})
            series[le] = value
    for (family, base), series in sorted(histogram_series.items()):
        if "+Inf" not in series:
            problems.append(
                "histogram {} has no +Inf bucket".format(family))
            continue
        ordered = sorted(series.items(), key=lambda kv: _parse_value(kv[0]))
        counts = [count for _, count in ordered]
        if any(b > a for b, a in zip(counts, counts[1:])):
            problems.append(
                "histogram {} buckets are not cumulative".format(family))
        count_key = ("{}_count".format(family), base)
        if count_key in samples and series["+Inf"] != samples[count_key]:
            problems.append(
                "histogram {}: +Inf bucket ({}) != _count ({})".format(
                    family, series["+Inf"], samples[count_key]))
        sum_key = ("{}_sum".format(family), base)
        if sum_key not in samples:
            problems.append("histogram {} has no _sum sample".format(family))
    return problems


# ----------------------------------------------------------------------
# human-readable tables (repro stats --watch)
# ----------------------------------------------------------------------

def render_metrics_table(
    snapshot: Dict[str, Any], title: Optional[str] = None
) -> List[str]:
    """An aligned text table of one ``Metrics.to_dict()`` snapshot."""
    lines: List[str] = []
    if title:
        lines.append(title)
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})
    width = max((len(name) for name in list(counters) + list(histograms)),
                default=0)
    for name in sorted(counters):
        lines.append("  {:<{}}  {}".format(name, width, counters[name]))
    for name in sorted(histograms):
        hist = histograms[name]
        lines.append(
            "  {:<{}}  count={} mean={:.2f} min={} max={}".format(
                name, width, hist["count"], hist["mean"],
                hist["min"], hist["max"]))
    if not counters and not histograms:
        lines.append("  (no metrics recorded)")
    return lines


def table_from_samples(parsed: Dict[str, Any]) -> List[str]:
    """An aligned table of parsed exposition samples (bucket series are
    folded away — ``_sum``/``_count`` carry the summary)."""
    rows: List[Tuple[str, float]] = []
    for (name, labels), value in sorted(parsed["samples"].items()):
        if name.endswith("_bucket"):
            continue
        rows.append((name + _label_suffix(dict(labels)), value))
    if not rows:
        return ["  (no samples)"]
    width = max(len(label) for label, _ in rows)
    return ["  {:<{}}  {}".format(label, width, _format_value(value))
            for label, value in rows]
