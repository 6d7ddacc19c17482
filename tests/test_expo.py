"""Prometheus exposition: render/parse round trip and the validator.

The scrape contract of ``GET /v1/metrics`` (docs/OBSERVABILITY.md): a
``Metrics.to_dict()`` snapshot rendered by ``render_prometheus`` must
parse back sample-for-sample with ``parse_exposition``, survive
``validate_exposition`` with zero problems, and obey the format's
histogram invariants (cumulative buckets, ``+Inf`` == ``_count``).
"""

import math

import pytest

from repro.obs.expo import (
    EXPOSITION_CONTENT_TYPE,
    LATENCY_BOUNDS_MS,
    parse_exposition,
    render_metrics_table,
    render_prometheus,
    sanitize_metric_name,
    table_from_samples,
    validate_exposition,
)
from repro.obs.metrics import Metrics


@pytest.fixture()
def snapshot():
    metrics = Metrics()
    metrics.incr("server_requests", 3)
    metrics.incr("server_ok", 2)
    metrics.incr("phase:index_lookup", 5)  # needs sanitising
    for value in (0.5, 3.0, 700.0):
        metrics.observe("latency_ms", value, bounds=LATENCY_BOUNDS_MS)
    return metrics.to_dict()


class TestRender:
    def test_counter_names_and_values(self, snapshot):
        text = render_prometheus([({"workspace": "bcl"}, snapshot)])
        assert '# TYPE repro_server_requests_total counter' in text
        assert 'repro_server_requests_total{workspace="bcl"} 3' in text
        # ':' is outside the Prometheus charset
        assert 'repro_phase_index_lookup_total{workspace="bcl"} 5' in text
        assert ":" not in text.replace("version", "")

    def test_histogram_is_cumulative_with_inf_bucket(self, snapshot):
        text = render_prometheus([({}, snapshot)])
        parsed = parse_exposition(text)
        samples = parsed["samples"]
        buckets = sorted(
            ((dict(labels)["le"], value)
             for (name, labels), value in samples.items()
             if name == "repro_latency_ms_bucket"),
            key=lambda kv: math.inf if kv[0] == "+Inf" else float(kv[0]))
        counts = [count for _, count in buckets]
        assert counts == sorted(counts), "buckets must be cumulative"
        assert buckets[-1][0] == "+Inf"
        assert buckets[-1][1] == samples[("repro_latency_ms_count", ())] == 3
        assert samples[("repro_latency_ms_sum", ())] == pytest.approx(703.5)

    def test_gauges_render_with_labels(self):
        text = render_prometheus(
            [], gauges=[("tenant_pending", {"workspace": "bcl"}, 3.0),
                        ("uptime_seconds", {}, 12.0)])
        parsed = parse_exposition(text)
        assert parsed["types"]["repro_tenant_pending"] == "gauge"
        key = ("repro_tenant_pending", (("workspace", "bcl"),))
        assert parsed["samples"][key] == 3.0

    def test_multiple_sections_share_one_type_line(self, snapshot):
        text = render_prometheus(
            [({"workspace": "a"}, snapshot), ({"workspace": "b"}, snapshot)])
        assert text.count("# TYPE repro_server_requests_total counter") == 1
        parsed = parse_exposition(text)
        for workspace in ("a", "b"):
            key = ("repro_server_requests_total",
                   (("workspace", workspace),))
            assert parsed["samples"][key] == 3

    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("phase:walk/expand") == \
            "phase_walk_expand"
        assert sanitize_metric_name("9lives") == "_9lives"
        assert sanitize_metric_name("") == "_"

    def test_content_type_is_prometheus_004(self):
        assert "version=0.0.4" in EXPOSITION_CONTENT_TYPE


class TestRoundTrip:
    def test_render_parse_validate(self, snapshot):
        text = render_prometheus(
            [({}, snapshot), ({"workspace": "bcl"}, snapshot)],
            gauges=[("in_flight", {}, 0.0)])
        assert validate_exposition(text) == []
        parsed = parse_exposition(text)
        assert parsed["samples"]
        # every sample family has a declared type
        for name, _labels in parsed["samples"]:
            family = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix):
                    family = name[: -len(suffix)]
            assert family in parsed["types"]

    def test_label_escaping_round_trips(self):
        metrics = Metrics()
        metrics.incr("hits")
        tricky = 'quo"te\\slash\nline'
        text = render_prometheus([({"path": tricky}, metrics.to_dict())])
        parsed = parse_exposition(text)
        key = ("repro_hits_total", (("path", tricky),))
        assert parsed["samples"][key] == 1


class TestValidator:
    def test_flags_unparsable_line(self):
        problems = validate_exposition("this is { not exposition\n")
        assert problems
        assert "line 1" in problems[0]

    def test_flags_missing_type_declaration(self):
        problems = validate_exposition("repro_lost_total 3\n")
        assert any("no # TYPE" in p for p in problems)

    def test_flags_non_cumulative_histogram(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 5\n'
            'repro_h_bucket{le="+Inf"} 3\n'
            "repro_h_sum 9\n"
            "repro_h_count 3\n"
        )
        problems = validate_exposition(text)
        assert any("not cumulative" in p for p in problems)

    def test_flags_inf_bucket_count_mismatch(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="+Inf"} 3\n'
            "repro_h_sum 9\n"
            "repro_h_count 4\n"
        )
        problems = validate_exposition(text)
        assert any("_count" in p for p in problems)

    def test_flags_duplicate_sample(self):
        text = (
            "# TYPE repro_x_total counter\n"
            "repro_x_total 1\n"
            "repro_x_total 2\n"
        )
        problems = validate_exposition(text)
        assert any("duplicate" in p for p in problems)

    def test_flags_negative_counter(self):
        text = "# TYPE repro_x_total counter\nrepro_x_total -1\n"
        problems = validate_exposition(text)
        assert any("negative" in p for p in problems)

    def test_empty_exposition_is_a_problem(self):
        assert validate_exposition("") == ["no samples in exposition"]


class TestTables:
    def test_metrics_table_aligns_and_titles(self, snapshot):
        lines = render_metrics_table(snapshot, title="bcl")
        assert lines[0] == "bcl"
        assert any("server_requests" in line for line in lines)
        assert any("latency_ms" in line and "count=3" in line
                   for line in lines)

    def test_empty_snapshot_says_so(self):
        assert render_metrics_table({}) == ["  (no metrics recorded)"]

    def test_table_from_samples_folds_buckets(self, snapshot):
        parsed = parse_exposition(render_prometheus([({}, snapshot)]))
        lines = table_from_samples(parsed)
        assert any("repro_latency_ms_count" in line for line in lines)
        assert not any("_bucket" in line for line in lines)
