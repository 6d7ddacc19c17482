"""The span-tree profiler: self-time arithmetic and exports.

The profile is pure arithmetic over exported span dicts, so these
tests build synthetic trees with exact timings and assert the numbers
— inclusive vs. self time, the zero clamp for overlapping lazy-stream
children, counter rollups, the phase taxonomy, and the collapsed-stack
flamegraph format (docs/OBSERVABILITY.md).
"""

import pytest

from repro.obs import Profile, profile_traces


def span(span_id, parent, name, start, end, counters=None):
    return {
        "kind": "span",
        "span": span_id,
        "parent": parent,
        "name": name,
        "start_ms": start,
        "end_ms": end,
        "duration_ms": None if end is None else round(end - start, 4),
        "counters": counters or {},
    }


def node(profile, path):
    return {row["path"]: row for row in profile.rows()}[path]


class TestSelfTime:
    def test_self_is_inclusive_minus_direct_children(self):
        profile = Profile().add_trace([
            span(1, None, "query", 0.0, 10.0),
            span(2, 1, "preflight", 0.0, 2.0),
            span(3, 1, "collect", 2.0, 8.0),
        ])
        root = node(profile, "query")
        assert root["inclusive_ms"] == 10.0
        assert root["self_ms"] == pytest.approx(2.0)  # 10 - (2 + 6)
        assert node(profile, "query;preflight")["self_ms"] == 2.0

    def test_overlapping_children_clamp_self_at_zero(self):
        # lazy stream spans overlap their siblings by design: children
        # sum past the parent's extent, and self time must clamp at 0
        profile = Profile().add_trace([
            span(1, None, "query", 0.0, 5.0),
            span(2, 1, "expand:hole", 0.0, 4.0),
            span(3, 1, "dedup", 0.0, 4.0),
        ])
        assert node(profile, "query")["self_ms"] == 0.0

    def test_grandchildren_do_not_reduce_root_self(self):
        profile = Profile().add_trace([
            span(1, None, "query", 0.0, 10.0),
            span(2, 1, "expand:hole", 0.0, 4.0),
            span(3, 2, "root_pool", 0.0, 3.0),
        ])
        assert node(profile, "query")["self_ms"] == pytest.approx(6.0)
        assert node(profile, "query;expand:hole")["self_ms"] == \
            pytest.approx(1.0)

    def test_open_span_counts_calls_but_no_time(self):
        profile = Profile().add_trace([
            span(1, None, "query", 0.0, None, {"steps": 7}),
        ])
        root = node(profile, "query")
        assert root["calls"] == 1
        assert root["inclusive_ms"] == 0.0
        assert root["counters"] == {"steps": 7}


class TestAggregation:
    def test_same_path_sums_across_traces(self):
        profile = Profile()
        for _ in range(3):
            profile.add_trace([
                span(1, None, "query", 0.0, 4.0),
                span(2, 1, "dedup", 1.0, 2.0, {"items": 5}),
            ])
        assert profile.traces == 3
        dedup = node(profile, "query;dedup")
        assert dedup["calls"] == 3
        assert dedup["inclusive_ms"] == pytest.approx(3.0)
        assert dedup["counters"] == {"items": 15}
        assert profile.total_ms == pytest.approx(12.0)

    def test_empty_trace_is_ignored(self):
        profile = Profile().add_trace([])
        assert profile.traces == 0
        assert profile.rows() == []


class TestExports:
    def test_collapsed_stack_lines_are_self_time_microseconds(self):
        profile = Profile().add_trace([
            span(1, None, "query", 0.0, 3.0),
            span(2, 1, "collect", 0.0, 1.2),
        ])
        assert profile.to_collapsed() == [
            "query 1800",
            "query;collect 1200",
        ]

    def test_rows_sorted_by_self_time_then_path(self):
        profile = Profile().add_trace([
            span(1, None, "query", 0.0, 10.0),
            span(2, 1, "alpha", 0.0, 3.0),
            span(3, 1, "beta", 3.0, 6.0),
        ])
        paths = [row["path"] for row in profile.rows()]
        assert paths == ["query", "query;alpha", "query;beta"]

    def test_render_includes_header_and_limit(self):
        profile = Profile().add_trace([
            span(1, None, "query", 0.0, 2.0),
            span(2, 1, "dedup", 0.0, 1.0),
        ])
        lines = profile.render(limit=1)
        assert lines[0].startswith("profile: 1 trace")
        assert len(lines) == 3  # summary + column header + 1 row


class TestStreamSpans:
    def test_stream_spans_count_their_own_pull_time(self):
        # a stream's busy time nests the pulls of the streams it reads;
        # its self time is its ``self_ms`` counter, and the synchronous
        # span the outermost pull ran under gives up ``pulled_ms``
        profile = Profile().add_trace([
            span(1, None, "query", 0.0, 10.0),
            span(2, 1, "expand:hole", 0.0, 9.0,
                 {"busy_ms": 5.0, "self_ms": 1.0}),
            span(3, 1, "dedup", 0.0, 9.0, {"busy_ms": 6.0, "self_ms": 1.0}),
            span(4, 1, "collect", 2.0, 9.0, {"pulled_ms": 6.0}),
            span(5, 2, "expand:var", 0.0, 9.0,
                 {"busy_ms": 4.0, "self_ms": 4.0}),
        ])
        assert node(profile, "query;dedup")["inclusive_ms"] == 6.0
        assert node(profile, "query;dedup")["self_ms"] == 1.0
        assert node(profile, "query;collect")["self_ms"] == 1.0
        assert node(profile, "query")["self_ms"] == pytest.approx(3.0)
        assert sum(row["self_ms"] for row in profile.rows()) == \
            pytest.approx(10.0)

    @pytest.mark.parametrize("universe", ["paint", "geometry", "bcl"])
    def test_battery_self_times_sum_to_the_query_total(self, universe):
        from repro.eval.battery import battery_for
        from repro.ide.workspace import Workspace

        battery = battery_for(universe)
        session = battery.session(Workspace.builtin(universe))
        session.trace = True
        profile = profile_traces(session.complete(source).trace
                                 for source in battery.queries)
        rows = [row for row in profile.rows()
                if row["path"].split(";")[0] == "query"]
        total = node(profile, "query")["inclusive_ms"]
        assert sum(row["self_ms"] for row in rows) == \
            pytest.approx(total, rel=0.05)
