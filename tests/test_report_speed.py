"""Tests for the latency summaries."""

import pytest

from repro.eval import speed_summary
from repro.eval.speed import (
    argument_query_times,
    best_method_query_times,
    method_query_times,
)
from tests.test_figures_tables import make_arg, make_call


class TestSpeed:
    def test_summary_math(self):
        summary = speed_summary([0.01] * 9 + [0.9])
        assert summary["count"] == 10
        assert summary["under_100ms"] == 0.9
        assert summary["under_500ms"] == 0.9
        assert summary["p50_ms"] == pytest.approx(10.0)

    def test_empty_summary(self):
        assert speed_summary([]) == {"count": 0.0}

    def test_time_collectors(self):
        calls = [make_call(), make_call()]
        assert len(method_query_times(calls)) == 2
        assert len(best_method_query_times(calls)) == 2
        args = [make_arg(), make_arg(guessable=False)]
        assert len(argument_query_times(args)) == 1
