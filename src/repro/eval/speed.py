"""Query latency summaries (the "Speed" paragraphs of Sec. 5.1–5.3).

The paper reports the proportion of queries answered within interactive
budgets: 98.9% of method queries under half a second, 92% of argument
queries under a tenth of a second, 99.5% of lookup queries under half a
second.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from .experiments import ArgumentResult, LookupResult, MethodCallResult


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of an ascending sequence (0.0 when
    empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def speed_summary(seconds: Iterable[float]) -> Dict[str, float]:
    """Latency distribution: count, percentiles, budget hit-rates."""
    values = sorted(seconds)
    if not values:
        return {"count": 0.0}
    return {
        "count": float(len(values)),
        "p50_ms": 1000.0 * percentile(values, 0.50),
        "p90_ms": 1000.0 * percentile(values, 0.90),
        "p99_ms": 1000.0 * percentile(values, 0.99),
        "under_100ms": sum(1 for v in values if v < 0.1) / len(values),
        "under_500ms": sum(1 for v in values if v < 0.5) / len(values),
    }


def method_query_times(results: List[MethodCallResult]) -> List[float]:
    """Per-query times across every subset query (Sec. 5.1 measures "the
    query with the best result"; we expose both)."""
    times: List[float] = []
    for result in results:
        times.extend(result.query_seconds)
    return times


def best_method_query_times(results: List[MethodCallResult]) -> List[float]:
    return [r.best_query_seconds for r in results if r.best_rank is not None]


def argument_query_times(results: List[ArgumentResult]) -> List[float]:
    return [r.seconds for r in results if r.guessable]


def lookup_query_times(results: List[LookupResult]) -> List[float]:
    return [r.seconds for r in results]

