"""Aggregation of experiment results into the paper's figure series.

Every ``figureN`` function returns plain data (dicts/lists of floats) that
:mod:`repro.eval.markdown` renders as report sections.
``None`` ranks (truth not found within the scan limit) count as "worse than
any bucket", exactly as an off-the-chart rank does in the paper's CDFs.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence

from .experiments import ArgumentResult, LookupResult, MethodCallResult

#: rank cut-offs reported throughout Sec. 5
DEFAULT_RANKS = (1, 2, 3, 5, 10, 20)


def cdf(
    ranks: Iterable[Optional[int]], ranks_at: Sequence[int] = DEFAULT_RANKS
) -> "OrderedDict[int, float]":
    """Proportion of queries whose rank is <= r, for each cut-off r."""
    values = list(ranks)
    total = len(values)
    result: "OrderedDict[int, float]" = OrderedDict()
    for cutoff in ranks_at:
        if total == 0:
            result[cutoff] = 0.0
        else:
            hits = sum(1 for r in values if r is not None and r <= cutoff)
            result[cutoff] = hits / total
    return result


def proportion_top(ranks: Iterable[Optional[int]], cutoff: int) -> float:
    values = list(ranks)
    if not values:
        return 0.0
    return sum(1 for r in values if r is not None and r <= cutoff) / len(values)


def mean_reciprocal_rank(ranks: Iterable[Optional[int]]) -> float:
    """MRR over a rank list; misses (``None``) contribute 0."""
    values = list(ranks)
    if not values:
        return 0.0
    return sum(1.0 / r for r in values if r is not None) / len(values)


def summary_metrics(ranks: Iterable[Optional[int]]) -> Dict[str, float]:
    """The standard retrieval summary for one query family."""
    values = list(ranks)
    found = sorted(r for r in values if r is not None)
    return {
        "count": float(len(values)),
        "found": float(len(found)),
        "mrr": mean_reciprocal_rank(values),
        "top1": proportion_top(values, 1),
        "top10": proportion_top(values, 10),
        "top20": proportion_top(values, 20),
        "median_rank": float(found[len(found) // 2]) if found else float("nan"),
    }


# ---------------------------------------------------------------------------
# Figure 9 — best rank CDF, split all / instance / static
# ---------------------------------------------------------------------------
def figure9(
    results: List[MethodCallResult], ranks_at: Sequence[int] = DEFAULT_RANKS
) -> Dict[str, "OrderedDict[int, float]"]:
    return {
        "All": cdf((r.best_rank for r in results), ranks_at),
        "Instance": cdf(
            (r.best_rank for r in results if not r.is_static), ranks_at
        ),
        "Static": cdf(
            (r.best_rank for r in results if r.is_static), ranks_at
        ),
    }


# ---------------------------------------------------------------------------
# Figure 10 — guessability by call arity, one vs two known arguments
# ---------------------------------------------------------------------------
def figure10(
    results: List[MethodCallResult], cutoff: int = 20
) -> "OrderedDict[int, Dict[str, float]]":
    by_arity: Dict[int, List[MethodCallResult]] = {}
    for result in results:
        by_arity.setdefault(result.arity, []).append(result)
    table: "OrderedDict[int, Dict[str, float]]" = OrderedDict()
    for arity in sorted(by_arity):
        bucket = by_arity[arity]
        table[arity] = {
            "count": float(len(bucket)),
            "two_args": proportion_top((r.best_rank for r in bucket), cutoff),
            "one_arg": proportion_top(
                (r.best_rank_single for r in bucket), cutoff
            ),
        }
    return table


# ---------------------------------------------------------------------------
# Figures 11 & 12 — rank difference vs. Intellisense
# ---------------------------------------------------------------------------
def _rank_differences(
    results: List[MethodCallResult], use_return: bool, not_found_rank: int
) -> List[int]:
    diffs: List[int] = []
    for result in results:
        if result.intellisense is None:
            continue
        ours = result.best_rank_return if use_return else result.best_rank
        if ours is None:
            ours = not_found_rank
        diffs.append(ours - result.intellisense)
    return diffs


def figure11(
    results: List[MethodCallResult],
    use_return: bool = False,
    not_found_rank: int = 100,
) -> Dict[str, float]:
    """Summary of (our rank − Intellisense rank): negative = we win.

    The paper's headline: "About 45% of the time, our position is at least
    10 higher than it is with Intellisense."
    """
    diffs = _rank_differences(results, use_return, not_found_rank)
    total = len(diffs)
    if total == 0:
        return {"count": 0.0}
    return {
        "count": float(total),
        "we_win_by_10+": sum(1 for d in diffs if d <= -10) / total,
        "we_win": sum(1 for d in diffs if d < 0) / total,
        "tie": sum(1 for d in diffs if d == 0) / total,
        "intellisense_wins": sum(1 for d in diffs if d > 0) / total,
        "intellisense_wins_by_10+": sum(1 for d in diffs if d >= 10) / total,
    }


def figure12(
    results: List[MethodCallResult], not_found_rank: int = 100
) -> Dict[str, float]:
    """Figure 11 with the return type known and used as a filter."""
    return figure11(results, use_return=True, not_found_rank=not_found_rank)


#: default band edges for the Figure 11 histogram (left-inclusive)
DIFF_BANDS = (-50, -20, -10, -5, -1, 0, 1, 5, 10, 20)


def figure11_histogram(
    results: List[MethodCallResult],
    use_return: bool = False,
    not_found_rank: int = 100,
    bands: Sequence[int] = DIFF_BANDS,
) -> "OrderedDict[str, float]":
    """The banded distribution the paper plots: share of calls whose rank
    difference (ours − Intellisense) falls in each band.  Negative = we
    rank higher."""
    diffs = _rank_differences(results, use_return, not_found_rank)
    table: "OrderedDict[str, float]" = OrderedDict()
    if not diffs:
        return table
    edges = list(bands)
    labels = ["< {}".format(edges[0])]
    for low, high in zip(edges, edges[1:]):
        labels.append("{}..{}".format(low, high - 1) if high - low > 1
                      else str(low))
    labels.append(">= {}".format(edges[-1]))
    counts = [0] * (len(edges) + 1)
    for diff in diffs:
        slot = len(edges)
        for index, edge in enumerate(edges):
            if diff < edge:
                slot = index
                break
        counts[slot] += 1
    total = len(diffs)
    for label, count in zip(labels, counts):
        table[label] = count / total
    return table


def figure9_by_project(
    results: List[MethodCallResult], ranks_at: Sequence[int] = DEFAULT_RANKS
) -> "OrderedDict[str, OrderedDict[int, float]]":
    """Per-project best-rank CDFs (the per-row view behind Table 1)."""
    by_project: "OrderedDict[str, List[MethodCallResult]]" = OrderedDict()
    for result in results:
        by_project.setdefault(result.project, []).append(result)
    return OrderedDict(
        (project, cdf((r.best_rank for r in bucket), ranks_at))
        for project, bucket in by_project.items()
    )


# ---------------------------------------------------------------------------
# Figure 13 — argument prediction CDF (with and without bare locals)
# ---------------------------------------------------------------------------
def figure13(
    results: List[ArgumentResult], ranks_at: Sequence[int] = DEFAULT_RANKS
) -> Dict[str, "OrderedDict[int, float]"]:
    guessable = [r for r in results if r.guessable]
    return {
        "Normal": cdf((r.rank for r in guessable), ranks_at),
        "No variables": cdf(
            (r.rank for r in guessable if not r.is_local), ranks_at
        ),
    }


# ---------------------------------------------------------------------------
# Figure 14 — how arguments are written
# ---------------------------------------------------------------------------
def figure14(results: List[ArgumentResult]) -> "OrderedDict[str, float]":
    counts = Counter(
        r.kind if r.guessable else "not guessable" for r in results
    )
    total = sum(counts.values())
    table: "OrderedDict[str, float]" = OrderedDict()
    for kind, count in counts.most_common():
        table[kind] = count / total if total else 0.0
    return table


# ---------------------------------------------------------------------------
# Figures 15 & 16 — lookup prediction CDFs per variant
# ---------------------------------------------------------------------------
def _lookup_figure(
    results: List[LookupResult],
    variants: Sequence[str],
    ranks_at: Sequence[int],
) -> "OrderedDict[str, OrderedDict[int, float]]":
    table: "OrderedDict[str, OrderedDict[int, float]]" = OrderedDict()
    for variant in variants:
        ranks = [r.rank for r in results if r.variant == variant]
        table[variant] = cdf(ranks, ranks_at)
    return table


def figure15(
    results: List[LookupResult], ranks_at: Sequence[int] = DEFAULT_RANKS
) -> "OrderedDict[str, OrderedDict[int, float]]":
    return _lookup_figure(results, ["Target", "Source", "Both"], ranks_at)


def figure16(
    results: List[LookupResult], ranks_at: Sequence[int] = DEFAULT_RANKS
) -> "OrderedDict[str, OrderedDict[int, float]]":
    return _lookup_figure(
        results, ["Left", "Right", "Both", "2xLeft", "2xRight"], ranks_at
    )
