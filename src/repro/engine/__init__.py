"""Completion engine: ranking, indexes, score-ordered generators."""

from .algorithm1 import Algorithm1
from .budget import (
    CancellationToken,
    QueryBudget,
    TRUNCATED_BUDGET,
    TRUNCATED_CANCELLED,
    TRUNCATED_TIMEOUT,
)
from .cache import CompletionCache, context_signature
from .completer import (
    Completion,
    CompletionEngine,
    CompletionRequest,
    EngineConfig,
    QueryOutcome,
    QueryStatus,
)
from .index import MethodIndex, ReachabilityIndex
from .ranking import AbstractTypeOracle, Ranker, RankingConfig
from .streams import (
    check_stream,
    sanitize_streams,
    sanitizer_active,
)

__all__ = [
    "AbstractTypeOracle",
    "Algorithm1",
    "CancellationToken",
    "Completion",
    "CompletionCache",
    "CompletionEngine",
    "CompletionRequest",
    "EngineConfig",
    "MethodIndex",
    "QueryBudget",
    "QueryOutcome",
    "QueryStatus",
    "Ranker",
    "RankingConfig",
    "ReachabilityIndex",
    "TRUNCATED_BUDGET",
    "TRUNCATED_CANCELLED",
    "TRUNCATED_TIMEOUT",
    "check_stream",
    "context_signature",
    "sanitize_streams",
    "sanitizer_active",
]
