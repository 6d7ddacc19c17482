"""Per-query resource budgets and cooperative cancellation.

The paper's generator of completions "will usually continue producing
more completions forever"; the static caps in :class:`EngineConfig`
happen to bound exploration, but nothing bounds *time*.  A
:class:`QueryBudget` gives every query a hard wall: a wall-clock
deadline, an expansion-step budget, and a cooperative
:class:`CancellationToken`, all checked inside the lazy stream
combinators and the index traversals.

The contract is *best-effort, never hang*: when a budget trips, the
combinators simply stop producing (their heaps drain in order, so the
results already emitted remain exactly the best-so-far prefix), the
engine returns what it has, and the tripped reason — one of the
:data:`TRUNCATED_TIMEOUT` / :data:`TRUNCATED_BUDGET` /
:data:`TRUNCATED_CANCELLED` constants — is reported on the query
outcome.  No exception crosses the query path unless a caller opts into
strict mode via :meth:`QueryBudget.raise_if_tripped`.

Budgets are cheap: :meth:`QueryBudget.tick` is a counter increment plus
(every ``CLOCK_CHECK_INTERVAL`` ticks) one monotonic-clock read.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..errors import BudgetExhausted, QueryCancelled, QueryTimeout

#: machine-readable truncation reasons, surfaced end to end (engine ->
#: session -> CLI exit code)
TRUNCATED_TIMEOUT = "timeout"
TRUNCATED_BUDGET = "budget"
TRUNCATED_CANCELLED = "cancelled"

#: how many ticks pass between wall-clock reads (cancellation and the
#: step budget are checked on every tick — they are just comparisons)
CLOCK_CHECK_INTERVAL = 32


class CancellationToken:
    """Cooperative cancellation: the owner calls :meth:`cancel`, workers
    poll :attr:`cancelled` (via ``QueryBudget.tick``) and wind down."""

    __slots__ = ("_cancelled",)

    def __init__(self) -> None:
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<CancellationToken {}>".format(
            "cancelled" if self._cancelled else "live"
        )


class QueryBudget:
    """Wall-clock + step budget + cancellation for one query.

    ``deadline_ms`` and ``max_steps`` may each be ``None`` (unlimited).
    ``clock`` is injectable (seconds, monotonic) so tests control time
    deterministically.  A budget is single-use: it starts timing at
    construction and remembers the first reason it tripped.
    """

    __slots__ = (
        "deadline_ms",
        "max_steps",
        "token",
        "_clock",
        "_started",
        "steps",
        "tripped",
        "_until_clock_check",
    )

    def __init__(
        self,
        deadline_ms: Optional[float] = None,
        max_steps: Optional[int] = None,
        token: Optional[CancellationToken] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.deadline_ms = deadline_ms
        self.max_steps = max_steps
        self.token = token
        self._clock = clock
        self._started = clock()
        self.steps = 0
        #: the first trip reason, or ``None`` while within budget
        self.tripped: Optional[str] = None
        #: first tick reads the clock (so even tiny streams notice an
        #: already-expired deadline), then every CLOCK_CHECK_INTERVAL
        self._until_clock_check = 1

    # ------------------------------------------------------------------
    # checking
    # ------------------------------------------------------------------
    def tick(self, cost: int = 1) -> bool:
        """Charge ``cost`` steps; ``True`` while within budget.

        A charge ends where ``cost`` calls of ``tick()`` would: a trip
        stops it at the tripping step (``max_steps + 1``).  Once tripped,
        stays tripped (and stops charging and reading the clock).
        """
        if self.tripped is not None:
            return False
        if cost != 1 and (self.token is not None or self.max_steps is not None
                         or self.deadline_ms is not None):
            return all(self.tick() for _ in range(cost))
        self.steps += cost
        if self.token is not None and self.token.cancelled:
            self.tripped = TRUNCATED_CANCELLED
            return False
        if self.max_steps is not None and self.steps > self.max_steps:
            self.tripped = TRUNCATED_BUDGET
            return False
        if self.deadline_ms is not None:
            self._until_clock_check -= cost
            if self._until_clock_check <= 0:
                self._until_clock_check = CLOCK_CHECK_INTERVAL
                if self.elapsed_ms() > self.deadline_ms:
                    self.tripped = TRUNCATED_TIMEOUT
                    return False
        return True

    def ok(self) -> bool:
        """Within budget, without charging a step (re-checks the clock
        and the token, so long non-stream work can poll it)."""
        if self.tripped is not None:
            return False
        if self.token is not None and self.token.cancelled:
            self.tripped = TRUNCATED_CANCELLED
            return False
        if (
            self.deadline_ms is not None
            and self.elapsed_ms() > self.deadline_ms
        ):
            self.tripped = TRUNCATED_TIMEOUT
            return False
        return True

    def elapsed_ms(self) -> float:
        return (self._clock() - self._started) * 1000.0

    # ------------------------------------------------------------------
    # strict mode
    # ------------------------------------------------------------------
    def raise_if_tripped(self) -> None:
        """Map a trip to the structured taxonomy, for callers that want
        an exception rather than a truncated result."""
        if self.tripped == TRUNCATED_TIMEOUT:
            raise QueryTimeout(self.elapsed_ms(), self.deadline_ms or 0.0)
        if self.tripped == TRUNCATED_BUDGET:
            raise BudgetExhausted(self.steps, self.max_steps or 0)
        if self.tripped == TRUNCATED_CANCELLED:
            raise QueryCancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<QueryBudget steps={} tripped={!r}>".format(
            self.steps, self.tripped
        )


#: a shared no-op stand-in usable where a budget is optional
UNLIMITED = QueryBudget()
