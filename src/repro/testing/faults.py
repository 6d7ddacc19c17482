"""Deterministic fault injection for the resilience layer.

Production code is instrumented with *named sites* — one-line
``faults.fire("<site>")`` calls that are no-ops unless a test installed a
:class:`FaultPlan`.  A plan maps sites to faults that trigger on the Nth
call (and optionally the following ``times - 1`` calls) and either raise
an exception or delay, so every degradation path in
``docs/RESILIENCE.md`` can be exercised without monkeypatching engine
internals.

Instrumented sites:

========================  ====================================================
site                      where it fires
========================  ====================================================
``oracle``                :class:`Ranker` before each abstract-type question
``index_lookup``          :class:`MethodIndex.candidate_methods` and the
                          reachability pruning check
``type_check``            the engine's target-type fit check (``_fits``)
``corpus_load``           ``build_all_projects`` before each project builder
``namespaces``            the ranker's common-namespace term
``matching_name``         the ranker's same-name comparison term
========================  ====================================================

Usage::

    from repro.testing import faults

    with faults.inject("oracle", error=RuntimeError("oracle down")):
        outcome = engine.complete_query(pe, context, abstypes=oracle)
    assert outcome.degraded == {"abstract_types"}

Delays simulate slow dependencies for deadline tests::

    with faults.inject("type_check", delay_ms=5, times=None):
        ...  # every type check now takes >= 5 ms

Everything is deterministic: triggering is purely call-count based and
plans are installed/uninstalled explicitly (the context manager restores
the previous plan, so injections nest).  The plan is process-wide, so a
site fires under it on whichever thread runs the query — a served
request's tenant thread included.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

#: the named injection sites wired into production code
SITES = (
    "oracle",
    "index_lookup",
    "type_check",
    "corpus_load",
    "namespaces",
    "matching_name",
)

#: the sites that fire on the query path (everything except corpus
#: construction) — what chaos-mode fuzzing schedules faults over
QUERY_SITES = tuple(site for site in SITES if site != "corpus_load")


class FaultError(RuntimeError):
    """Default exception an injected ``raise`` fault throws."""


@dataclass
class Fault:
    """One injected fault at one site.

    ``on_call`` is 1-based: the fault first triggers on the Nth time the
    site fires.  ``times`` bounds how many consecutive calls trigger
    (``None`` = every call from ``on_call`` onward).  ``error`` raises;
    ``delay_ms`` sleeps; a fault may do both (sleep, then raise).
    """

    site: str
    on_call: int = 1
    times: Optional[int] = 1
    error: Optional[BaseException] = None
    delay_ms: Optional[float] = None

    def __post_init__(self) -> None:
        # a typo'd site would install a fault that can never fire and
        # silently pass the test that installed it
        if self.site not in SITES:
            raise ValueError(
                "unknown fault site {!r}; known sites: {}".format(
                    self.site, ", ".join(SITES)
                )
            )

    def should_trigger(self, call_number: int) -> bool:
        if call_number < self.on_call:
            return False
        if self.times is None:
            return True
        return call_number < self.on_call + self.times


class FaultPlan:
    """A set of faults plus per-site call counters."""

    def __init__(self) -> None:
        self.faults: List[Fault] = []
        self.calls: Dict[str, int] = {}
        #: (site, call_number) pairs that actually triggered, for asserts
        self.triggered: List[tuple] = []

    def add(
        self,
        site: str,
        on_call: int = 1,
        times: Optional[int] = 1,
        error: Optional[BaseException] = None,
        delay_ms: Optional[float] = None,
    ) -> "FaultPlan":
        if site not in SITES:
            raise ValueError(
                "unknown fault site {!r}; known sites: {}".format(
                    site, ", ".join(SITES)
                )
            )
        if error is None and delay_ms is None:
            error = FaultError("injected fault at {!r}".format(site))
        self.faults.append(
            Fault(site, on_call=on_call, times=times, error=error,
                  delay_ms=delay_ms)
        )
        return self

    def calls_to(self, site: str) -> int:
        """How many times ``site`` has fired under this plan."""
        return self.calls.get(site, 0)

    def fire(self, site: str) -> None:
        number = self.calls.get(site, 0) + 1
        self.calls[site] = number
        for fault in self.faults:
            if fault.site != site or not fault.should_trigger(number):
                continue
            self.triggered.append((site, number))
            if fault.delay_ms is not None:
                time.sleep(fault.delay_ms / 1000.0)
            if fault.error is not None:
                raise fault.error


#: the installed plan; ``None`` keeps ``fire`` a near-free early return
_active: Optional[FaultPlan] = None


def active_plan() -> Optional[FaultPlan]:
    """The plan :func:`fire` consults."""
    return _active


def install(plan: FaultPlan) -> None:
    global _active
    _active = plan


def uninstall() -> None:
    global _active
    _active = None


def fire(site: str) -> None:
    """Instrumentation hook: no-op unless a plan is installed."""
    if _active is not None:
        _active.fire(site)


@contextmanager
def inject(
    site: str,
    on_call: int = 1,
    times: Optional[int] = 1,
    error: Optional[BaseException] = None,
    delay_ms: Optional[float] = None,
) -> Iterator[FaultPlan]:
    """Install a one-fault plan for the dynamic extent of the block.

    Restores whatever plan was previously installed, so injections nest.
    """
    global _active
    previous = _active
    plan = FaultPlan().add(
        site, on_call=on_call, times=times, error=error, delay_ms=delay_ms
    )
    _active = plan
    try:
        yield plan
    finally:
        _active = previous
