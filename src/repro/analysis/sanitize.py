"""Stream-sanitizer probes: exercise the engine with assertions on.

``repro lint --sanitize`` wants a dynamic check to complement the static
passes: run a handful of representative queries over the universe with the
:func:`~repro.engine.streams.sanitize_streams` invariant checker enabled,
and report any :class:`~repro.errors.StreamInvariantViolation` as an
``RA030`` diagnostic.  A violation means a combinator (or a cost function
feeding one) emitted scores out of order — every downstream ranking
guarantee is void, so it is an error-severity finding.

The probes cover each stream shape the engine builds: a bare ``?`` hole
(``best_first`` chains), a ``.?*m`` suffix, an unknown call
(``ordered_product`` + ``merge_nested``), a known call (``merge`` over
``merge_nested`` with the call floor), and an assignment and a comparison
(``reorder_with_slack`` with the pair floor) — each run twice, once
unbounded-ish and once under a tight step budget to exercise truncation
paths.
"""

from __future__ import annotations

from typing import List, Optional

from ..codemodel.types import TypeDef
from ..codemodel.typesystem import TypeSystem
from ..errors import StreamInvariantViolation
from ..lang.ast import Var
from ..lang.partial import (
    Hole,
    PartialAssign,
    PartialCompare,
    SuffixHole,
    UnknownCall,
)
from .diagnostics import Diagnostic, diag
from .scope import Context

#: results pulled per probe; enough to drive every combinator several
#: rounds without making lint slow on large universes
_PROBE_RESULTS = 25
#: the tight budget used by the truncation variant of each probe
_PROBE_BUDGET_STEPS = 200


def run_sanitizer_probes(
    engine,
    ts: Optional[TypeSystem] = None,
) -> List[Diagnostic]:
    """Run the probe queries with the sanitizer on; RA030 per violation."""
    from ..engine.budget import QueryBudget
    from ..engine.streams import sanitize_streams

    ts = ts or engine.ts
    context = _probe_context(ts)
    probes = _build_probes(context)
    diagnostics: List[Diagnostic] = []
    with sanitize_streams():
        for label, pe in probes:
            for budget in (None, QueryBudget(max_steps=_PROBE_BUDGET_STEPS)):
                try:
                    engine.complete(pe, context, n=_PROBE_RESULTS,
                                    budget=budget)
                except StreamInvariantViolation as violation:
                    diagnostics.append(diag(
                        "RA030",
                        "probe {!r}{}: {}".format(
                            label,
                            " (budgeted)" if budget is not None else "",
                            violation),
                        location=violation.combinator,
                    ))
                    break  # one report per probe is enough
    return diagnostics


def _probe_context(ts: TypeSystem) -> Context:
    """A scope over the universe's first few member-bearing types."""
    locals = {}
    names = iter(["a", "b", "c"])
    for typedef in ts.all_types():
        if typedef.is_primitive or typedef.kind.value == "interface":
            continue
        if not (typedef.fields or typedef.properties or typedef.methods):
            continue
        try:
            locals[next(names)] = typedef
        except StopIteration:
            break
    return Context(ts, locals=locals)


def _build_probes(context: Context):
    """(label, partial expression) pairs matched to the available scope."""
    probes = [("?", Hole())]
    local_vars = [
        Var(name, typedef) for name, typedef in context.locals.items()
    ]
    if local_vars:
        probes.append((
            "a.?*m", SuffixHole(local_vars[0], methods=True, star=True)
        ))
        probes.append((
            "?({a})", UnknownCall((local_vars[0],))
        ))
        probes.append((
            "? := ?", PartialAssign(Hole(), Hole())
        ))
        probes.append((
            "? == ?", PartialCompare(Hole(), Hole(), "==")
        ))
    if len(local_vars) >= 2:
        probes.append((
            "?({a, b})", UnknownCall((local_vars[0], local_vars[1]))
        ))
    known = _known_call_probe(context)
    if known is not None:
        probes.append(known)
    return probes


def _known_call_probe(context: Context):
    """A ``Name(?, ...)`` probe over the first small-arity method, driving
    the ``merge`` combinator across its overload streams."""
    from ..lang.partial import KnownCall

    for method in context.ts.all_methods():
        if method.is_constructor or not 1 <= method.arity <= 2:
            continue
        candidates = tuple(context.methods_named(method.name))
        args = tuple(Hole() for _ in range(method.arity))
        label = "{}({})".format(method.name, ", ".join("?" for _ in args))
        return label, KnownCall(candidates, args)
    return None
