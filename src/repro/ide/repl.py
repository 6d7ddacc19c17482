"""A terminal REPL for partial-expression queries.

Run:  python -m repro repl --universe paint

The REPL parses its commands and calls the operations the CLI calls
(:func:`~repro.ide.session.render_record`, :mod:`repro.api`, the
``repro stats --watch`` table); limits must be positive.

Commands (everything else is treated as a partial expression)::

    :let <name> <Type>     declare a local
    :this <Type>|none      set / clear the type of `this`
    :expect <Type>|void|none  constrain the result type (Fig. 12 mode)
    :keyword <word>|none   filter unknown-call methods by name
    :n <count>             result list size
    :timeout <ms>|none     per-query wall-clock deadline (best-effort)
    :budget <steps>|none   per-query expansion-step budget
    :locals                show the scope
    :accept <rank>         accept a suggestion; 0s become ?s
    :explain <rank>        show the ranking-term breakdown of a suggestion
                           (terms sum exactly to the score)
    :trace [on|off|show]   per-query span tracing: toggle it, or show
                           the last query's span tree
                           (docs/OBSERVABILITY.md)
    :stats                 engine metrics: query/cache/truncation
                           counters and step/latency histograms
    :profile [flame]       aggregate self-time profile over every traced
                           query this session (:trace on first); with
                           'flame', print collapsed-stack lines instead
                           (docs/OBSERVABILITY.md)
    :lint [pe]             diagnostics: without arguments, lint the
                           universe (RA0xx + RA1xx codes,
                           docs/ANALYSIS.md); with a partial
                           expression, pre-flight it (satisfiability,
                           dead ranking terms)
    :impact <Type>...      what would editing these types invalidate?
                           reverse-dependency closure, root pools, and
                           live cache blast radius (docs/ANALYSIS.md)
    :cache [clear|on|off]  cross-query cache: show hit/miss counters
                           with invalidation attribution, clear it, or
                           toggle it (docs/PERFORMANCE.md)
    :fuzz [iters] [seed]   rank-stability fuzzing against this universe:
                           seeded semantic-preserving transformations +
                           differential oracles (docs/FUZZING.md);
                           default 10 iterations, seed 0
    :types [prefix]        browse the universe's namespaces and types
    :tree <Type>           one type's hierarchy and members
    :load <file.cs>        read a C#-subset source file as the universe
    :impls                 list method bodies of the loaded project
    :enter <MethodName>    query from inside a method body (scope +
                           abstract types of that body)
    :help                  this text
    :quit                  leave
"""

from __future__ import annotations

import sys
from typing import Callable, Iterable

from .session import CompletionSession, render_record, require_positive
from .workspace import Workspace

_HELP = __doc__.split("Commands", 1)[1]


class _ReplState:
    """Mutable REPL state: the session may be replaced by :load / :enter."""

    def __init__(self, workspace: Workspace) -> None:
        self.session = CompletionSession(workspace)


def run_repl(
    workspace: Workspace,
    lines: Iterable[str],
    write: Callable[[str], None],
) -> CompletionSession:
    """Drive a session from an iterable of input lines (testable core).

    Returns the final session so callers can inspect the state.
    """
    state = _ReplState(workspace)
    write("partial-expression REPL — universe '{}'; :help for commands".format(
        workspace.name))
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        if line.startswith(":"):
            if not _command(state, line, write):
                break
            continue
        _query(state.session, line, write)
    return state.session


def _command(state: "_ReplState", line: str, write) -> bool:
    session = state.session
    parts = line.split()
    command, args = parts[0], parts[1:]
    try:
        if command == ":quit":
            write("bye")
            return False
        if command == ":help":
            write("Commands" + _HELP)
        elif command == ":lint":
            _lint(session, line.split(None, 1)[1] if args else None, write)
        elif command == ":impact" and args:
            _impact(session, args, write)
        elif command == ":cache" and len(args) <= 1:
            _cache(session, args[0] if args else None, write)
        elif command == ":fuzz" and len(args) <= 2:
            _fuzz(session, args, write)
        elif command == ":types" and len(args) <= 1:
            from ..codemodel.explorer import namespace_tree

            write(namespace_tree(session.workspace.ts,
                                 args[0] if args else None))
        elif command == ":tree" and len(args) == 1:
            from ..codemodel.explorer import type_tree

            typedef = session.workspace.resolve_type(args[0])
            write(type_tree(session.workspace.ts, typedef))
        elif command == ":load" and len(args) == 1:
            _load(state, args[0], write)
        elif command == ":impls":
            impls = session.workspace.impls()
            if not impls:
                write("(no method bodies; :load a source file first)")
            for impl in impls:
                write("  {}".format(impl.method.full_name))
        elif command == ":enter" and len(args) == 1:
            _enter(state, args[0], write)
        elif command == ":let" and len(args) == 2:
            typedef = session.declare(args[0], args[1])
            write("local {}: {}".format(args[0], typedef.full_name))
        elif command == ":this" and len(args) == 1:
            typedef = session.set_this(None if args[0] == "none" else args[0])
            write("this: {}".format(typedef.full_name if typedef else "none"))
        elif command == ":expect" and len(args) == 1:
            typedef = session.set_expected(
                None if args[0] == "none" else args[0])
            write("expect: {}".format(typedef.full_name if typedef else "none"))
        elif command == ":keyword" and len(args) == 1:
            session.keyword = None if args[0] == "none" else args[0]
            write("keyword: {}".format(session.keyword or "none"))
        elif command == ":n" and len(args) == 1:
            session.n = require_positive("n", int(args[0]))
            write("showing top {}".format(session.n))
        elif command == ":timeout" and len(args) == 1:
            session.timeout_ms = (
                None if args[0] == "none"
                else require_positive("timeout", float(args[0]))
            )
            write("timeout: {}".format(
                "none" if session.timeout_ms is None
                else "{:.0f} ms".format(session.timeout_ms)))
        elif command == ":budget" and len(args) == 1:
            session.step_budget = (
                None if args[0] == "none"
                else require_positive("budget", int(args[0]))
            )
            write("budget: {}".format(session.step_budget or "none"))
        elif command == ":locals":
            if not session.locals and session.this_type is None:
                write("(empty scope)")
            for name, typedef in session.locals.items():
                write("  {}: {}".format(name, typedef.full_name))
            if session.this_type is not None:
                write("  this: {}".format(session.this_type.full_name))
        elif command == ":explain" and len(args) == 1:
            _explain(session, int(args[0]), write)
        elif command == ":trace" and len(args) <= 1:
            _trace(session, args[0] if args else None, write)
        elif command == ":stats":
            _stats(session, write)
        elif command == ":profile" and len(args) <= 1:
            _profile(session, args[0] if args else None, write)
        elif command == ":accept" and len(args) == 1:
            refined = session.accept(int(args[0]))
            if refined is None:
                write("nothing to accept")
            else:
                write("next query: {}".format(refined))
                _query(session, refined, write)
        else:
            write("unrecognised command; :help lists commands")
    except (OSError, ValueError, KeyError) as error:
        write("error: {}".format(error))
    return True


def _load(state: "_ReplState", path: str, write) -> None:
    from ..frontend import SourceReader

    with open(path) as handle:
        source = handle.read()
    project = SourceReader.read(source, project_name=path)
    workspace = Workspace.corpus_project(project)
    previous_n = state.session.n
    state.session = CompletionSession(workspace, n=previous_n)
    write("loaded {}: {} types, {} method bodies".format(
        path, len(project.ts.all_types()), len(project.impls)))


def _enter(state: "_ReplState", method_name: str, write) -> None:
    workspace = state.session.workspace
    matches = [
        impl
        for impl in workspace.impls()
        if impl.method.name == method_name
        or impl.method.full_name == method_name
    ]
    if not matches:
        write("no method body named {!r}".format(method_name))
        return
    impl = matches[0]
    context = impl.context(workspace.ts)
    state.session = CompletionSession(
        workspace,
        locals=dict(context.locals),
        this_type=context.this_type,
        n=state.session.n,
        abstypes=workspace.oracle_for(impl),
    )
    write("entered {}; locals: {}".format(
        impl.method.full_name,
        ", ".join(sorted(context.locals)) or "(none)",
    ))


def _lint(session: CompletionSession, query, write) -> None:
    if query is None:
        diagnostics = session.workspace.lint()
    else:
        diagnostics = session.analyze(query).diagnostics
    for diagnostic in diagnostics:
        write(diagnostic.render())
    if not diagnostics:
        write("(no findings)")


def _cache(session: CompletionSession, action, write) -> None:
    workspace = session.workspace
    if action == "clear":
        if workspace.engine.cache is not None:
            workspace.engine.cache.clear()
        write("cache cleared")
        return
    if action in ("on", "off"):
        workspace.cache_enabled = action == "on"
        write("cache {}".format(action))
        return
    if action is not None:
        write("usage: :cache [clear|on|off]")
        return
    stats = workspace.cache_stats()
    if stats is None or not workspace.engine.config.enable_cache:
        write("cache off")
        return
    write("cross-query cache: {:.0f} streams, {:.0f} root pools".format(
        stats["streams"], stats["root_pools"]))
    write("  hits {} / misses {}  (hit rate {:.1%})".format(
        int(stats["hits"]), int(stats["misses"]), stats["hit_rate"]))
    write("  invalidations {} ({} coarse, {} fine)  evictions {}".format(
        int(stats["invalidations"]), int(stats["invalidations_coarse"]),
        int(stats["invalidations_fine"]), int(stats["evictions"])))
    if stats["invalidations_fine"]:
        write("  fine invalidation: {} entries preserved, {} dropped".format(
            int(stats["entries_preserved"]), int(stats["entries_dropped"])))


def _impact(session: CompletionSession, names, write) -> None:
    from .. import api

    for line in api.impact(session.workspace, *names).render():
        write(line)


def _fuzz(session: CompletionSession, args, write) -> None:
    from .. import api
    from ..fuzz.harness import render_report

    iterations = int(args[0]) if len(args) >= 1 else 10
    seed = int(args[1]) if len(args) >= 2 else 0
    universe = {name: key for key, (name, _builder)
                in Workspace.BUILTIN.items()}.get(session.workspace.name)
    if universe is None:
        write("(universe {!r} is not a builtin; fuzzing the builtin "
              "universes instead)".format(session.workspace.name))
    report = api.fuzz(seed=seed, iterations=iterations, log=write,
                      universes=[universe] if universe else None)
    for line in render_report(report):
        write(line)


def _explain(session: CompletionSession, rank: int, write) -> None:
    explained = session.explain(rank=rank)
    if not explained:
        record = session.last()
        if record is None or not record.suggestions:
            write("nothing to explain; run a query first")
        else:
            write("no suggestion at rank {}".format(rank))
        return
    completion = explained[0]
    breakdown = completion.breakdown
    write("{}  (total score {}{})".format(
        completion.text, breakdown.total,
        ", cache replay" if breakdown.cached else ""))
    for feature, value in breakdown.rows():
        write("  {:<16s} {:>3d}".format(feature, value))


def _trace(session: CompletionSession, action, write) -> None:
    if action in ("on", "off"):
        session.trace = action == "on"
        write("trace {}".format(action))
        return
    if action not in (None, "show"):
        write("usage: :trace [on|off|show]")
        return
    if action is None:
        write("trace {}".format("on" if session.trace else "off"))
        return
    record = session.last()
    if record is None or record.trace is None:
        write("no trace recorded; :trace on, then run a query")
        return
    by_id = {span["span"]: span for span in record.trace}

    def depth(span) -> int:
        count = 0
        parent = span["parent"]
        while parent is not None:
            count += 1
            parent = by_id[parent]["parent"]
        return count

    for span in record.trace:
        duration = span["duration_ms"]
        counters = ", ".join(
            "{}={:g}".format(key, value)
            for key, value in span["counters"].items())
        write("{}{} {}{}".format(
            "  " * depth(span), span["name"],
            "{:.2f} ms".format(duration) if duration is not None else "open",
            "  [{}]".format(counters) if counters else ""))


def _profile(session: CompletionSession, action, write) -> None:
    if action not in (None, "flame"):
        write("usage: :profile [flame]")
        return
    from ..obs.profile import profile_traces

    profile = profile_traces(record.trace for record in session.history)
    if profile.traces == 0:
        write("no traced queries; :trace on, then run queries")
        return
    if action == "flame":
        for line in profile.to_collapsed():
            write(line)
        return
    for line in profile.render():
        write(line)


def _stats(session: CompletionSession, write) -> None:
    from ..obs.expo import render_metrics_table

    for line in render_metrics_table(session.workspace.metrics()):
        write(line)


def _query(session: CompletionSession, line: str, write) -> None:
    record = session.complete(line)
    for text in render_record(record):
        write(text)
    if record.cached:
        write("(replayed from the cross-query cache)")


def main(workspace: Workspace, write=print) -> None:  # pragma: no cover
    """Run the REPL on standard input until EOF or ``:quit``.  The
    ``pe> `` prompt is shown only when stdin is a terminal, so a scripted
    session's output holds whole result lines."""
    prompt = "pe> " if sys.stdin.isatty() else ""

    def stdin_lines():
        while True:
            try:
                yield input(prompt)
            except EOFError:
                return

    run_repl(workspace, stdin_lines(), write)
