"""Command-line entry point.

Each subcommand parses its flags, calls one library operation (the scope
builder :func:`repro.ide.session.open_session`, the :mod:`repro.api`
facade, :func:`repro.serve.server.run_server`, ...), renders the result
and picks an exit code; argparse dispatches through ``set_defaults``.

    python -m repro repl --universe paint
    python -m repro complete --universe paint \
        --let img=PaintDotNet.Document --let size=System.Drawing.Size \
        "?({img, size})"
    python -m repro complete --universe paint --trace trace.ndjson --explain "?"
    python -m repro lint --universe paint --json
    python -m repro stats --universe paint
    python -m repro stats --validate-trace trace.ndjson
    python -m repro stats --validate-runlog runlog.ndjson
    python -m repro eval -o EVAL_REPORT.md --run-log runlog.ndjson [--full]
    python -m repro eval --save baseline.json
    python -m repro eval --compare baseline.json
    python -m repro fuzz --seed 7 --iterations 50 --chaos
    python -m repro fuzz --replay FUZZ_REPRO_seed7_iter3.json
    python -m repro serve --universes paint,bcl --port 8137 \
        --slo p95_ms=50:error_rate=0.01 --fault-plan chaos.json
    python -m repro loadtest --universe paint --n-workers 4 --duration 5
    python -m repro stats --url http://127.0.0.1:8137 --validate
    python -m repro stats --url http://127.0.0.1:8137 --watch 2
    python -m repro slo serve-logs/serve_bcl.ndjson --slo p95_ms=50
    python -m repro profile --universe paint --flame flame.txt
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from .errors import TRUNCATION_EXIT, PackError, exit_code_for
from .ide.session import open_session, render_record
from .ide.workspace import Workspace

#: exit codes (documented in docs/RESILIENCE.md and docs/ANALYSIS.md):
#: 0 success, 1 parse error / error-severity lint findings, 2 usage error
#: (bad flag values, unknown types or universes), 3 deadline truncation,
#: 4 step-budget/cancellation truncation.  The values come from the
#: canonical error table in :mod:`repro.errors` — the same table the
#: serving protocol maps onto HTTP statuses, so both surfaces agree.
EXIT_OK = 0
EXIT_PARSE_ERROR = exit_code_for("parse_error")
EXIT_LINT_ERRORS = exit_code_for("parse_error")
EXIT_USAGE = exit_code_for("bad_request")


def _open_universe(key: str, write):
    """Resolve ``--universe``: the workspace, or ``None`` after printing
    the one-line unknown-universe usage error."""
    try:
        return Workspace.builtin(key)
    except ValueError as error:
        write("error: {}".format(error))
        return None


def _write_file(path: str, text: str, write, note: str = "wrote {}") -> int:
    """Write ``text`` to ``path`` and print ``note``; returns exit 0, or
    2 after printing the error when the file cannot be written."""
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as error:
        write("error: {}".format(error))
        return EXIT_USAGE
    write(note.format(path))
    return EXIT_OK


def _scope(args: argparse.Namespace) -> dict:
    """The query scope named by ``--let``/``--this``/``--expect``/
    ``--keyword``, as :func:`~repro.ide.session.open_session` keywords."""
    locals = {}
    for binding in args.let:
        name, equals, type_name = binding.partition("=")
        if not equals:
            raise ValueError(
                "bad --let {!r}; expected NAME=TYPE".format(binding))
        locals[name.strip()] = type_name.strip()
    return {"locals": locals, "this": args.this, "expected": args.expect,
            "keyword": args.keyword}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Type-directed completion of partial expressions "
                    "(PLDI 2012 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, run, **kwargs) -> argparse.ArgumentParser:
        command = sub.add_parser(name, **kwargs)
        command.set_defaults(run=run)
        return command

    repl = add("repl", _run_repl, help="interactive query loop")
    repl.add_argument("--universe", default="paint")

    complete = add("complete", _run_complete,
                   help="run one or more queries and exit")
    complete.add_argument("queries", nargs="+", metavar="query",
                          help="partial expression(s); several queries "
                               "run as one batch against shared warm "
                               "indexes and the cross-query cache")
    complete.add_argument("--universe", default="paint")
    complete.add_argument("--let", action="append", default=[],
                          metavar="NAME=TYPE",
                          help="declare a local (repeatable)")
    complete.add_argument("--this", default=None, metavar="TYPE")
    complete.add_argument("--expect", default=None, metavar="TYPE",
                          help="filter results by type ('void' allowed)")
    complete.add_argument("--keyword", default=None,
                          help="filter unknown-call methods by name")
    complete.add_argument("-n", type=int, default=10)
    complete.add_argument("--timeout-ms", type=float, default=None,
                          metavar="MS",
                          help="wall-clock deadline; best-so-far results "
                               "are printed and exit code 3 signals the "
                               "truncation")
    complete.add_argument("--budget", type=int, default=None, metavar="STEPS",
                          help="expansion-step budget; best-so-far results "
                               "are printed and exit code 4 signals the "
                               "truncation")
    complete.add_argument("--trace", nargs="?", const="-", default=None,
                          metavar="PATH",
                          help="trace each query and write the NDJSON "
                               "span records to PATH ('-' or no value: "
                               "print them); see docs/OBSERVABILITY.md")
    complete.add_argument("--explain", action="store_true",
                          help="show each suggestion's ranking-term "
                               "breakdown (the terms sum to its score)")

    lint = add(
        "lint", _run_lint,
        help="static diagnostics for a universe and (optionally) a query",
        description="Run the RA0xx diagnostic passes (docs/ANALYSIS.md): "
                    "code-model validation of the universe, optional "
                    "stream-sanitizer probes, and pre-flight analysis of "
                    "a partial-expression query.  Exit 0 when clean, 1 "
                    "when error-severity findings exist, 2 on usage "
                    "errors.",
    )
    lint.add_argument("--universe", default="paint")
    lint.add_argument("--source", default=None, metavar="FILE.cs",
                      help="lint a universe loaded from a C#-subset "
                           "source file instead of a builtin")
    lint.add_argument("--query", default=None, metavar="PE",
                      help="also pre-flight this partial expression "
                           "(satisfiability, dead ranking terms)")
    lint.add_argument("--let", action="append", default=[],
                      metavar="NAME=TYPE",
                      help="declare a query-scope local (repeatable)")
    lint.add_argument("--this", default=None, metavar="TYPE")
    lint.add_argument("--expect", default=None, metavar="TYPE",
                      help="expected result type for --query "
                           "('void' allowed)")
    lint.add_argument("--keyword", default=None,
                      help="unknown-call name filter for --query")
    lint.add_argument("--sanitize", action="store_true",
                      help="also run the stream-invariant probe queries")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable output")

    impact = add(
        "impact", _run_impact,
        help="what would editing a type invalidate?",
        description="Query the whole-universe dependency graph "
                    "(docs/ANALYSIS.md): given one or more types, report "
                    "the reverse-dependency closure an edit can touch — "
                    "affected types, global root pools, indexed methods, "
                    "and (after a battery warm-up) how much of the "
                    "completion cache would be invalidated.  Exit 0 on "
                    "success, 2 on usage errors.",
    )
    impact.add_argument("--universe", default="paint")
    impact.add_argument("--type", action="append", default=[],
                        dest="types", metavar="NAME", required=True,
                        help="type to analyze (repeatable; full name, "
                             "unique simple name, or primitive keyword)")
    impact.add_argument("--warm", action="store_true",
                        help="run the universe's pinned query battery "
                             "first so the report includes live "
                             "cache-entry counts")
    impact.add_argument("--json", action="store_true",
                        help="machine-readable output")

    census = add("census", _run_census,
                 help="print the corpus census for the seven projects")
    census.add_argument("--scale", type=float, default=1.0)

    dump = add("dump-universe", _run_dump_universe,
               help="export a bundled universe as JSON")
    dump.add_argument("--universe", default="paint")
    dump.add_argument("-o", "--output", required=True, metavar="PATH")

    fuzz = add(
        "fuzz", _run_fuzz,
        help="rank-stability fuzzing with differential oracles",
        description="Apply seeded semantic-preserving universe "
                    "transformations and differentially check that the "
                    "ranked completion sets are invariant — including "
                    "under step-budget truncation (prefix consistency), "
                    "injected faults (--chaos: degraded, never silently "
                    "wrong) and in-place mutations against a warm cache. "
                    "A failing iteration is shrunk to a minimal "
                    "transform sequence + query and written as a "
                    "replayable repro file.  Exit 0 when all iterations "
                    "pass, 1 on a counterexample, 2 on usage errors.  "
                    "See docs/FUZZING.md.",
    )
    fuzz.add_argument("--seed", type=int, default=0,
                      help="root seed; everything the run does is a "
                           "deterministic function of it (default 0)")
    fuzz.add_argument("--iterations", type=int, default=50,
                      help="iterations to run (default 50)")
    fuzz.add_argument("--chaos", action="store_true",
                      help="also schedule fault-injection iterations "
                           "across all query-path sites")
    fuzz.add_argument("--transforms", default=None, metavar="FAM[,FAM...]",
                      help="restrict to these transformation families "
                           "(default: all; see docs/FUZZING.md)")
    fuzz.add_argument("--replay", default=None, metavar="REPRO.json",
                      help="re-run a saved counterexample instead of "
                           "fuzzing; exit 1 if it still reproduces, 0 "
                           "if it passes")
    fuzz.add_argument("--universe", default=None,
                      help="restrict to one builtin universe (default: "
                           "rotate through all)")
    fuzz.add_argument("--out", default=".", metavar="DIR",
                      help="directory for minimized repro files "
                           "(default: current directory)")
    fuzz.add_argument("--run-log", default=None, metavar="PATH",
                      help="write the structured NDJSON run log (seed "
                           "in the manifest, one event per iteration)")

    serve = add(
        "serve", _run_serve,
        help="run the completion server (multi-tenant HTTP/JSON)",
        description="Serve named workspaces over the v1 HTTP/JSON "
                    "protocol (docs/SERVING.md): POST /v1/complete, "
                    "/v1/complete_many, /v1/explain; GET /v1/stats, "
                    "/v1/healthz.  One warm engine per workspace with "
                    "session affinity; per-request deadlines map onto "
                    "the QueryBudget machinery and overloaded tenants "
                    "shed with structured 429/504 errors.  Runs until "
                    "interrupted; Ctrl-C drains in-flight requests.",
    )
    serve.add_argument("--universes", default="paint,geometry,bcl",
                       metavar="KEY[,KEY...]",
                       help="builtin universes to serve as workspaces "
                            "(default: paint,geometry,bcl)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8137,
                       help="listen port (default 8137; 0 = ephemeral)")
    serve.add_argument("--default-deadline-ms", type=float, default=None,
                       metavar="MS",
                       help="deadline applied to requests that carry "
                            "none (default: unlimited)")
    serve.add_argument("--run-log-dir", default=None, metavar="DIR",
                       help="stream each tenant's NDJSON run log to "
                            "DIR/serve_<workspace>.ndjson")
    serve.add_argument("--pack", action="append", default=None,
                       metavar="PATH", dest="packs",
                       help="mount a tenant from a pack artifact "
                            "(repeatable); verified and restored without "
                            "an index rebuild, served under its recorded "
                            "universe name")
    serve.add_argument("--slo", default=None, metavar="SPEC",
                       help="track service-level objectives live "
                            "(':'-separated, e.g. "
                            "p95_ms=50:error_rate=0.01:shed_rate=0.2); "
                            "verdicts and burn rates appear in "
                            "/v1/healthz and /v1/metrics")
    serve.add_argument("--fault-plan", default=None, metavar="JSON",
                       help="mount chaos-through-serve from a JSON chaos "
                            "spec (a path or an inline object with seed/"
                            "rate/sites); every admitted request draws a "
                            "deterministic seeded fault plan")

    pack = add(
        "pack", _run_pack,
        help="build / inspect / verify persistent universe packs",
        description="Persistent universe packs (docs/ARTIFACTS.md): "
                    "versioned on-disk artifacts snapshotting a universe "
                    "plus its derived engine state (method-index "
                    "buckets, reachability walks, the dependency graph "
                    "with closures and abstract-type partitions) so a "
                    "cold process answers its first query in "
                    "milliseconds.  Artifacts are checksum- and "
                    "fingerprint-verified on load; a damaged pack fails "
                    "with the stable code pack_corrupt, a mismatched one "
                    "with pack_stale.",
    )
    packsub = pack.add_subparsers(dest="pack_command", required=True)
    pack_build = packsub.add_parser(
        "build", help="snapshot a universe source into a pack file")
    pack_build.add_argument(
        "source",
        help="builtin universe key (paint, geometry, bcl) or a "
             "repro-universe / repro-project artifact path")
    pack_build.add_argument("-o", "--output", default=None, metavar="PATH",
                            help="output path (default: <name>.pack)")
    pack_inspect = packsub.add_parser(
        "inspect", help="print a pack's header without decoding the body")
    pack_inspect.add_argument("path")
    pack_inspect.add_argument("--json", action="store_true",
                              help="emit the raw header JSON")
    pack_verify = packsub.add_parser(
        "verify", help="full integrity check: checksum, universe decode, "
                       "fingerprint agreement")
    pack_verify.add_argument("path")
    pack_verify.add_argument("--expect-fingerprint", default=None,
                             metavar="HEX",
                             help="additionally require this universe "
                                  "fingerprint")
    pack_load = packsub.add_parser(
        "load", help="cold-load a pack into a workspace and report the "
                     "wall-clock cost")
    pack_load.add_argument("path")

    loadtest = add(
        "loadtest", _run_loadtest,
        help="multi-worker load generator against a completion server",
        description="Replay a universe's golden battery from N worker "
                    "threads for a fixed duration and write a "
                    "schema-versioned BENCH_serve_<label>.json (p50/p95 "
                    "latency, throughput, shed rate, the slowest request "
                    "ids).  With no --url an in-process server is spawned "
                    "on an ephemeral port.  Shed requests (tiny deadlines, "
                    "overload) are counted, not fatal.  Exit 0 on a "
                    "completed run, 1 when every request errored, 2 on "
                    "bad input.  See docs/SERVING.md.",
    )
    loadtest.add_argument("--url", default=None,
                          help="server base URL (default: spawn an "
                               "in-process server)")
    loadtest.add_argument("--universe", default="paint")
    loadtest.add_argument("--n-workers", type=int, default=4)
    loadtest.add_argument("--duration", type=float, default=5.0,
                          metavar="SECONDS")
    loadtest.add_argument("--deadline-ms", type=float, default=None,
                          metavar="MS",
                          help="per-request deadline; queue overflow "
                               "sheds with structured 429/504 errors")
    loadtest.add_argument("--label", default="local")
    loadtest.add_argument("-n", type=int, default=10,
                          help="suggestions per query (default 10)")
    loadtest.add_argument("-o", "--output", default=None, metavar="PATH",
                          help="write the document here (default "
                               "BENCH_serve_<label>.json)")
    loadtest.add_argument("--run-log-dir", default=None, metavar="DIR",
                          help="with a spawned server, stream its "
                               "per-tenant run logs to DIR")
    loadtest.add_argument("--fault-plan", default=None, metavar="JSON",
                          help="with a spawned server, mount "
                               "chaos-through-serve from a JSON chaos "
                               "spec (path or inline); incompatible "
                               "with --url")

    stats = add(
        "stats", _run_stats,
        help="run the pinned query battery and print engine metrics",
        description="Run the universe's pinned query battery against a "
                    "fresh engine and print the observability registry "
                    "(counters + histograms) as JSON.  With --url, "
                    "instead scrape a live server's GET /v1/metrics "
                    "(--validate checks the exposition structurally, "
                    "--watch polls and prints a table).  With "
                    "--validate-trace, instead validate an NDJSON trace "
                    "file against the checked-in schema: exit 0 when "
                    "every record conforms, 1 otherwise.  See "
                    "docs/OBSERVABILITY.md.",
    )
    stats.add_argument("--universe", default="paint")
    stats.add_argument("-n", type=int, default=10)
    stats.add_argument("--validate-trace", default=None, metavar="FILE",
                       help="validate an NDJSON trace file against the "
                            "schema and exit (no battery run)")
    stats.add_argument("--validate-runlog", default=None, metavar="FILE",
                       help="validate an NDJSON run-log file against the "
                            "schema and exit (no battery run)")
    stats.add_argument("--url", default=None,
                       help="scrape a live server's /v1/metrics instead "
                            "of running the battery")
    stats.add_argument("--validate", action="store_true",
                       help="with --url, structurally validate the "
                            "scraped exposition (TYPE lines, cumulative "
                            "buckets, +Inf == _count); exit 1 on any "
                            "problem")
    stats.add_argument("--watch", type=float, default=None, metavar="S",
                       help="poll every S seconds and print a metrics "
                            "table each tick (with --url: scrape; "
                            "without: re-run the battery on one warm "
                            "workspace)")
    stats.add_argument("--watch-count", type=int, default=None, metavar="N",
                       help="stop after N --watch ticks (default: until "
                            "interrupted)")

    slo = add(
        "slo", _run_slo,
        help="offline SLO burn-rate report over a server run log",
        description="Replay the server_request records of a serve run "
                    "log through the multi-window SLO burn-rate math "
                    "(the same the live server's /v1/healthz uses) and "
                    "print the per-window error/shed/latency burn and "
                    "verdicts.  Exit 0 when every objective holds, 1 on "
                    "a breach, 2 on bad input.  See "
                    "docs/OBSERVABILITY.md.",
    )
    slo.add_argument("runlog", metavar="RUNLOG",
                     help="NDJSON run log written by repro serve "
                          "--run-log-dir (or repro loadtest)")
    slo.add_argument("--slo", default=None, metavar="SPEC",
                     help="objective spec, e.g. "
                          "p95_ms=50:error_rate=0.01:shed_rate=0.2 "
                          "(default: p95_ms=50:error_rate=0.01:"
                          "shed_rate=0.20)")
    slo.add_argument("--windows", default=None, metavar="S[,S...]",
                     help="rolling window lengths in seconds (default "
                          "60,300 plus a whole-log window; 'inf' is "
                          "accepted)")
    slo.add_argument("--json", action="store_true",
                     help="emit the raw report JSON")
    slo.add_argument("-o", "--output", default=None, metavar="PATH",
                     help="also write the report JSON here")

    profile = add(
        "profile", _run_profile,
        help="deterministic self-time profile with flamegraph export",
        description="Trace the universe's pinned query battery and print "
                    "the per-span self-time profile (inclusive/self time "
                    "and counters per call path).  --flame writes "
                    "collapsed-stack text for any flamegraph renderer.  "
                    "See docs/OBSERVABILITY.md.",
    )
    profile.add_argument("--universe", default="paint")
    profile.add_argument("-n", type=int, default=10)
    profile.add_argument("--flame", default=None, metavar="PATH",
                         help="write collapsed-stack flamegraph text "
                              "('stack;path self-μs' per line)")
    profile.add_argument("--limit", type=int, default=25,
                         help="rows to print (default 25)")

    evaluate = add(
        "eval", _run_eval,
        help="run the paper's evaluation and render its report",
        description="Run the four query families of Sec. 5 once and "
                    "render one markdown document: the run manifest (git "
                    "SHA, config signature, universe versions), the "
                    "corpus census, Table 1 and Figures 9-16, query "
                    "latency, and the phase/query timing rollup from the "
                    "run log.  The checked-in EVAL_REPORT.md is generated "
                    "this way.",
    )
    evaluate.add_argument("--full", action="store_true",
                          help="no per-project caps (several minutes)")
    evaluate.add_argument("-o", "--output", default=None, metavar="PATH",
                          help="write the markdown here (default: print)")
    evaluate.add_argument("--run-log", default=None, metavar="PATH",
                          help="also write the NDJSON run log")
    evaluate.add_argument("--seed", type=int, default=None,
                          help="seed recorded in the run-log manifest")
    evaluate.add_argument("--save", default=None, metavar="PATH",
                          help="also save the raw results as JSON (for "
                               "regression tracking)")
    evaluate.add_argument("--compare", default=None, metavar="BASELINE",
                          help="compare this run against a saved baseline")
    return parser


def _run_repl(args: argparse.Namespace, write) -> int:  # pragma: no cover
    # interactive: reads standard input until EOF or :quit
    from .ide.repl import main as repl_main

    workspace = _open_universe(args.universe, write)
    if workspace is None:
        return EXIT_USAGE
    repl_main(workspace, write)
    return EXIT_OK


def _exit_code(record) -> int:
    """The exit code one query's record calls for."""
    if record.error is not None:
        return EXIT_PARSE_ERROR
    if record.truncated is not None:
        return TRUNCATION_EXIT[record.truncated]
    return EXIT_OK


def _run_complete(args: argparse.Namespace, write) -> int:
    workspace = _open_universe(args.universe, write)
    if workspace is None:
        return EXIT_USAGE
    try:
        session = open_session(
            workspace, n=args.n, timeout_ms=args.timeout_ms,
            max_steps=args.budget, trace=args.trace is not None,
            **_scope(args))
    except ValueError as error:
        write("error: {}".format(error))
        return EXIT_USAGE
    # one or many queries: a single batch, so indexes warm once and the
    # queries share the engine's cross-query cache
    records = session.complete_many(args.queries)
    exit_code = EXIT_OK
    for source, record in zip(args.queries, records):
        if len(records) > 1:
            write("pe> {}".format(source))
        breakdowns = {}
        if args.explain and record.error is None:
            breakdowns = {
                rank: completion.breakdown
                for rank, completion in enumerate(
                    session.explain(source=source), start=1)
            }
        for line in render_record(record, breakdowns):
            write(line)
        exit_code = exit_code or _exit_code(record)
    if args.trace is not None:
        from .obs import trace_to_ndjson

        text = "".join(
            trace_to_ndjson(record.trace, universe=workspace.name,
                            query=source)
            for source, record in zip(args.queries, records)
            if record.trace is not None
        )
        if args.trace != "-":
            return (_write_file(args.trace, text, write, "wrote trace to {}")
                    or exit_code)
        for line in text.splitlines():
            write(line)
    return exit_code


def _run_lint(args: argparse.Namespace, write) -> int:
    import json

    from . import api
    from .analysis.diagnostics import has_errors

    if args.source is not None:
        from .frontend import SourceReader

        try:
            with open(args.source) as handle:
                text = handle.read()
            project = SourceReader.read(text, project_name=args.source)
        except OSError as error:
            write("error: {}".format(error))
            return EXIT_USAGE
        except Exception as error:
            write("error: cannot load {}: {}".format(args.source, error))
            return EXIT_USAGE
        workspace = Workspace.corpus_project(project)
    else:
        workspace = _open_universe(args.universe, write)
        if workspace is None:
            return EXIT_USAGE
    try:
        scope = _scope(args) if args.query is not None else {}
    except ValueError as error:
        write("error: {}".format(error))
        return EXIT_USAGE
    diagnostics = api.lint(workspace, query=args.query,
                           sanitize=args.sanitize, **scope)

    if args.json:
        write(json.dumps({
            "universe": workspace.name,
            "diagnostics": [d.to_dict() for d in diagnostics],
            "summary": {
                severity: sum(
                    1 for d in diagnostics if d.severity.value == severity
                )
                for severity in ("error", "warning", "info")
            },
        }, indent=2, sort_keys=True))
    else:
        for diagnostic in diagnostics:
            write(diagnostic.render())
        if not diagnostics:
            write("(no findings)")
    return EXIT_LINT_ERRORS if has_errors(diagnostics) else EXIT_OK


def _run_impact(args: argparse.Namespace, write) -> int:
    import json

    from . import api

    workspace = _open_universe(args.universe, write)
    if workspace is None:
        return EXIT_USAGE
    try:
        if args.warm:
            from .eval.battery import battery_for

            battery = battery_for(args.universe)
            battery.session(workspace).complete_many(battery.queries)
        report = api.impact(workspace, *args.types)
    except ValueError as error:
        write("error: {}".format(error))
        return EXIT_USAGE
    if args.json:
        write(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for line in report.render():
            write(line)
    return EXIT_OK


def _poll(args: argparse.Namespace, tick) -> int:
    """Run ``tick(ticks)`` once, or every ``--watch`` seconds until
    ``--watch-count`` ticks or a nonzero exit code."""
    import time

    ticks = 0
    while True:
        ticks += 1
        code = tick(ticks)
        if (code or args.watch is None
                or (args.watch_count is not None
                    and ticks >= args.watch_count)):
            return code
        time.sleep(max(args.watch, 0.0))


def _stats_scrape(args: argparse.Namespace, write) -> int:
    """``repro stats --url``: scrape /v1/metrics, validate or tabulate."""
    from .obs.expo import (
        parse_exposition,
        table_from_samples,
        validate_exposition,
    )
    from .serve import ServeClient

    def tick(_ticks: int) -> int:
        try:
            with ServeClient(args.url) as client:
                status, text = client.metrics()
        except (OSError, ValueError) as error:
            write("error: {}".format(error))
            return EXIT_USAGE
        if status != 200:
            write("error: GET /v1/metrics answered HTTP {}".format(status))
            return 1
        if args.validate:
            problems = validate_exposition(text)
            if problems:
                for problem in problems:
                    write(problem)
                return 1
        try:
            parsed = parse_exposition(text)
        except ValueError as error:
            write("error: {}".format(error))
            return 1
        if args.validate:
            write("{}/v1/metrics: valid exposition ({} samples)".format(
                args.url.rstrip("/"), len(parsed["samples"])))
        if not args.validate or args.watch is not None:
            write("metrics from {} ({} samples)".format(
                args.url, len(parsed["samples"])))
            for line in table_from_samples(parsed):
                write(line)
        return EXIT_OK

    return _poll(args, tick)


def _run_stats(args: argparse.Namespace, write) -> int:
    import json

    from .obs import validate_runlog_text, validate_trace_text

    for path, validate, kind in (
        (args.validate_trace, validate_trace_text, "repro-trace"),
        (args.validate_runlog, validate_runlog_text, "repro-runlog"),
    ):
        if path is None:
            continue
        try:
            with open(path) as handle:
                problems = validate(handle.read())
        except OSError as error:
            write("error: {}".format(error))
            return EXIT_USAGE
        for problem in problems:
            write(problem)
        if problems:
            return 1
        write("{}: valid {} NDJSON".format(path, kind))
        return EXIT_OK

    if args.url is not None:
        return _stats_scrape(args, write)
    if args.validate:
        write("error: --validate needs --url (it checks a scraped "
              "/v1/metrics exposition)")
        return EXIT_USAGE

    from .eval.battery import battery_for

    try:
        battery = battery_for(args.universe)
        session = battery.session(n=args.n)
    except ValueError as error:
        write("error: {}".format(error))
        return EXIT_USAGE
    workspace = session.workspace
    if args.watch is not None:
        from .obs.expo import render_metrics_table

        def tick(ticks: int) -> int:
            session.complete_many(battery.queries)
            for line in render_metrics_table(
                workspace.metrics(),
                title="{} after {} battery run(s)".format(
                    workspace.name, ticks)):
                write(line)
            return EXIT_OK

        return _poll(args, tick)
    session.complete_many(battery.queries)
    document = {
        "universe": workspace.name,
        "queries": battery.queries,
        "metrics": workspace.metrics(),
    }
    cache_stats = workspace.cache_stats()
    if cache_stats is not None:
        document["cache"] = cache_stats
    write(json.dumps(document, indent=2, sort_keys=True))
    return EXIT_OK


def _run_slo(args: argparse.Namespace, write) -> int:
    import json

    from .api import slo_report
    from .obs.slo import render_slo_report

    windows = None
    if args.windows is not None:
        try:
            windows = [float(part) for part in args.windows.split(",")
                       if part.strip()]
        except ValueError:
            write("error: --windows must be comma-separated durations "
                  "in seconds")
            return EXIT_USAGE
        if not windows or any(w <= 0 for w in windows):
            write("error: --windows must name positive durations")
            return EXIT_USAGE
    try:
        report = slo_report(args.runlog, slo=args.slo, windows=windows)
    except (OSError, ValueError) as error:
        write("error: {}".format(error))
        return EXIT_USAGE
    if not report["server_requests"]:
        write("error: {} has no server_request records (is it a serve "
              "run log?)".format(args.runlog))
        return EXIT_USAGE
    if args.json:
        write(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in render_slo_report(report):
            write(line)
    exit_code = EXIT_OK if report["ok"] else 1
    if args.output:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        return _write_file(args.output, text, write) or exit_code
    return exit_code


def _run_fuzz(args: argparse.Namespace, write) -> int:
    from . import api
    from .fuzz.harness import render_report
    from .fuzz.shrink import replay_repro

    if args.replay is not None:
        try:
            failure = replay_repro(args.replay, write=write)
        except (OSError, ValueError) as error:
            write("error: {}".format(error))
            return EXIT_USAGE
        return EXIT_OK if failure is None else 1

    transforms = None
    if args.transforms is not None:
        transforms = [name.strip() for name in args.transforms.split(",")
                      if name.strip()]
        if not transforms:
            write("error: --transforms names no families")
            return EXIT_USAGE
    run_log = None
    if args.run_log:
        from .obs.runlog import RunLog

        run_log = RunLog("fuzz-seed{}".format(args.seed), seed=args.seed)
    try:
        report = api.fuzz(
            seed=args.seed, iterations=args.iterations, chaos=args.chaos,
            transforms=transforms,
            universes=[args.universe] if args.universe is not None else None,
            out_dir=args.out, log=write, run_log=run_log)
    except ValueError as error:
        write("error: {}".format(error))
        return EXIT_USAGE
    for line in render_report(report):
        write(line)
    exit_code = 1 if report.failed else EXIT_OK
    if run_log is not None:
        return _write_file(args.run_log, run_log.to_ndjson(), write,
                           "wrote run log to {}") or exit_code
    return exit_code


def _run_serve(args: argparse.Namespace, write) -> int:  # pragma: no cover
    # foreground loop; the start/stop machinery itself is covered
    # through the in-process fixtures in tests/test_serve.py
    from .serve.server import run_server

    universes = [key.strip() for key in args.universes.split(",")
                 if key.strip()]
    if not universes:
        write("error: --universes names no universes")
        return EXIT_USAGE
    try:
        run_server(
            write, universes=universes, packs=args.packs or (),
            host=args.host, port=args.port,
            default_deadline_ms=args.default_deadline_ms,
            run_log_dir=args.run_log_dir, slo=args.slo,
            fault_plan=args.fault_plan)
    except PackError as error:
        write("error [{}]: {}".format(error.code, error))
        return exit_code_for(error.code)
    except (OSError, ValueError) as error:
        write("error: {}".format(error))
        return EXIT_USAGE
    return EXIT_OK


def _run_pack(args: argparse.Namespace, write) -> int:
    try:
        if args.pack_command == "build":
            from .api import build_pack, open_workspace

            try:
                workspace = open_workspace(args.source)
            except ValueError as error:
                write("error: {}".format(error))
                return EXIT_USAGE
            output = args.output or "{}.pack".format(workspace.name)
            header = build_pack(workspace, output)
            meta = header["meta"]
            write("wrote {}: {} types, {} methods, {} walks, "
                  "fingerprint {}".format(
                      output, meta["types"], meta["methods"], meta["walks"],
                      meta["fingerprint"]))
            return EXIT_OK
        if args.pack_command == "inspect":
            import json as _json

            from .pack import inspect_pack

            header = inspect_pack(args.path)
            if args.json:
                write(_json.dumps(header, indent=2, sort_keys=True))
            else:
                meta = header.get("meta", {})
                write("{} (format {} v{})".format(
                    args.path, header.get("format"), header.get("version")))
                for key in sorted(meta):
                    write("  {}: {}".format(key, meta[key]))
                write("  checksum: {}".format(header.get("checksum")))
            return EXIT_OK
        if args.pack_command == "verify":
            from .pack import verify_pack

            header = verify_pack(
                args.path, expect_fingerprint=args.expect_fingerprint)
            write("ok: {} verifies (fingerprint {})".format(
                args.path, header["meta"]["fingerprint"]))
            return EXIT_OK
        if args.pack_command == "load":
            import time as _time

            from .pack import load_pack

            start = _time.perf_counter()
            workspace = load_pack(args.path)
            elapsed_ms = (_time.perf_counter() - start) * 1000.0
            write("loaded workspace {!r} in {:.1f} ms ({} types)".format(
                workspace.name, elapsed_ms,
                len(workspace.ts.all_types())))
            return EXIT_OK
    except PackError as error:
        write("error [{}]: {}".format(error.code, error))
        return exit_code_for(error.code)
    except OSError as error:
        write("error: {}".format(error))
        return EXIT_USAGE
    return EXIT_USAGE


def _run_loadtest(args: argparse.Namespace, write) -> int:
    from .serve import render_loadgen, run_loadgen
    from .serve.loadgen import save

    if args.n_workers <= 0:
        write("error: --n-workers must be positive")
        return EXIT_USAGE
    try:
        document = run_loadgen(
            url=args.url,
            universe=args.universe,
            n_workers=args.n_workers,
            duration_s=args.duration,
            deadline_ms=args.deadline_ms,
            label=args.label,
            n=args.n,
            run_log_dir=args.run_log_dir,
            log=write,
            fault_plan=args.fault_plan,
        )
    except (OSError, ValueError) as error:
        write("error: {}".format(error))
        return EXIT_USAGE
    for line in render_loadgen(document):
        write(line)
    output = args.output or "BENCH_serve_{}.json".format(args.label)
    try:
        save(output, document)
    except OSError as error:
        write("error: {}".format(error))
        return EXIT_USAGE
    write("wrote {}".format(output))
    serve = document["serve"]
    if serve["requests"] > 0 and serve["ok"] == 0 and serve["shed"] == 0:
        write("error: every request failed; is the server healthy?")
        return 1
    return EXIT_OK


def _run_profile(args: argparse.Namespace, write) -> int:
    from .api import profile as profile_queries
    from .eval.battery import battery_for

    try:
        battery = battery_for(args.universe)
        workspace = Workspace.builtin(args.universe)
        profile = profile_queries(workspace, battery.queries, n=args.n,
                                  **battery.scope)
    except ValueError as error:
        write("error: {}".format(error))
        return EXIT_USAGE
    write("profile of the {!r} battery ({} queries)".format(
        workspace.name, len(battery.queries)))
    for line in profile.render(limit=args.limit):
        write(line)
    if args.flame is not None:
        text = "".join(line + "\n" for line in profile.to_collapsed())
        return _write_file(args.flame, text, write,
                           "wrote flamegraph text to {}")
    return EXIT_OK


def _run_eval(args: argparse.Namespace, write) -> int:
    from .corpus import build_all_projects
    from .eval.experiments import EvalConfig
    from .eval.markdown import render_report
    from .eval.persistence import compare_runs, format_comparison
    from .eval.runner import ResultBundle, run_all
    from .obs.runlog import RunLog

    baseline = None
    if args.compare:
        try:
            baseline = ResultBundle.load(args.compare)
        except (OSError, ValueError) as error:
            write("error: {}".format(error))
            return EXIT_USAGE
    run_log = RunLog("eval-full" if args.full else "eval", seed=args.seed)
    projects = build_all_projects(run_log=run_log)
    cfg = EvalConfig() if args.full else EvalConfig.capped()
    bundle = run_all(projects, cfg, run_log)
    report = render_report(bundle, projects, run_log)
    if not args.output:
        write(report)
    elif _write_file(args.output, report, write):
        return EXIT_USAGE
    try:
        if args.run_log:
            run_log.write(args.run_log)
            write("wrote run log to {}".format(args.run_log))
        if args.save:
            bundle.save(args.save)
            write("saved {}".format(args.save))
    except OSError as error:
        write("error: {}".format(error))
        return EXIT_USAGE
    if baseline is not None:
        write(format_comparison(
            compare_runs(baseline.families(), bundle.families())))
    return EXIT_OK


def _run_census(args: argparse.Namespace, write) -> int:
    from .corpus import build_all_projects, last_build_diagnostics
    from .eval import corpus_census, format_census

    write(format_census(corpus_census(build_all_projects(args.scale))))
    for diagnostic in last_build_diagnostics():
        write("warning: skipped {} ({}): {}".format(
            diagnostic.project, diagnostic.stage, diagnostic.detail))
    return EXIT_OK


def _run_dump_universe(args: argparse.Namespace, write) -> int:
    import json

    from .serialize import dump_type_system

    workspace = _open_universe(args.universe, write)
    if workspace is None:
        return EXIT_USAGE
    return _write_file(args.output,
                       json.dumps(dump_type_system(workspace.ts)), write)


def main(argv: Optional[List[str]] = None, write=print) -> int:
    args = _build_parser().parse_args(argv)
    return args.run(args, write)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
