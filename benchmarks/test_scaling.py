"""Scaling: query latency and index build time vs. universe size.

The paper's speed claims rest on the method index keeping candidate sets
"orders of magnitude smaller than the set of all methods"; this bench
measures how per-query latency grows as the universe does.
"""

import time

from conftest import emit

from repro import CompletionEngine, MethodIndex, parse
from repro.corpus import synthesize_project
from tests.conftest import scaling_spec

SIZES = [10, 30, 90]


def test_scaling(benchmark):
    def run():
        rows = []
        for size in SIZES:
            project = synthesize_project(scaling_spec(size))
            ts = project.ts
            methods = sum(1 for _ in ts.all_methods())

            started = time.perf_counter()
            index = MethodIndex(ts)
            index_seconds = time.perf_counter() - started

            impl = project.impls[0]
            context = impl.context(ts)
            engine = CompletionEngine(ts, index=index)
            locals_list = list(context.locals.items())[:2]
            query = "?({{{}}})".format(
                ", ".join(name for name, _ in locals_list)
            )
            pe = parse(query, context)
            started = time.perf_counter()
            repetitions = 20
            for _ in range(repetitions):
                engine.complete(pe, context, n=10)
            per_query_ms = 1000 * (time.perf_counter() - started) / repetitions
            rows.append((size, methods, index_seconds * 1000, per_query_ms))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["{:>8s}{:>10s}{:>14s}{:>16s}".format(
        "classes", "methods", "index (ms)", "query (ms)")]
    for size, methods, index_ms, query_ms in rows:
        lines.append("{:>8d}{:>10d}{:>14.1f}{:>16.2f}".format(
            size, methods, index_ms, query_ms))
    emit("scaling", "\n".join(lines))

    # latency must grow far slower than the universe (the index's job):
    # 9x the classes may not cost 9x the query time
    small, large = rows[0], rows[-1]
    assert large[3] < small[3] * (large[1] / small[1])
