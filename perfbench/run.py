"""The repository benchmark: one command for every workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload corpus-cold --seed 1 --seconds 24 --trace 0

It builds its inputs from ``--seed``, measures for about ``--seconds``
seconds, checks every answer, prints each metric by name with its unit
and sample count, and ends with one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: BENCHMARK.json's ``end_to_end`` names, in order
END_TO_END = [
    "setup_s", "query_p50_ms", "query_p90_ms", "queries_per_s", "ok_frac",
    "truth_top10_frac", "post_edit_query_p50_ms", "peak_rss_mb",
]

WORKLOADS = ("corpus-cold", "corpus-edit-warm")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("error: no repro sources at {}; run from the root of a "
              "checkout".format(SRC), file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.workload == "corpus-cold":
        import corpus_cold as workload
    else:
        import edit_warm as workload
    result = workload.run(args.seed, args.seconds, bool(args.trace))

    if args.trace:
        from layers import PER_LAYER, fill_missing

        fill_missing(result)
        names = [name for name, _unit in PER_LAYER]
    else:
        names = END_TO_END
    print("workload {} seed {} trace {}".format(
        args.workload, args.seed, args.trace))
    for line in result.render():
        print(line)
    sys.stdout.flush()
    print(result.line(names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
