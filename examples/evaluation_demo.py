"""The paper's whole evaluation (Sec. 5) as a library call.

Run:  python examples/evaluation_demo.py          (capped; about 10 s)
      python examples/evaluation_demo.py --full   (everything; several min)

Builds the seven corpus projects, runs the four query families once with
``run_all`` and prints the markdown report: run manifest, corpus census,
Table 1, Figures 9-16, query latency and phase timings.  This is what
``python -m repro eval`` does.
"""

import sys

from repro.corpus import build_all_projects
from repro.eval import EvalConfig, render_report, run_all
from repro.obs import RunLog


def main(full: bool = False) -> None:
    run_log = RunLog("eval-full" if full else "eval")
    projects = build_all_projects(run_log=run_log)
    cfg = EvalConfig() if full else EvalConfig.capped()
    bundle = run_all(projects, cfg, run_log)
    print(render_report(bundle, projects, run_log))


if __name__ == "__main__":
    main(full="--full" in sys.argv)
