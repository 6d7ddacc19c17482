"""Shared fixtures: hand-built universes and a tiny synthetic project."""

from __future__ import annotations

import pytest

from repro import Context, CompletionEngine, TypeSystem
from repro.corpus import SynthesisSpec, synthesize_project
from repro.corpus.frameworks import (
    build_geometry,
    build_paintdotnet,
    build_system_core,
)


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json from the current engine output "
             "instead of asserting against it",
    )


@pytest.fixture
def update_golden(request):
    return request.config.getoption("--update-golden")


@pytest.fixture(autouse=True)
def _stream_sanitizer():
    """Run every test with the stream-invariant sanitizer enabled.

    Any combinator emitting a score below a previous one raises
    ``StreamInvariantViolation`` instead of silently mis-ordering results,
    so ordering bugs fail loudly anywhere in the suite.
    """
    from repro.engine.streams import sanitize_streams

    with sanitize_streams():
        yield


@pytest.fixture(scope="session")
def paint():
    """The Paint.NET universe of Sec. 2 / Figure 2."""
    ts = TypeSystem()
    return build_paintdotnet(ts)


@pytest.fixture(scope="session")
def paint_engine(paint):
    return CompletionEngine(paint.ts)


@pytest.fixture
def paint_context(paint):
    return Context(
        paint.ts, locals={"img": paint.document, "size": paint.size}
    )


@pytest.fixture(scope="session")
def geometry():
    """The DynamicGeometry universe of Figures 3 and 4."""
    ts = TypeSystem()
    return build_geometry(ts)


@pytest.fixture(scope="session")
def geometry_engine(geometry):
    return CompletionEngine(geometry.ts)


@pytest.fixture
def geometry_context(geometry):
    return Context(
        geometry.ts,
        locals={"point": geometry.point, "shapeStyle": geometry.shape_style},
        this_type=geometry.ellipse_arc,
    )


@pytest.fixture(scope="session")
def core_ts():
    """A plain mini-BCL universe."""
    ts = TypeSystem()
    build_system_core(ts)
    return ts


TINY_SPEC = SynthesisSpec(
    name="Tiny",
    seed=99,
    namespace_root="Tiny",
    nouns=["Widget", "Gadget", "Gizmo"],
    num_namespaces=3,
    num_enums=1,
    num_interfaces=1,
    num_classes=8,
    num_helper_classes=2,
    num_client_classes=3,
)


def scaling_spec(size: int) -> SynthesisSpec:
    """The pinned synthetic ``scaling/<size>`` universe: ``size``
    classes, one client class, a fixed seed."""
    return SynthesisSpec(
        name="scale{}".format(size),
        seed=4242,
        namespace_root="Scale",
        nouns=["Alpha", "Beta", "Gamma", "Delta"],
        num_classes=size,
        num_helper_classes=max(2, size // 5),
        num_client_classes=1,
    )


@pytest.fixture(scope="session")
def tiny_project():
    """A small deterministic synthetic project for end-to-end tests."""
    return synthesize_project(TINY_SPEC)


@pytest.fixture(scope="session")
def tiny_eval(tiny_project):
    """One ``run_all`` over the tiny project, recorded in a run log."""
    from repro.eval import EvalConfig, run_all
    from repro.obs import RunLog

    cfg = EvalConfig(
        limit=25,
        max_calls_per_project=8,
        max_arguments_per_project=10,
        max_assignments_per_project=5,
        max_comparisons_per_project=4,
    )
    run_log = RunLog("tiny")
    return run_all([tiny_project], cfg, run_log), run_log


@pytest.fixture(scope="session")
def cli_eval(tmp_path_factory):
    """One capped ``repro eval`` CLI run over the seven corpus projects,
    shared by every test of the command's wiring: it writes the report,
    the run log and the saved results, and compares against a baseline
    of the same four families.  Every ``EvalConfig`` it builds — the
    families' and each section's — is cut to tiny per-project caps."""
    from types import SimpleNamespace

    import repro.eval.experiments as exp
    from repro.__main__ import main as cli_main
    from repro.corpus import build_all_projects
    from repro.eval.runner import ResultBundle

    real_init = exp.EvalConfig.__init__

    def tiny_init(self, **kwargs):
        kwargs["max_calls_per_project"] = 3
        kwargs["max_arguments_per_project"] = 1
        kwargs["max_assignments_per_project"] = 2
        kwargs["max_comparisons_per_project"] = 2
        kwargs.setdefault("limit", 20)
        real_init(self, **kwargs)

    root = tmp_path_factory.mktemp("cli-eval")
    run = SimpleNamespace(report=root / "r.md", log=root / "r.ndjson",
                          saved=root / "b.json", baseline=root / "base.json",
                          output=[])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exp.EvalConfig, "__init__", tiny_init)
        projects = build_all_projects()
        cfg = exp.EvalConfig.capped()
        runs = exp.project_runs(projects, cfg)
        ResultBundle(
            methods=exp.run_method_prediction(projects, cfg, runs),
            arguments=exp.run_argument_prediction(projects, cfg, runs),
            assignments=exp.run_assignment_prediction(projects, cfg, runs),
            comparisons=exp.run_comparison_prediction(projects, cfg, runs),
        ).save(str(run.baseline))
        run.code = cli_main(
            ["eval", "-o", str(run.report), "--run-log", str(run.log),
             "--seed", "3", "--save", str(run.saved),
             "--compare", str(run.baseline)],
            write=run.output.append,
        )
    run.text = run.report.read_text()
    return run
