"""Resilient query execution: budgets, cancellation, degradation, faults.

Covers the contracts in ``docs/RESILIENCE.md``:

* a tripped budget (deadline, steps, cancellation) ends every stream
  after a best-so-far prefix — never an exception, never a hang;
* a failing optional feature (abstract-type oracle, namespace term,
  same-name term, method index, reachability index, target type check)
  degrades the ranking and is recorded per query, never aborting it;
* corpus building skips broken projects/programs with diagnostics;
* the CLI surfaces truncation through distinct exit codes;
* the fault-injection harness itself (Nth-call triggering, raise/delay
  modes, nesting).
"""

import pytest

from repro import (
    BudgetExhausted,
    CancellationToken,
    CompletionEngine,
    Context,
    QueryBudget,
    QueryCancelled,
    QueryTimeout,
    TypeSystem,
    parse,
)
from repro.__main__ import main as cli_main
from repro.engine.algorithm1 import Algorithm1
from repro.engine.budget import (
    TRUNCATED_BUDGET,
    TRUNCATED_CANCELLED,
    TRUNCATED_TIMEOUT,
)
from repro.engine.streams import best_first
from repro.ide import CompletionSession, Workspace
from repro.testing import FaultError, FaultPlan, faults


class FakeClock:
    """A manually-advanced monotonic clock (seconds)."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# QueryBudget / CancellationToken units
# ----------------------------------------------------------------------
class TestQueryBudget:
    def test_unlimited_budget_never_trips(self):
        budget = QueryBudget()
        for _ in range(10_000):
            assert budget.tick()
        assert budget.tripped is None

    def test_step_budget_trips_and_stays_tripped(self):
        budget = QueryBudget(max_steps=3)
        assert budget.tick() and budget.tick() and budget.tick()
        assert not budget.tick()
        assert budget.tripped == TRUNCATED_BUDGET
        assert not budget.tick()  # sticky

    def test_deadline_trips_via_fake_clock(self):
        clock = FakeClock()
        budget = QueryBudget(deadline_ms=100, clock=clock)
        assert budget.tick()
        clock.advance(0.2)  # 200 ms
        assert not all(budget.tick() for _ in range(64))
        assert budget.tripped == TRUNCATED_TIMEOUT

    def test_first_tick_checks_the_clock(self):
        clock = FakeClock()
        budget = QueryBudget(deadline_ms=1, clock=clock)
        clock.advance(1.0)  # expired before any work happened
        assert not budget.tick()
        assert budget.tripped == TRUNCATED_TIMEOUT

    def test_cancellation_token(self):
        token = CancellationToken()
        budget = QueryBudget(token=token)
        assert budget.tick()
        token.cancel()
        assert not budget.tick()
        assert budget.tripped == TRUNCATED_CANCELLED

    def test_ok_rechecks_without_charging(self):
        clock = FakeClock()
        budget = QueryBudget(deadline_ms=100, clock=clock)
        assert budget.ok()
        assert budget.steps == 0
        clock.advance(1.0)
        assert not budget.ok()
        assert budget.tripped == TRUNCATED_TIMEOUT

    def test_raise_if_tripped_maps_to_taxonomy(self):
        budget = QueryBudget(max_steps=0)
        budget.tick()
        with pytest.raises(BudgetExhausted):
            budget.raise_if_tripped()

        clock = FakeClock()
        budget = QueryBudget(deadline_ms=1, clock=clock)
        clock.advance(1.0)
        budget.tick()
        with pytest.raises(QueryTimeout):
            budget.raise_if_tripped()

        token = CancellationToken()
        token.cancel()
        budget = QueryBudget(token=token)
        budget.tick()
        with pytest.raises(QueryCancelled):
            budget.raise_if_tripped()

    def test_untripped_budget_raises_nothing(self):
        budget = QueryBudget(max_steps=10)
        budget.tick()
        budget.raise_if_tripped()


# ----------------------------------------------------------------------
# stream combinators under budget
# ----------------------------------------------------------------------
class TestStreamTruncation:
    def test_best_first_stops_on_tripped_budget(self):
        def expand(score, value):
            # an infinite closure: every node has one successor
            yield score + 1, value + 1

        budget = QueryBudget(max_steps=5)
        items = list(best_first([(0, 0)], expand, budget))
        assert 0 < len(items) <= 5
        assert budget.tripped == TRUNCATED_BUDGET
        # the emitted prefix is still sorted
        scores = [score for score, _ in items]
        assert scores == sorted(scores)

    def test_best_first_unbudgeted_prefix_agrees(self):
        def expand(score, value):
            yield score + 1, value + 1

        budget = QueryBudget(max_steps=4)
        budgeted = list(best_first([(0, 0)], expand, budget))
        from itertools import islice

        free = list(islice(best_first([(0, 0)], expand), len(budgeted)))
        assert budgeted == free


# ----------------------------------------------------------------------
# the engine end to end
# ----------------------------------------------------------------------
class TestEngineBudget:
    def test_expired_deadline_returns_best_so_far_not_raise(
        self, paint_engine, paint_context
    ):
        clock = FakeClock()
        budget = QueryBudget(deadline_ms=1, clock=clock)
        clock.advance(1.0)  # the paper's unbounded generator, zero time left
        pe = parse("img.?*m", paint_context)
        outcome = paint_engine.complete_query(
            pe, paint_context, n=10, budget=budget
        )
        assert outcome.status.truncation == TRUNCATED_TIMEOUT
        assert isinstance(outcome.completions, list)  # possibly empty

    def test_step_budget_yields_prefix_of_full_results(
        self, paint_engine, paint_context
    ):
        pe = parse("img.?*m", paint_context)
        full = paint_engine.complete(pe, paint_context, n=10)
        # fewer steps than requested results, so the budget trips while
        # the caller is still pulling
        budget = QueryBudget(max_steps=6)
        outcome = paint_engine.complete_query(
            pe, paint_context, n=10, budget=budget
        )
        assert outcome.status.truncation == TRUNCATED_BUDGET
        assert outcome.completions == full[: len(outcome.completions)]
        assert outcome.steps > 0

    def test_generous_budget_changes_nothing(self, paint_engine, paint_context):
        pe = parse("?({img, size})", paint_context)
        full = paint_engine.complete(pe, paint_context, n=10)
        outcome = paint_engine.complete_query(
            pe, paint_context, n=10, budget=QueryBudget(max_steps=10_000_000)
        )
        assert outcome.status.truncation is None
        assert outcome.completions == full
        assert outcome.degraded == set()

    def test_cancellation_mid_stream(self, paint_engine, paint_context):
        token = CancellationToken()
        budget = QueryBudget(token=token)
        pe = parse("img.?*m", paint_context)
        stream = paint_engine.all_completions(
            pe, paint_context, budget=budget
        )
        first = next(stream)
        assert first is not None
        token.cancel()
        rest = list(stream)
        assert len(rest) <= 1  # at most one in-flight item
        assert budget.tripped == TRUNCATED_CANCELLED

    def test_strict_mode_raises_taxonomy_error(
        self, paint_engine, paint_context
    ):
        pe = parse("img.?*m", paint_context)
        with pytest.raises(BudgetExhausted):
            paint_engine.complete_query(
                pe, paint_context, n=10,
                budget=QueryBudget(max_steps=5), strict=True,
            )

    def test_budgeted_query_on_pairs(self, paint_engine, paint_context):
        # assignment/comparison paths run through reorder_with_slack
        pe = parse("? == ?", paint_context)
        outcome = paint_engine.complete_query(
            pe, paint_context, n=5, budget=QueryBudget(max_steps=25)
        )
        assert outcome.status.truncation == TRUNCATED_BUDGET

    def test_algorithm1_respects_budget(self, paint_context):
        algo = Algorithm1(paint_context, budget=QueryBudget(max_steps=20))
        results = list(algo.all_completions(parse("?", paint_context)))
        assert algo.budget.tripped == TRUNCATED_BUDGET
        assert len(results) <= 20


# ----------------------------------------------------------------------
# graceful degradation of optional features
# ----------------------------------------------------------------------
class BrokenOracle:
    """An abstract-type oracle whose backend is down."""

    def of_expr(self, expr):
        raise RuntimeError("oracle backend unreachable")

    def of_param(self, method, index, receiver_type):
        raise RuntimeError("oracle backend unreachable")


class TestDegradation:
    def test_broken_oracle_degrades_to_null_oracle(
        self, paint_engine, paint_context
    ):
        pe = parse("?({img, size})", paint_context)
        baseline = paint_engine.complete_query(
            pe, paint_context, n=10, abstypes=None
        )
        outcome = paint_engine.complete_query(
            pe, paint_context, n=10, abstypes=BrokenOracle()
        )
        assert outcome.degraded == {"abstract_types"}
        assert outcome.completions == baseline.completions

    def test_oracle_fault_injection_degrades(
        self, paint_engine, paint_context
    ):
        pe = parse("?({img, size})", paint_context)
        baseline = paint_engine.complete_query(pe, paint_context, n=10)
        with faults.inject("oracle", times=None):
            outcome = paint_engine.complete_query(pe, paint_context, n=10)
        assert outcome.degraded == {"abstract_types"}
        assert outcome.completions == baseline.completions

    def test_pair_oracle_degrades_on_comparisons(
        self, paint_engine, paint_context
    ):
        pe = parse("img.Width == ?", paint_context)
        baseline = paint_engine.complete_query(pe, paint_context, n=5)
        outcome = paint_engine.complete_query(
            pe, paint_context, n=5, abstypes=BrokenOracle()
        )
        assert "abstract_types" in outcome.degraded
        assert outcome.completions == baseline.completions

    def test_namespace_fault_degrades(self, paint_engine, paint_context):
        pe = parse("?({img, size})", paint_context)
        with faults.inject("namespaces", times=None):
            outcome = paint_engine.complete_query(pe, paint_context, n=10)
        assert "namespaces" in outcome.degraded
        assert outcome.completions  # the query still answers

    def test_matching_name_fault_degrades(self, paint_engine, paint_context):
        pe = parse("img.Width == ?", paint_context)
        with faults.inject("matching_name", times=None):
            outcome = paint_engine.complete_query(pe, paint_context, n=5)
        assert "matching_name" in outcome.degraded
        assert outcome.completions

    def test_index_fault_degrades_to_full_scan(
        self, paint_engine, paint_context
    ):
        pe = parse("?({img, size})", paint_context)
        baseline = paint_engine.complete_query(pe, paint_context, n=10)
        with faults.inject("index_lookup", times=None):
            outcome = paint_engine.complete_query(pe, paint_context, n=10)
        assert "method_index" in outcome.degraded
        # a full scan finds the same top completions, just slower
        assert outcome.completions == baseline.completions

    def test_reachability_fault_disables_pruning(self, paint, paint_engine):
        context = Context(paint.ts, locals={"img": paint.document})
        pe = parse("img.?*f", context)
        baseline = paint_engine.complete_query(
            pe, context, n=5, expected_type=paint.size
        )
        with faults.inject("index_lookup", times=None):
            outcome = paint_engine.complete_query(
                pe, context, n=5, expected_type=paint.size
            )
        assert "reachability" in outcome.degraded
        assert outcome.completions == baseline.completions

    def test_type_check_fault_is_conservative(self, paint, paint_engine):
        context = Context(paint.ts, locals={"img": paint.document})
        pe = parse("img.?*f", context)
        with faults.inject("type_check", times=None):
            outcome = paint_engine.complete_query(
                pe, context, n=5, expected_type=paint.size
            )
        assert "type_check" in outcome.degraded
        assert outcome.completions == []  # dropped, never wrong

    def test_single_shot_fault_degrades_but_query_survives(
        self, paint_engine, paint_context
    ):
        # only the first oracle call fails; the rest answer normally
        pe = parse("?({img, size})", paint_context)
        with faults.inject("oracle", on_call=1, times=1):
            outcome = paint_engine.complete_query(pe, paint_context, n=10)
        assert "abstract_types" in outcome.degraded
        assert outcome.completions


# ----------------------------------------------------------------------
# the session and CLI surface
# ----------------------------------------------------------------------
class TestSessionResilience:
    @pytest.fixture
    def session(self):
        workspace = Workspace.builtin("paint")
        session = CompletionSession(workspace)
        session.declare("img", "Document")
        session.declare("size", "System.Drawing.Size")
        return session

    def test_record_carries_elapsed_ms(self, session):
        record = session.complete("?({img})")
        assert record.elapsed_ms is not None
        assert record.elapsed_ms >= 0.0
        assert record.truncated is None
        assert record.degraded == set()

    def test_step_budget_truncates_with_reason(self, session):
        session.step_budget = 5
        record = session.complete("img.?*m")
        assert record.truncated == TRUNCATED_BUDGET

    def test_precancelled_session_truncates(self, session):
        token = CancellationToken()
        token.cancel()
        session.cancellation = token
        record = session.complete("img.?*m")
        assert record.truncated == TRUNCATED_CANCELLED
        assert record.suggestions == []

    def test_degraded_features_recorded_on_record(self, session):
        with faults.inject("oracle", times=None):
            record = session.complete("?({img, size})")
        assert record.degraded == {"abstract_types"}
        assert record.suggestions


class TestCliResilience:
    def run(self, argv):
        output = []
        code = cli_main(argv, write=output.append)
        return code, "\n".join(output)

    def test_budget_flag_truncates_with_exit_4(self):
        code, out = self.run([
            "complete", "--universe", "paint",
            "--let", "img=Document",
            "--budget", "5",
            "img.?*m",
        ])
        assert code == 4
        assert "truncated: budget" in out

    def test_timeout_flag_truncates_with_exit_3(self):
        # Disable reachability pruning (huge chain frontier) and make
        # every target-type check sleep 2 ms: the stream is guaranteed to
        # tick past the clock-check interval with milliseconds already
        # burnt, so a 1 ms deadline must trip.
        plan = FaultPlan()
        plan.add("index_lookup", times=None)
        plan.add("type_check", times=None, delay_ms=2)
        faults.install(plan)
        try:
            code, out = self.run([
                "complete", "--universe", "paint",
                "--let", "img=Document",
                "--expect", "System.Drawing.Size",
                "--timeout-ms", "1",
                "img.?*m",
            ])
        finally:
            faults.uninstall()
        assert code == 3
        assert "truncated: timeout" in out

    def test_timeout_flag_fast_query_exits_zero(self):
        code, out = self.run([
            "complete", "--universe", "paint",
            "--let", "img=Document",
            "--timeout-ms", "60000",
            "img.?f",
        ])
        assert code == 0
        assert "truncated" not in out

    def test_nonpositive_timeout_is_usage_error(self):
        code, _out = self.run([
            "complete", "--universe", "paint", "--timeout-ms", "0", "?",
        ])
        assert code == 2

    def test_nonpositive_budget_is_usage_error(self):
        code, _out = self.run([
            "complete", "--universe", "paint", "--budget", "-1", "?",
        ])
        assert code == 2

    def test_bad_this_type_is_reported_not_traceback(self):
        code, out = self.run([
            "complete", "--universe", "paint", "--this", "BadType", "?",
        ])
        assert code == 2
        assert "error:" in out

    def test_bad_expect_type_is_reported_not_traceback(self):
        code, out = self.run([
            "complete", "--universe", "paint", "--expect", "BadType", "?",
        ])
        assert code == 2
        assert "error:" in out

    def test_degraded_note_is_printed(self):
        with faults.inject("oracle", times=None):
            code, out = self.run([
                "complete", "--universe", "paint",
                "--let", "img=Document",
                "--let", "size=System.Drawing.Size",
                "?({img, size})",
            ])
        assert code == 0
        assert "degraded features: abstract_types" in out


# ----------------------------------------------------------------------
# corpus-building resilience
# ----------------------------------------------------------------------
class TestCorpusResilience:
    SCALE = 0.013  # distinct scale so the memo never collides with others

    def test_faulted_project_is_skipped_with_diagnostic(self):
        from repro.corpus import build_all_projects, last_build_diagnostics
        from repro.corpus.projects import PROJECT_BUILDERS, _cache

        _cache.pop(self.SCALE, None)
        with faults.inject("corpus_load", on_call=2):
            projects = build_all_projects(self.SCALE)
        assert len(projects) == len(PROJECT_BUILDERS) - 1
        diagnostics = last_build_diagnostics()
        assert len(diagnostics) == 1
        assert diagnostics[0].project == "WiX"  # the second builder
        assert diagnostics[0].stage == "build"
        # a degraded build is not memoised
        assert self.SCALE not in _cache

    def test_strict_mode_raises_corpus_error(self):
        from repro import CorpusError
        from repro.corpus import build_all_projects
        from repro.corpus.projects import _cache

        _cache.pop(self.SCALE, None)
        with faults.inject("corpus_load", on_call=1):
            with pytest.raises(CorpusError):
                build_all_projects(self.SCALE, strict=True)

    def test_malformed_program_is_dropped_with_diagnostic(self, paint):
        from repro.corpus.program import ExprStatement, MethodImpl, Project
        from repro.corpus.projects import CorpusDiagnostic, _validate_impls
        from repro.lang import Call, Var

        project = Project("Broken", paint.ts)
        good = MethodImpl(paint.resize_document)
        # a Size is not a Document: the first argument is ill-typed
        size_var = Var("sz", paint.size)
        bad = MethodImpl(paint.resize_document)
        bad.body.append(
            ExprStatement(
                Call(
                    paint.resize_document,
                    (size_var,) * paint.resize_document.arity,
                )
            )
        )
        project.add_impl(good)
        project.add_impl(bad)
        diagnostics = []
        _validate_impls(project, diagnostics)
        assert project.impls == [good]
        assert len(diagnostics) == 1
        assert isinstance(diagnostics[0], CorpusDiagnostic)
        assert diagnostics[0].stage == "program"
        assert "not well-typed" in diagnostics[0].detail


# ----------------------------------------------------------------------
# the fault harness itself
# ----------------------------------------------------------------------
class TestFaultHarness:
    def test_fire_is_noop_without_plan(self):
        faults.fire("oracle")  # must not raise

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan().add("warp_core")

    def test_nth_call_trigger(self):
        with faults.inject("oracle", on_call=3) as plan:
            faults.fire("oracle")
            faults.fire("oracle")
            with pytest.raises(FaultError):
                faults.fire("oracle")
            faults.fire("oracle")  # times=1: only the 3rd call fails
        assert plan.calls_to("oracle") == 4
        assert plan.triggered == [("oracle", 3)]

    def test_times_none_means_every_call_from_nth(self):
        with faults.inject("oracle", on_call=2, times=None):
            faults.fire("oracle")
            for _ in range(3):
                with pytest.raises(FaultError):
                    faults.fire("oracle")

    def test_custom_error_instance(self):
        from repro import FeatureUnavailable

        boom = FeatureUnavailable("abstract_types", "backend down")
        with faults.inject("oracle", error=boom):
            with pytest.raises(FeatureUnavailable):
                faults.fire("oracle")

    def test_delay_mode_sleeps_then_continues(self):
        import time

        with faults.inject("type_check", delay_ms=5, times=None):
            start = time.monotonic()
            faults.fire("type_check")
            assert time.monotonic() - start >= 0.004

    def test_plans_nest_and_restore(self):
        assert faults.active_plan() is None
        with faults.inject("oracle"):
            outer = faults.active_plan()
            with faults.inject("type_check"):
                assert faults.active_plan() is not outer
                faults.fire("oracle")  # inner plan: oracle is clean here
            assert faults.active_plan() is outer
        assert faults.active_plan() is None

    def test_deterministic_across_runs(self):
        def run():
            triggered = []
            with faults.inject("oracle", on_call=2, times=2) as plan:
                for _ in range(5):
                    try:
                        faults.fire("oracle")
                    except FaultError:
                        pass
                triggered = list(plan.triggered)
            return triggered

        assert run() == run() == [("oracle", 2), ("oracle", 3)]


class TestFaultSiteValidation:
    """The canonical site list is enforced everywhere a site name enters
    the system, and chaos-mode fuzzing enumerates it programmatically."""

    def test_plan_add_rejects_unknown_site(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan().add("not_a_site")

    def test_fault_constructor_rejects_unknown_site(self):
        # direct Fault(...) construction bypasses FaultPlan.add — the
        # dataclass itself validates, so a typo'd site can never install
        # a fault that silently never fires
        with pytest.raises(ValueError, match="unknown fault site"):
            faults.Fault("orakle")

    def test_query_sites_is_sites_minus_corpus_load(self):
        assert set(faults.QUERY_SITES) == set(faults.SITES) - {"corpus_load"}
        assert "corpus_load" in faults.SITES

    @pytest.mark.parametrize("site, query, expected", [
        ("type_check", "?", "DynamicGeometry.Point"),
        ("index_lookup", "?({point})", None),
        ("namespaces", "?({point, shapeStyle})", None),
        ("matching_name", "point.?*m >= point.?*m", None),
    ])
    def test_query_path_sites_actually_fire(self, site, query, expected):
        # wiring proof: a no-op (0 ms delay) fault at each query-path
        # site records calls while a site-exercising query runs
        session = CompletionSession(Workspace.builtin("geometry"))
        session.declare("point", "DynamicGeometry.Point")
        session.declare("shapeStyle", "DynamicGeometry.ShapeStyle")
        if expected is not None:
            session.set_expected(expected)
        with faults.inject(site, delay_ms=0, times=None) as plan:
            session.complete(query)
        assert plan.calls_to(site) > 0

    def test_chaos_mode_draws_from_query_sites(self):
        from repro.fuzz.harness import FuzzConfig, synthesize_scenario

        config = FuzzConfig(seed=0, iterations=40, chaos=True)
        sites = {
            synthesize_scenario(config, i)["fault"]["site"]
            for i in range(40)
            if synthesize_scenario(config, i)["mode"] == "chaos"
        }
        assert sites  # chaos iterations exist
        assert sites <= set(faults.QUERY_SITES)
