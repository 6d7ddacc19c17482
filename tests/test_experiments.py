"""End-to-end experiment runner tests on the tiny project."""

from dataclasses import replace

import pytest

from repro.eval import (
    TABLE2_CONFIGS,
    TABLE2_ROWS,
    EvalConfig,
    run_argument_prediction,
    run_assignment_prediction,
    run_comparison_prediction,
    run_method_prediction,
    table2,
)
from repro.eval.tables import _variant_ranks


@pytest.fixture(scope="module")
def cfg():
    return EvalConfig(
        limit=40,
        max_calls_per_project=20,
        max_arguments_per_project=30,
        max_assignments_per_project=12,
        max_comparisons_per_project=8,
    )


@pytest.fixture(scope="module")
def tiny(request):
    return request.getfixturevalue("tiny_project")


@pytest.fixture(scope="module")
def method_results(tiny, cfg):
    return run_method_prediction([tiny], cfg)


class TestMethodPrediction:
    def test_only_multiarg_calls(self, method_results):
        assert all(r.arity >= 2 for r in method_results)

    def test_ranks_within_limit(self, method_results, cfg):
        for r in method_results:
            if r.best_rank is not None:
                assert 1 <= r.best_rank <= cfg.limit

    def test_single_never_beats_best(self, method_results):
        for r in method_results:
            if r.best_rank_single is not None:
                assert r.best_rank is not None
                assert r.best_rank <= r.best_rank_single

    def test_return_filter_never_hurts(self, method_results):
        """Filtering by the true return type can only improve the rank."""
        for r in method_results:
            if r.best_rank is not None and r.best_rank_return is not None:
                assert r.best_rank_return <= r.best_rank

    def test_most_calls_found(self, method_results):
        found = sum(1 for r in method_results if r.best_rank is not None)
        assert found / len(method_results) > 0.6

    def test_intellisense_present(self, method_results):
        assert all(r.intellisense is not None for r in method_results)

    def test_timings_recorded(self, method_results):
        for r in method_results:
            assert r.query_seconds
            assert all(t >= 0 for t in r.query_seconds)


class TestArgumentPrediction:
    @pytest.fixture(scope="class")
    def results(self, tiny, cfg):
        return run_argument_prediction([tiny], cfg)

    def test_unguessable_have_no_rank(self, results):
        for r in results:
            if not r.guessable:
                assert r.rank is None

    def test_kind_labels(self, results):
        valid = {"local", "this_field", "local_field", "static_field",
                 "zero_arg_call", "deep_chain", "literal"}
        assert all(r.kind in valid for r in results)

    def test_locals_mostly_found(self, results):
        locals_only = [r for r in results if r.guessable and r.is_local]
        assert locals_only
        found = sum(1 for r in locals_only if r.rank is not None)
        assert found / len(locals_only) > 0.7


class TestLookupPrediction:
    def test_assignment_variants(self, tiny, cfg):
        results = run_assignment_prediction([tiny], cfg)
        variants = {r.variant for r in results}
        assert "Target" in variants
        found = [r for r in results if r.variant == "Target" and r.rank]
        assert found

    def test_comparison_variants(self, tiny, cfg):
        results = run_comparison_prediction([tiny], cfg)
        assert {r.variant} <= {"Left", "Right", "Both", "2xLeft", "2xRight"} \
            if not results else True
        singles = [r for r in results if r.variant in ("Left", "Right")]
        assert singles
        hit = sum(1 for r in singles if r.rank is not None and r.rank <= 10)
        assert hit / len(singles) > 0.5


class TestDeterminism:
    def test_same_config_same_results(self, tiny, cfg):
        first = [
            (r.method_name, r.best_rank, r.best_rank_single)
            for r in run_method_prediction([tiny], cfg)
        ]
        second = [
            (r.method_name, r.best_rank, r.best_rank_single)
            for r in run_method_prediction([tiny], cfg)
        ]
        assert first == second


class TestAbstypeModes:
    def test_modes_run(self, tiny):
        for mode in ("exclude", "full", "none"):
            cfg = EvalConfig(
                limit=25,
                max_calls_per_project=5,
                with_return_type=False,
                with_intellisense=False,
                abstypes=mode,
            )
            results = run_method_prediction([tiny], cfg)
            assert len(results) == 5


class TestTable2:
    def test_shared_analyses_match_per_variant_runs(self, tiny):
        """``table2`` builds each site's leave-one-out analysis once for
        all 15 variants; every row must equal a per-variant run that
        builds its own engines and analyses per family."""
        base = EvalConfig(
            limit=25,
            max_calls_per_project=3,
            max_arguments_per_project=4,
            max_assignments_per_project=2,
            max_comparisons_per_project=2,
        )
        grid = table2([tiny], base)
        for config in TABLE2_CONFIGS:
            cfg = replace(base, ranking=config, with_return_type=False,
                          with_intellisense=False)
            reference = dict(_variant_ranks(tiny, cfg, None))
            assert {row: grid.ranks[row][config.label()]
                    for row in TABLE2_ROWS} == reference
