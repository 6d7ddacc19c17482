"""The fuzzing loop: determinism, oracles, shrinking, replay, surfaces."""

import json

import pytest

from repro.__main__ import main
from repro.engine.completer import QueryStatus
from repro.fuzz import FuzzConfig, run_fuzz
from repro.fuzz.harness import (
    records_ndjson,
    run_scenario,
    synthesize_scenario,
)
from repro.fuzz.oracles import (
    Mismatch,
    check_chaos_outcome,
    compare_outcomes,
)
from repro.fuzz.shrink import (
    load_repro,
    replay_repro,
    save_repro,
    shrink_scenario,
)
from repro.fuzz.transforms import NameMapping
from repro.lang.ast import Var


# ----------------------------------------------------------------------
# oracle unit tests (fake outcomes, no engine)
# ----------------------------------------------------------------------

class _Completion:
    def __init__(self, score, name):
        self.score = score
        self.expr = Var(name, None)


class _Outcome:
    def __init__(self, scored, status=QueryStatus.OK, degraded=()):
        self.completions = [_Completion(s, t) for s, t in scored]
        self.status = status
        self.degraded = set(degraded)


IDENTITY = NameMapping.identity()


class TestCompareOutcomes:
    def test_equal_up_to_tie_order(self):
        base = _Outcome([(1, "a"), (2, "b"), (2, "c")])
        other = _Outcome([(1, "a"), (2, "c"), (2, "b")])
        compare_outcomes(base, other, IDENTITY, n=10)

    def test_score_difference_raises(self):
        base = _Outcome([(1, "a"), (2, "b")])
        other = _Outcome([(1, "a"), (3, "b")])
        with pytest.raises(Mismatch, match="score differs"):
            compare_outcomes(base, other, IDENTITY, n=10)

    def test_member_difference_raises_when_not_cut(self):
        # list shorter than n: the stream was exhausted, so even the last
        # group must match exactly
        base = _Outcome([(1, "a"), (2, "b")])
        other = _Outcome([(1, "a"), (2, "z")])
        with pytest.raises(Mismatch, match="members differ"):
            compare_outcomes(base, other, IDENTITY, n=10)

    def test_boundary_group_compared_by_size_only(self):
        # list length == n: the top-n cut may have split the last score
        # group, and which tied members survive is unspecified
        base = _Outcome([(1, "a"), (2, "b"), (2, "c")])
        other = _Outcome([(1, "a"), (2, "b"), (2, "z")])
        compare_outcomes(base, other, IDENTITY, n=3)

    def test_prefix_only_ignores_divergent_tails(self):
        base = _Outcome([(1, "a"), (2, "b"), (3, "x")])
        other = _Outcome([(1, "a"), (2, "b")])
        compare_outcomes(base, other, IDENTITY, n=10, prefix_only=True)

    def test_prefix_only_still_checks_shared_groups(self):
        base = _Outcome([(1, "a"), (2, "b"), (3, "x")])
        other = _Outcome([(1, "z"), (2, "b")])
        with pytest.raises(Mismatch):
            compare_outcomes(base, other, IDENTITY, n=10, prefix_only=True)

    def test_nonmonotone_scores_raise(self):
        base = _Outcome([(2, "a"), (1, "b")])
        with pytest.raises(Mismatch, match="nondecreasing"):
            compare_outcomes(base, base, IDENTITY, n=10)


class TestChaosContract:
    def test_identical_outcomes_pass(self):
        clean = _Outcome([(1, "a")])
        check_chaos_outcome(clean, _Outcome([(1, "a")]), n=10)

    def test_marked_degradation_passes(self):
        clean = _Outcome([(1, "a"), (2, "b")])
        faulted = _Outcome([(1, "a")], degraded={"namespaces"})
        check_chaos_outcome(clean, faulted, n=10)

    def test_truncated_status_passes(self):
        clean = _Outcome([(1, "a"), (2, "b")])
        faulted = _Outcome([(1, "a")], status=QueryStatus.BUDGET)
        check_chaos_outcome(clean, faulted, n=10)

    def test_silently_wrong_is_the_failure(self):
        clean = _Outcome([(1, "a"), (2, "b")])
        faulted = _Outcome([(1, "a"), (2, "z")])  # no degraded, status OK
        with pytest.raises(Mismatch, match="silently wrong"):
            check_chaos_outcome(clean, faulted, n=10)


# ----------------------------------------------------------------------
# shrinking (synthetic runner, no engine)
# ----------------------------------------------------------------------

def _scenario(transforms, queries):
    return {
        "universe": "paint",
        "mode": "differential",
        "transforms": transforms,
        "queries": queries,
        "locals": {"img": "PaintDotNet.Document"},
        "this": None,
        "n": 10,
        "budget_steps": None,
        "fault": None,
        "mutation_seed": None,
    }


def _culprit_runner(scenario):
    families = [family for family, _ in scenario["transforms"]]
    if "rename_members" in families and "img.?f" in scenario["queries"]:
        return "boom"
    return None


class TestShrink:
    def test_minimizes_to_single_transform_and_query(self):
        scenario = _scenario(
            [["rename_types", 1], ["rename_members", 2], ["split_types", 3]],
            ["?", "img.?f", "img.?m"],
        )
        shrunk = shrink_scenario(scenario, _culprit_runner)
        assert shrunk["transforms"] == [["rename_members", 2]]
        assert shrunk["queries"] == ["img.?f"]
        assert shrunk["failure"] == "boom"
        assert shrunk["shrunk"] is True
        # the input was not mutated
        assert len(scenario["transforms"]) == 3

    def test_non_failing_scenario_returned_unshrunk(self):
        scenario = _scenario([["rename_types", 1]], ["?"])
        shrunk = shrink_scenario(scenario, lambda s: None)
        assert shrunk["transforms"] == scenario["transforms"]
        assert "shrunk" not in shrunk

    def test_repro_file_roundtrip(self, tmp_path):
        scenario = _scenario([["rename_members", 2]], ["img.?f"])
        path = str(tmp_path / "repro.json")
        save_repro(path, scenario)
        loaded = load_repro(path)
        assert loaded["format"] == "repro-fuzz-repro"
        assert loaded["transforms"] == [["rename_members", 2]]
        assert loaded["queries"] == ["img.?f"]

    def test_load_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "repro-bench"}))
        with pytest.raises(ValueError, match="not a repro-fuzz-repro"):
            load_repro(str(path))


# ----------------------------------------------------------------------
# the loop: determinism and scheduling
# ----------------------------------------------------------------------

class TestDeterminism:
    def test_same_seed_byte_identical_records(self, tmp_path):
        config = FuzzConfig(seed=5, iterations=6, chaos=True,
                            out_dir=str(tmp_path))
        first = run_fuzz(config)
        second = run_fuzz(config)
        assert not first.failed
        assert records_ndjson(first) == records_ndjson(second)

    def test_chaos_joins_mode_rotation(self):
        config = FuzzConfig(seed=1, iterations=8, chaos=True)
        modes = {synthesize_scenario(config, i)["mode"] for i in range(8)}
        assert modes == {"differential", "budget", "mutation", "chaos"}
        no_chaos = FuzzConfig(seed=1, iterations=8)
        modes = {synthesize_scenario(no_chaos, i)["mode"] for i in range(8)}
        assert modes == {"differential", "budget", "mutation"}

    def test_unknown_transform_family_rejected(self):
        with pytest.raises(ValueError, match="unknown transform"):
            FuzzConfig(transforms=["bogus"]).families()

    def test_scenarios_pin_battery_scope(self):
        scenario = synthesize_scenario(FuzzConfig(seed=2, universes=("bcl",)), 0)
        assert scenario["universe"] == "bcl"
        assert scenario["locals"] == {"now": "System.DateTime",
                                      "span": "System.TimeSpan"}


# ----------------------------------------------------------------------
# the acceptance loop: planted bug -> found, shrunk, replayed
# ----------------------------------------------------------------------

@pytest.fixture
def planted_rank_instability(monkeypatch):
    """A deliberately rank-unstable scoring tweak: the namespace term
    picks up a dependence on the method's *name*, which rename_members
    perturbs while the semantics stay put."""
    from repro.engine.ranking import Ranker

    original = Ranker.namespace_cost

    def buggy(self, method, arg_types):
        return original(self, method, arg_types) + (len(method.name) % 2)

    monkeypatch.setattr(Ranker, "namespace_cost", buggy)


class TestPlantedBug:
    def test_found_shrunk_and_replayable(self, tmp_path, monkeypatch,
                                         planted_rank_instability):
        lines = []
        code = main(["fuzz", "--seed", "3", "--iterations", "10",
                     "--transforms", "rename_members",
                     "--out", str(tmp_path)], write=lines.append)
        assert code == 1
        repro_files = list(tmp_path.glob("FUZZ_REPRO_*.json"))
        assert len(repro_files) == 1
        scenario = load_repro(str(repro_files[0]))
        # shrunk to a minimal plan and a single query
        assert len(scenario["transforms"]) == 1
        assert scenario["transforms"][0][0] == "rename_members"
        assert len(scenario["queries"]) == 1
        # replay with the bug still planted: reproduces, exit 1
        assert main(["fuzz", "--replay", str(repro_files[0])],
                    write=lines.append) == 1

    def test_replay_passes_once_fixed(self, tmp_path, monkeypatch):
        from repro.engine.ranking import Ranker

        original = Ranker.namespace_cost

        def buggy(self, method, arg_types):
            return original(self, method, arg_types) + (len(method.name) % 2)

        monkeypatch.setattr(Ranker, "namespace_cost", buggy)
        code = main(["fuzz", "--seed", "3", "--iterations", "10",
                     "--transforms", "rename_members",
                     "--out", str(tmp_path)], write=lambda _line: None)
        assert code == 1
        repro = str(next(tmp_path.glob("FUZZ_REPRO_*.json")))
        monkeypatch.setattr(Ranker, "namespace_cost", original)
        assert main(["fuzz", "--replay", repro],
                    write=lambda _line: None) == 0
        assert replay_repro(repro) is None


# ----------------------------------------------------------------------
# chaos mode against the real engine
# ----------------------------------------------------------------------

class TestChaosMode:
    def test_never_silently_wrong(self, tmp_path):
        # chaos iterations schedule faults across every query-path site;
        # a pass means every divergence was marked degraded/truncated
        config = FuzzConfig(seed=17, iterations=8, chaos=True,
                            out_dir=str(tmp_path))
        report = run_fuzz(config)
        assert not report.failed, report.failure
        assert any(r["mode"] == "chaos" for r in report.records)

    def test_faults_do_not_leak_out_of_the_run(self):
        from repro.testing import faults

        scenario = synthesize_scenario(
            FuzzConfig(seed=17, iterations=8, chaos=True), 3)
        assert scenario["mode"] == "chaos"
        assert run_scenario(scenario) is None
        assert faults.active_plan() is None


# ----------------------------------------------------------------------
# surfaces: CLI run log, REPL, api
# ----------------------------------------------------------------------

class TestSurfaces:
    def test_cli_run_log_manifest_records_seed(self, tmp_path):
        log_path = str(tmp_path / "fuzz.ndjson")
        code = main(["fuzz", "--seed", "9", "--iterations", "3",
                     "--out", str(tmp_path), "--run-log", log_path],
                    write=lambda _line: None)
        assert code == 0
        records = [json.loads(line)
                   for line in open(log_path) if line.strip()]
        assert records[0]["kind"] == "run"
        assert records[0]["seed"] == 9
        events = [r for r in records if r.get("name") == "fuzz_iteration"]
        assert len(events) == 3
        assert [e["data"]["iteration"] for e in events] == [0, 1, 2]

    def test_cli_usage_errors(self, tmp_path):
        assert main(["fuzz", "--iterations", "0"],
                    write=lambda _line: None) == 2
        assert main(["fuzz", "--transforms", " , "],
                    write=lambda _line: None) == 2
        assert main(["fuzz", "--replay", str(tmp_path / "missing.json")],
                    write=lambda _line: None) == 2

    def test_repl_fuzz_command(self):
        from repro.ide.repl import run_repl
        from repro.ide.workspace import Workspace

        lines = []
        run_repl(Workspace.builtin("geometry"), [":fuzz 2 4", ":quit"],
                 lines.append)
        text = "\n".join(lines)
        assert "fuzz seed 4: 2 iteration(s)" in text
        assert "rank-stable" in text

    def test_api_fuzz(self, tmp_path):
        from repro import api

        report = api.fuzz(seed=2, iterations=2, universes=["geometry"],
                          out_dir=str(tmp_path))
        assert not report.failed
        assert len(report.records) == 2
        assert {r["universe"] for r in report.records} == {"geometry"}

