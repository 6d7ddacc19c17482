"""Tests for the method index (Fig. 8) and the reachability index."""

import time

import pytest

from repro import MethodIndex, ReachabilityIndex, TypeSystem
from repro.codemodel import LibraryBuilder


@pytest.fixture
def world():
    ts = TypeSystem()
    lib = LibraryBuilder(ts)
    animal = lib.cls("Zoo.Animal")
    dog = lib.cls("Zoo.Dog", base=animal)
    feed = lib.static_method("Zoo.Keeper", "Feed", params=[("a", animal)])
    walk = lib.static_method("Zoo.Keeper", "Walk", params=[("d", dog)])
    groom = lib.method(dog, "Groom")
    lib.prop(dog, "Tail", ts.string_type)
    lib.prop(animal, "Home", ts.try_get("Zoo.Dog") or dog)
    return ts, animal, dog, feed, walk, groom


class TestMethodIndex:
    def test_exact_param_lookup(self, world):
        ts, animal, dog, feed, walk, groom = world
        index = MethodIndex(ts)
        exact_dog = index.methods_with_exact_param(dog)
        assert walk in exact_dog
        assert groom in exact_dog  # receiver counts as a parameter
        assert feed not in exact_dog

    def test_accepting_walks_supertypes(self, world):
        ts, animal, dog, feed, walk, groom = world
        index = MethodIndex(ts)
        accepting = index.methods_accepting(dog)
        assert feed in accepting and walk in accepting
        # nearest types first: Dog-exact methods precede Animal methods
        assert accepting.index(walk) < accepting.index(feed)

    def test_accepting_excludes_unrelated(self, world):
        ts, animal, dog, feed, walk, groom = world
        index = MethodIndex(ts)
        assert walk not in index.methods_accepting(animal)

    def test_candidate_methods_picks_smallest_set(self, world):
        ts, animal, dog, feed, walk, groom = world
        index = MethodIndex(ts)
        # Dog accepts 3+ methods, Animal fewer; index must pick the smaller
        candidates = index.candidate_methods([dog, animal])
        by_animal = index.methods_accepting(animal)
        assert len(candidates) == min(
            len(index.methods_accepting(dog)), len(by_animal)
        )

    def test_candidate_methods_wildcards_fall_back_to_all(self, world):
        ts, *_ = world
        index = MethodIndex(ts)
        assert len(index.candidate_methods([None])) == len(index)

    def test_index_is_complete(self, world):
        """Index lookup finds every method a brute-force scan finds."""
        ts, animal, dog, *_ = world
        index = MethodIndex(ts)
        for query_type in (animal, dog, ts.string_type):
            brute = {
                id(m)
                for m in ts.all_methods()
                if any(
                    ts.implicitly_converts(query_type, p.type)
                    for p in m.all_params()
                )
            }
            indexed = {id(m) for m in index.methods_accepting(query_type)}
            assert indexed == brute


class TestIndexStats:
    def test_stats_shape(self, world):
        ts, *_ = world
        index = MethodIndex(ts)
        stats = index.stats()
        assert stats["methods"] == len(index)
        assert stats["indexed_types"] > 0
        assert stats["largest_bucket"] <= stats["methods"]
        assert 0 < stats["mean_bucket"] <= stats["largest_bucket"]

    def test_buckets_are_smaller_than_universe(self, world):
        """The point of the index: per-type candidate sets are much smaller
        than the set of all methods."""
        ts, animal, dog, *_ = world
        index = MethodIndex(ts)
        assert len(index.methods_with_exact_param(dog)) < len(index)


class TestReachabilityIndex:
    def test_self_is_reachable_at_zero(self, world):
        ts, animal, dog, *_ = world
        reach = ReachabilityIndex(ts)
        assert reach.reachable(dog, allow_methods=True)[dog.full_name] == 0

    def test_field_step(self, world):
        ts, animal, dog, *_ = world
        reach = ReachabilityIndex(ts)
        distances = reach.reachable(dog, allow_methods=False)
        assert distances["System.String"] == 1  # via Tail

    def test_steps_to_target_uses_conversion(self, world):
        ts, animal, dog, *_ = world
        reach = ReachabilityIndex(ts)
        # Animal.Home is a Dog, which converts to Animal
        assert reach.steps_to_target(animal, animal, allow_methods=False) == 0
        assert reach.steps_to_target(animal, dog, allow_methods=False) == 1

    def test_unreachable_is_none(self, world):
        ts, animal, dog, *_ = world
        lib = LibraryBuilder(ts)
        island = lib.cls("Far.Island")
        reach = ReachabilityIndex(ts)
        assert reach.steps_to_target(dog, island, allow_methods=True) is None

    def test_can_reach_respects_budget(self, world):
        ts, animal, dog, *_ = world
        reach = ReachabilityIndex(ts)
        assert reach.can_reach(dog, ts.string_type, within=1, allow_methods=False)
        assert not reach.can_reach(
            animal, ts.string_type, within=1, allow_methods=False
        )
        assert reach.can_reach(
            animal, ts.string_type, within=2, allow_methods=False
        )

    def test_depth_bound(self, world):
        ts, animal, dog, *_ = world
        reach = ReachabilityIndex(ts, max_depth=0)
        assert reach.steps_to_target(dog, ts.string_type, True) is None


class TestIncrementalRefresh:
    """Mutation windows patch the indexes instead of rebuilding them."""

    def test_field_only_edit_skips_both_patch_and_rebuild(self, world):
        from repro.codemodel.members import Field

        ts, animal, dog, *_ = world
        index = MethodIndex(ts)
        dog.add_field(Field("zzWeight", ts.string_type))
        index.refresh()
        # fields never enter the method index: a field-only window is a
        # pure restamp, not a patch
        assert index.patches == 0
        assert index.rebuilds == 0
        assert index.built_version == ts.version

    def test_method_edit_patches_to_cold_equivalence(self, world):
        from repro.codemodel.members import Method, Parameter

        ts, animal, dog, *_ = world
        warm = MethodIndex(ts)
        dog.add_method(
            Method("zzFetch", return_type=ts.string_type,
                   params=[Parameter("toy", ts.string_type)]))
        warm.refresh()
        assert warm.patches == 1
        assert warm.rebuilds == 0

        cold = MethodIndex(ts)
        assert [id(m) for m in warm.all_methods()] == [
            id(m) for m in cold.all_methods()]
        assert set(warm._by_exact_type) == set(cold._by_exact_type)
        for key, bucket in cold._by_exact_type.items():
            assert [id(m) for m in warm._by_exact_type[key]] == [
                id(m) for m in bucket]

    def test_method_reorder_patch_restores_declaration_order(self, world):
        ts, animal, dog, *_ = world
        warm = MethodIndex(ts)
        dog.set_member_order(methods=list(reversed(dog.methods)))
        warm.refresh()
        assert warm.patches == 1

        cold = MethodIndex(ts)
        assert [id(m) for m in warm.methods_accepting(dog)] == [
            id(m) for m in cold.methods_accepting(dog)]

    def test_seeded_edit_stream_patches_to_cold_equivalence(self):
        import random

        from repro.codemodel.members import Field, Method, Parameter
        from repro.corpus.projects import build_wix_project

        def shape(index):
            return (
                {key: [id(m) for m in bucket]
                 for key, bucket in index._by_exact_type.items()},
                {key: [id(m) for m in bucket]
                 for key, bucket in index._by_declaring.items()},
                [id(m) for m in index.all_methods()],
            )

        ts = build_wix_project(scale=0.05).ts
        rng = random.Random(20261016)
        owners = [t for t in ts.all_types()
                  if not t.is_primitive and t is not ts.void_type]
        types = [t for t in ts.all_types() if t is not ts.void_type]
        warm = MethodIndex(ts)
        edits = 0
        while edits < 240:
            # one to three edits per refresh: windows naming several types
            for _ in range(rng.randint(1, 3)):
                owner = rng.choice(owners)
                kind = rng.randrange(3)
                if kind == 0:
                    # repeated parameter types exercise the per-method
                    # bucket dedup; static methods have no receiver
                    params = [Parameter("p{}".format(i), rng.choice(types))
                              for i in range(rng.randint(0, 2))]
                    owner.add_method(Method(
                        "ZzM{}".format(edits), return_type=rng.choice(types),
                        params=params + params[:rng.randint(0, 1)],
                        is_static=rng.random() < 0.3))
                elif kind == 1:
                    owner.add_field(
                        Field("zzF{}".format(edits), rng.choice(types)))
                else:
                    methods = list(owner.methods)
                    rng.shuffle(methods)
                    owner.set_member_order(methods=methods)
                edits += 1
            warm.refresh()
            assert shape(warm) == shape(MethodIndex(ts)), edits
        assert warm.rebuilds == 0
        assert warm.patches > 0

    def test_structural_edit_forces_rebuild(self, world):
        ts, animal, dog, *_ = world
        lib = LibraryBuilder(ts)
        index = MethodIndex(ts)
        lib.cls("Zoo.Cat", base=animal)
        index.refresh()
        assert index.rebuilds == 1
        assert index.patches == 0

    def test_reachability_preserves_walks_on_unrelated_edit(self, world):
        from repro.codemodel.members import Field

        ts, animal, dog, *_ = world
        lib = LibraryBuilder(ts)
        island = lib.cls("Far.Island")
        reach = ReachabilityIndex(ts)
        reach.reachable(dog, allow_methods=False)
        assert (dog.full_name, False) in reach._walk_fp

        island.add_field(Field("zzSand", ts.string_type))
        reach.refresh()
        # Island is not in the Dog walk's footprint: the memo survives
        assert (dog.full_name, False) in reach._walk_fp

    def test_reachability_drops_walks_touching_the_edit(self, world):
        from repro.codemodel.members import Field

        ts, animal, dog, *_ = world
        reach = ReachabilityIndex(ts)
        reach.reachable(dog, allow_methods=False)
        assert (dog.full_name, False) in reach._walk_fp

        dog.add_field(Field("zzBone", ts.string_type))
        reach.refresh()
        assert (dog.full_name, False) not in reach._walk_fp


class TestScaling:
    def test_query_latency_grows_slower_than_the_universe(self):
        """The method index keeps candidate sets "orders of magnitude
        smaller than the set of all methods": 9x the classes may not
        cost 9x the query time."""
        from repro import CompletionEngine, parse
        from repro.corpus import synthesize_project
        from tests.conftest import scaling_spec

        rows = []
        for size in (10, 30, 90):
            project = synthesize_project(scaling_spec(size))
            methods = sum(1 for _ in project.ts.all_methods())
            context = project.impls[0].context(project.ts)
            engine = CompletionEngine(project.ts, index=MethodIndex(project.ts))
            names = [name for name, _ in list(context.locals.items())[:2]]
            pe = parse("?({{{}}})".format(", ".join(names)), context)
            started = time.perf_counter()
            for _ in range(20):
                engine.complete(pe, context, n=10)
            rows.append((methods, time.perf_counter() - started))
        (small_methods, small_s), (large_methods, large_s) = rows[0], rows[-1]
        assert large_s < small_s * (large_methods / small_methods)
