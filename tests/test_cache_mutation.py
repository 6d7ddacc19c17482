"""Pinned regression tests for the cache's invalidation contract.

The ``CompletionCache`` invalidates in two tiers: member-level mutation
windows drop only the entries whose recorded
:class:`~repro.analysis.deps.QueryFootprint` the edit intersects
(fine-grained), while structural edits and truncated mutation logs
clear everything (coarse).  Whichever tier fires, the observable
contract pinned here holds: a mutation landing between ``warm()`` and a
batched ``complete_many`` never lets the batch see pre-mutation
answers — and a single-type member edit must *preserve* the unrelated
entries, attributed in ``CacheStats``.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.codemodel.members import Field, Method, Parameter
from repro.engine.completer import (
    CompletionEngine,
    CompletionRequest,
    EngineConfig,
)
from repro.fuzz.oracles import check_mutation_outcomes
from repro.ide.workspace import Workspace
from repro.lang.parser import parse
from repro.lang.printer import to_source

from .test_incremental import _pristine, _rotated


def _requests(workspace, context, sources, n=10):
    return [
        CompletionRequest(pe=parse(source, context), context=context, n=n)
        for source in sources
    ]


def _check_against_cold(ts, context, sources, outcomes, n=10, cold_context=None):
    """Each warm outcome must equal a cache-less engine's answer, asked
    in ``cold_context`` (default: the same context)."""
    cold_engine = CompletionEngine(ts, EngineConfig(enable_cache=False))
    cold_context = cold_context or context
    for source, outcome in zip(sources, outcomes):
        check_mutation_outcomes(outcome, cold_engine.complete_query(
            parse(source, cold_context), cold_context, n=n), n=n)


def _cached_entries(workspace):
    stats = workspace.cache_stats()
    return stats["streams"] + stats["root_pools"]


@pytest.fixture
def warm_paint():
    workspace = Workspace.builtin("paint")
    assert workspace.cache_enabled
    document = workspace.ts.get("PaintDotNet.Document")
    context = workspace.context(locals={"img": document})
    return workspace, context, document


QUERIES = ["img.?f", "img.?m", "?({img})"]


def test_cache_stats_keys_are_pinned(warm_paint):
    """``Workspace.cache_stats()`` is the ``cache`` object of
    ``/v1/stats`` and ``repro stats --json``: its key set is a wire
    shape."""
    workspace, context, _document = warm_paint
    workspace.complete_many(_requests(workspace, context, QUERIES))
    assert set(workspace.cache_stats()) == {
        "stream_hits", "stream_misses", "roots_hits", "roots_misses",
        "invalidations", "invalidations_coarse", "invalidations_fine",
        "entries_preserved", "entries_dropped", "evictions",
        "hits", "misses", "hit_rate",
        "streams", "root_pools", "root_pool_groups",
    }


class TestMutationBetweenWarmAndBatch:
    def test_field_added_after_warm_is_visible_to_the_batch(self, warm_paint):
        workspace, context, document = warm_paint
        # prime: warm indexes AND populate the cross-query cache
        workspace.complete_many(_requests(workspace, context, QUERIES))
        assert _cached_entries(workspace) > 0

        # the mutation lands between warm() and the next batch
        workspace.engine.warm()
        version = workspace.ts.version
        document.add_field(Field("zzAddedBetween", workspace.ts.string_type))
        assert workspace.ts.version > version

        outcomes = workspace.complete_many(
            _requests(workspace, context, ["img.?f"], n=50))
        texts = {c.expr.member.name if hasattr(c.expr, "member") else ""
                 for c in outcomes[0].completions}
        assert "zzAddedBetween" in texts

    def test_batch_after_mutation_equals_cold_engine(self, warm_paint):
        workspace, context, document = warm_paint
        workspace.complete_many(_requests(workspace, context, QUERIES))
        workspace.engine.warm()
        document.add_method(Method(
            "zzMutM", return_type=workspace.ts.string_type,
            params=[Parameter("x", workspace.ts.string_type)]))
        document.set_member_order(fields=list(reversed(document.fields)))

        warm_outcomes = workspace.complete_many(
            _requests(workspace, context, QUERIES))
        _check_against_cold(workspace.ts, context, QUERIES, warm_outcomes)

    def test_kept_context_sees_a_new_static_root(self, warm_paint):
        workspace, context, _document = warm_paint
        cold_engine = CompletionEngine(
            workspace.ts, EngineConfig(enable_cache=False))
        # prime the cached root pool and the kept context's own roots
        workspace.complete_many(_requests(workspace, context, ["?"], n=50))
        cold_engine.complete_query(parse("?", context), context, n=50)
        workspace.ts.get("PaintDotNet.HistoryStack").add_field(Field(
            "zzStaticRoot", workspace.ts.string_type, is_static=True))

        warm = workspace.complete_many(
            _requests(workspace, context, ["?"], n=50))[0]
        assert any("zzStaticRoot" in str(c.expr) for c in warm.completions)
        kept = cold_engine.complete_query(parse("?", context), context, n=50)
        fresh = workspace.context(locals=dict(context.locals))
        _check_against_cold(workspace.ts, context, ["?", "?"], [warm, kept],
                            n=50, cold_context=fresh)

    def test_mutation_clears_cache_and_counts_invalidation(self, warm_paint):
        workspace, context, document = warm_paint
        workspace.complete_many(_requests(workspace, context, QUERIES))
        assert _cached_entries(workspace) > 0
        document.add_field(Field("zzBump", workspace.ts.string_type))
        workspace.complete_many(_requests(workspace, context, ["img.?f"]))
        stats = workspace.cache_stats()
        assert stats["invalidations"] >= 1


class TestFineInvalidation:
    def test_unrelated_field_edit_preserves_most_entries(self, warm_paint):
        workspace, context, document = warm_paint
        workspace.complete_many(_requests(workspace, context, QUERIES))
        assert _cached_entries(workspace) > 0

        unrelated = workspace.ts.get("PaintDotNet.HistoryStack")
        unrelated.add_field(Field("zzElsewhere", workspace.ts.string_type))

        workspace.complete_many(_requests(workspace, context, QUERIES))
        stats = workspace.cache_stats()
        assert stats["invalidations_fine"] == 1
        assert stats["invalidations_coarse"] == 0
        preserved = stats["entries_preserved"]
        dropped = stats["entries_dropped"]
        assert preserved / (preserved + dropped) >= 0.8

    def test_unrelated_edit_keeps_streams_warm(self, warm_paint):
        workspace, context, document = warm_paint
        workspace.complete_many(_requests(workspace, context, QUERIES))
        before = workspace.cache_stats()

        unrelated = workspace.ts.get("PaintDotNet.HistoryStack")
        unrelated.add_field(Field("zzWarm", workspace.ts.string_type))

        workspace.complete_many(_requests(workspace, context, QUERIES))
        stats = workspace.cache_stats()
        # the replayed batch hits the preserved entries instead of
        # recomputing them from scratch
        assert stats["hits"] > before["hits"]

    def test_structural_edit_still_clears_coarsely(self, warm_paint):
        from repro.codemodel.types import TypeDef

        workspace, context, document = warm_paint
        workspace.complete_many(_requests(workspace, context, QUERIES))
        workspace.ts.register(TypeDef("zzLate", "PaintDotNet"))
        workspace.complete_many(_requests(workspace, context, ["img.?f"]))
        stats = workspace.cache_stats()
        assert stats["invalidations_coarse"] == 1
        assert stats["invalidations_fine"] == 0

    def test_single_type_edit_preserves_unrelated_root_pools(self, warm_paint):
        workspace, context, document = warm_paint
        # a bare hole populates the global root pool, grouped by
        # declaring type
        workspace.complete_many(_requests(workspace, context, ["?"]))
        before = workspace.cache_stats()
        assert before["root_pool_groups"] > 1

        unrelated = workspace.ts.get("PaintDotNet.HistoryStack")
        unrelated.add_field(Field("zzRoots", workspace.ts.string_type))

        workspace.complete_many(_requests(workspace, context, ["?"]))
        stats = workspace.cache_stats()
        assert stats["invalidations_fine"] == 1
        # the pool itself survived (served warm), only the edited
        # type's group was regenerated
        assert stats["roots_hits"] > before["roots_hits"]
        assert stats["entries_preserved"] >= before["root_pool_groups"] - 1


def _mutation_target(ts, context):
    """The lexicographically first type with members that is neither the
    context's ``this`` type nor a local's type: the "edit somewhere else,
    keep the warm cache" case fine-grained invalidation exists for."""
    excluded = {typedef.full_name for typedef in context.locals.values()}
    if context.this_type is not None:
        excluded.add(context.this_type.full_name)
    candidates = sorted(ts.all_types(), key=lambda t: t.full_name)
    for typedef in candidates:
        if typedef.full_name not in excluded and (
                typedef.methods or typedef.fields):
            return typedef
    return candidates[0]


class TestScalingPreservation:
    def test_single_type_edit_preserves_80_percent_on_scale90(self):
        from repro.corpus import synthesize_project
        from tests.conftest import scaling_spec

        project = synthesize_project(scaling_spec(90))
        ts = project.ts
        engine = CompletionEngine(ts)
        context = project.impls[0].context(ts)
        locals_list = list(context.locals.items())[:2]
        query = "?({{{}}})".format(", ".join(n for n, _ in locals_list))
        engine.complete_query(parse(query, context), context)

        target = _mutation_target(ts, context)
        target.add_field(Field("zzScale", ts.string_type))
        engine.complete_query(parse(query, context), context)

        stats = engine.cache_stats()
        assert stats["invalidations_fine"] == 1
        preserved = stats["entries_preserved"]
        dropped = stats["entries_dropped"]
        assert preserved / (preserved + dropped) >= 0.8


def _member_owners(ts):
    return sorted(
        (t for t in ts.all_types()
         if not t.is_primitive and (t.fields or t.properties or t.methods)),
        key=lambda t: t.full_name)


def _chain_neighbourhood(ts, typedef, steps):
    """Types a chain of at most ``steps`` lookups from ``typedef``
    reaches, with their supertypes, minus ``typedef``'s own supertypes:
    where an edit changes only the longer chains of a ``typedef``
    receiver.  Walked here with the type system's lookups, independently
    of the dependency graph."""
    reached = set(ts.supertype_closure(typedef))
    frontier = list(reached)
    for _ in range(steps):
        step = set()
        for current in frontier:
            step.update(member.type for member in ts.instance_lookups(current))
            step.update(method.return_type
                        for method in ts.zero_arg_instance_methods(current)
                        if method.return_type is not None)
        closed = set()
        for result in step:
            closed |= ts.supertype_closure(result)
        frontier = list(closed - reached)
        reached |= closed
    near = reached - ts.supertype_closure(typedef)
    return sorted((t for t in near if not t.is_primitive),
                  key=lambda t: t.full_name)


#: one drawn edit: (kind, target pick, member-type pick)
TARGETED_EDIT = st.tuples(
    st.integers(0, 4), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))


def _apply_targeted_edit(ts, receiver, edit, serial):
    """Kinds 0-1 edit anywhere (a field; a method taking some type);
    kind 2 adds an instance method to a supertype of ``receiver``'s type
    (the receiver channel of unknown calls); kinds 3-4 add a field to,
    or reorder the members of, a type one or two chain steps from it."""
    kind, pick, type_pick = edit
    owners = _member_owners(ts)
    member_type = owners[type_pick % len(owners)]
    if kind == 0:
        owners[pick % len(owners)].add_field(
            Field("zzF{}".format(serial), member_type))
    elif kind == 1:
        owners[pick % len(owners)].add_method(Method(
            "ZzM{}".format(serial), return_type=ts.string_type,
            params=[Parameter("x", member_type)]))
    elif kind == 2:
        supers = [t for t in ts.supertype_order(receiver)
                  if not t.is_primitive]
        supers[pick % len(supers)].add_method(Method(
            "ZzRecv{}".format(serial), return_type=member_type))
    else:
        near = _chain_neighbourhood(ts, receiver, 2) or owners
        target = near[pick % len(near)]
        if kind == 3:
            target.add_field(Field("zzNear{}".format(serial), member_type))
        else:
            target.set_member_order(
                fields=_rotated(target.fields, type_pick),
                methods=_rotated(target.methods, type_pick))


class TestWarmFineMatchesColdEngine:
    """The PR 6 mutation oracle replayed against the fine-grained cache:
    after deterministic member edits, a warm engine (footprint-preserved
    entries and all) must answer exactly like a cold one, across every
    builtin universe and three seeds — and, with drawn receivers and
    edits aimed at what chains and unknown calls read, after every edit
    of a Hypothesis-drawn sequence."""

    SOURCES = ["a.?f", "a.?*m", "b.?m", "?({a, b})"]

    @pytest.mark.parametrize("universe", sorted(Workspace.BUILTIN))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_warm_equals_cold_after_mutations(self, universe, seed):
        workspace = Workspace.builtin(universe)
        ts = workspace.ts
        rng = random.Random(seed)
        types = [
            t for t in ts.all_types()
            if not t.is_primitive
            and (t.fields or t.properties or t.methods)
        ]
        first, second = rng.sample(types, 2)
        context = workspace.context(locals={"a": first, "b": second})
        requests = _requests(workspace, context, self.SOURCES)
        workspace.complete_many(requests)

        for index in range(3):
            target = rng.choice(types)
            kind = rng.randrange(3)
            if kind == 0:
                target.add_field(
                    Field("zzF{}_{}".format(seed, index), ts.string_type))
            elif kind == 1:
                target.add_method(Method(
                    "zzM{}_{}".format(seed, index),
                    return_type=ts.string_type,
                    params=[Parameter("x", rng.choice(types))]))
            elif target.methods:
                target.set_member_order(
                    methods=list(reversed(target.methods)))

        warm_outcomes = workspace.complete_many(
            _requests(workspace, context, self.SOURCES))
        _check_against_cold(ts, context, self.SOURCES, warm_outcomes)


    #: nested and paired chains (bounded chain reads) and a one-argument
    #: unknown call (the receiver channel) besides the seeded sources
    DRAWN_SOURCES = SOURCES + [
        "?({a})", "a.?m.?m", "a.?f.?f", "a.?m < b.?m"]

    @pytest.mark.parametrize("universe", sorted(Workspace.BUILTIN))
    @settings(max_examples=20, deadline=None)
    @given(picks=st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
           edits=st.lists(TARGETED_EDIT, min_size=1, max_size=4))
    def test_warm_equals_cold_after_drawn_edits(self, universe, picks, edits):
        ts = _pristine(universe)
        workspace = Workspace(ts, name=universe)
        types = _member_owners(ts)
        first = types[picks[0] % len(types)]
        second = types[picks[1] % len(types)]
        context = workspace.context(locals={"a": first, "b": second})
        engine = workspace.engine
        sources = self.DRAWN_SOURCES
        for source in sources:
            engine.complete_query(parse(source, context), context, n=30)
        for serial, edit in enumerate(edits):
            _apply_targeted_edit(ts, first, edit, serial)
            warm = [engine.complete_query(parse(source, context), context,
                                          n=30)
                    for source in sources]
            _check_against_cold(ts, context, sources, warm, n=30)


class TestReceiverChannel:
    """An instance method added to a supertype of an unknown-call
    argument's type takes that argument as its receiver: the edit must
    drop the warm ``?({x})`` entry, though the entry never read the
    edited type's members."""

    @pytest.mark.parametrize("universe, local, supertype", [
        ("bcl", "System.ArgumentException", "System.Exception"),
        ("paint", "PaintDotNet.BitmapLayer", "PaintDotNet.Layer"),
        ("geometry", "DynamicGeometry.ArcShape", "DynamicGeometry.Shape"),
    ])
    def test_method_on_a_supertype_reaches_the_warm_answer(
            self, universe, local, supertype):
        workspace = Workspace.builtin(universe)
        ts = workspace.ts
        context = workspace.context(locals={"x": ts.get(local)})
        sources = ["?({x})"]
        workspace.complete_many(_requests(workspace, context, sources))
        ts.get(supertype).add_method(
            Method("ZzNewRecv", return_type=ts.string_type))
        [warm] = workspace.complete_many(
            _requests(workspace, context, sources))
        assert not warm.cached
        assert "x.ZzNewRecv()" in [
            to_source(completion.expr) for completion in warm.completions]
        _check_against_cold(ts, context, sources, [warm])


class TestSetMemberOrder:
    def _two_field_type(self):
        from repro.codemodel.types import TypeDef
        from repro.codemodel.typesystem import TypeSystem

        ts = TypeSystem()
        typedef = ts.register(TypeDef("Bag", "Demo"))
        typedef.add_field(Field("first", ts.string_type))
        typedef.add_field(Field("second", ts.string_type))
        return ts, typedef

    def test_rejects_non_permutations(self):
        ts, typedef = self._two_field_type()
        with pytest.raises(ValueError, match="not a permutation"):
            typedef.set_member_order(fields=typedef.fields[1:])
        with pytest.raises(ValueError, match="not a permutation"):
            typedef.set_member_order(fields=[typedef.fields[0]] * 2)

    def test_reorder_bumps_version(self):
        ts, typedef = self._two_field_type()
        version = ts.version
        typedef.set_member_order(fields=list(reversed(typedef.fields)))
        assert ts.version > version
        assert [f.name for f in typedef.fields] == ["second", "first"]
