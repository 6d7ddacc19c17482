"""Whole-universe dependency analysis: graph, footprints, impact, RA1xx.

Covers the two static edge families of :class:`DependencyGraph`
(supertype, member-signature), the bounded chain reads of suffix-hole
seeds, the three-way footprint split of :func:`footprint_seeds` (direct
reads / chain seeds / accepting), the parameter-carrying mutation log
behind the accepting drop test, the ``impact`` reverse query, and the
RA101-RA104 lints.
"""

from __future__ import annotations

import pytest

from repro.analysis.deps import (
    DependencyGraph,
    QueryFootprint,
    expand_mutations,
    footprint_seeds,
    lint_dependencies,
    method_param_types,
)
from repro.codemodel import Field, LibraryBuilder, Method, Parameter
from repro.codemodel.types import TypeDef
from repro.codemodel.typesystem import TypeSystem
from repro.ide.workspace import Workspace
from repro.lang.ast import Unfilled
from repro.lang.parser import parse
from repro.lang.partial import Hole, KnownCall, UnknownCall


@pytest.fixture
def world():
    """A small universe with a member-signature chain
    (Doc -> LayerList -> Layer -> string), a subtype (SpecialDoc <: Doc),
    and an unrelated island (Unrelated)."""
    ts = TypeSystem()
    lib = LibraryBuilder(ts)
    size = lib.cls("N.Size")
    lib.field(size, "width", ts.primitive("int"))
    layer = lib.cls("N.Layer")
    lib.field(layer, "name", ts.string_type)
    layers = lib.cls("N.LayerList")
    lib.method(layers, "Add", params=[("item", layer)])
    doc = lib.cls("N.Doc")
    lib.field(doc, "layers", layers)
    lib.method(doc, "Resize", params=[("size", size)])
    special = lib.cls("N.SpecialDoc", base=doc)
    unrelated = lib.cls("N.Unrelated")
    lib.field(unrelated, "tag", ts.string_type)
    return ts, {
        "size": size, "layer": layer, "layers": layers,
        "doc": doc, "special": special, "unrelated": unrelated,
    }


def names(typedefs):
    return {t.full_name for t in typedefs}


class TestGraphEdges:
    def test_member_signature_edges(self, world):
        ts, t = world
        graph = DependencyGraph(ts)
        assert {"N.LayerList", "N.Size"} <= graph.forward("N.Doc")
        assert "N.LayerList" in graph.reverse("N.Layer")

    def test_supertype_edges(self, world):
        ts, t = world
        graph = DependencyGraph(ts)
        assert "N.Doc" in graph.forward("N.SpecialDoc")

    def test_reverse_closure_finds_dependents(self, world):
        ts, t = world
        graph = DependencyGraph(ts)
        dependents = graph.reverse_closure("N.Layer")
        assert {"N.Layer", "N.LayerList", "N.Doc", "N.SpecialDoc"} <= dependents
        assert "N.Unrelated" not in dependents

    def test_footprint_is_union_of_closures(self, world):
        ts, t = world
        graph = DependencyGraph(ts)
        assert graph.footprint([("N.Doc", 3)]) == graph.chain_reads("N.Doc", 3)
        both = graph.footprint([("N.Doc", 2), ("N.Unrelated", 1)])
        assert both == (graph.chain_reads("N.Doc", 2)
                        | graph.chain_reads("N.Unrelated", 1))

    def test_stats(self, world):
        ts, t = world
        graph = DependencyGraph(ts)
        stats = graph.stats()
        assert stats["types"] == float(len(ts.all_types()))
        assert stats["edges"] > 0
        assert stats["built_version"] == float(ts.version)


class TestChainReads:
    """A chain of ``s`` lookups reads the seed's supertype closure and
    ``s - 1`` rounds of member result types, each closed over
    supertypes: never parameter types, never deeper rounds."""

    def test_one_step_reads_the_supertype_closure(self, world):
        ts, t = world
        graph = DependencyGraph(ts)
        assert graph.chain_reads("N.SpecialDoc", 1) == frozenset(
            {"N.SpecialDoc", "N.Doc", "System.Object"})

    def test_each_step_adds_one_round_of_result_types(self, world):
        ts, t = world
        lib = LibraryBuilder(ts)
        lib.method(t["layers"], "First", returns=t["layer"])
        graph = DependencyGraph(ts)
        two = graph.chain_reads("N.Doc", 2)
        assert two == {"N.Doc", "System.Object", "N.LayerList"}
        three = graph.chain_reads("N.Doc", 3)
        assert three == two | {"N.Layer"}
        # String is a third-round type; Resize(Size) is no chain step,
        # though it is a forward dependency
        assert graph.chain_reads("N.Doc", 9) == three | {"System.String"}
        assert "N.Size" in graph.forward("N.Doc")

    def test_inherited_members_step_from_the_subtype(self, world):
        ts, t = world
        graph = DependencyGraph(ts)
        assert "N.LayerList" in graph.chain_reads("N.SpecialDoc", 2)

    def test_static_and_parameterised_members_are_not_steps(self, world):
        ts, t = world
        lib = LibraryBuilder(ts)
        lib.field(t["unrelated"], "Shared", t["size"], static=True)
        lib.method(t["unrelated"], "Make", returns=t["layer"],
                   params=[("seed", ts.primitive("int"))])
        graph = DependencyGraph(ts)
        assert graph.chain_reads("N.Unrelated", 2) == {
            "N.Unrelated", "System.Object", "System.String"}

    def test_reads_are_memoised_per_round_count(self, world):
        ts, t = world
        graph = DependencyGraph(ts)
        assert graph.chain_reads("N.Doc", 2) is graph.chain_reads("N.Doc", 2)
        assert graph.chain_reads("N.Doc", 0) == frozenset()


class TestMethodParamTypes:
    def test_collects_current_method_params(self, world):
        ts, t = world
        # receivers count: an instance method's first argument is its
        # declaring type
        assert method_param_types(ts, ["N.Doc"]) == frozenset(
            {"N.Size", "N.Doc"})
        assert method_param_types(ts, ["N.LayerList"]) == frozenset(
            {"N.Layer", "N.LayerList"})
        assert method_param_types(ts, ["N.Layer"]) == frozenset()

    def test_unknown_names_are_skipped(self, world):
        ts, t = world
        assert method_param_types(ts, ["N.NoSuch"]) == frozenset()

    def test_expand_mutations_widens_with_params(self, world):
        ts, t = world
        assert expand_mutations(ts, ["N.Doc"]) == frozenset({"N.Doc", "N.Size"})


class TestDependentsOf:
    def test_reverse_closure_half(self, world):
        ts, t = world
        graph = DependencyGraph(ts)
        dependents = graph.dependents_of(["N.Layer"])
        assert {"N.LayerList", "N.Doc", "N.SpecialDoc"} <= dependents

    def test_accepting_half_subtypes_of_param_types(self, world):
        ts, t = world
        # a method taking Object makes every type a potential dependent:
        # any unknown-call argument converts to Object
        lib = LibraryBuilder(ts)
        lib.method(t["unrelated"], "Take", params=[("o", ts.object_type)])
        graph = DependencyGraph(ts)
        dependents = graph.dependents_of(["N.Unrelated"])
        # every class converts to Object (primitives do not)
        assert {"N.Doc", "N.Layer", "N.Size", "N.SpecialDoc"} <= dependents

    def test_island_without_methods_stays_local(self, world):
        ts, t = world
        graph = DependencyGraph(ts)
        dependents = graph.dependents_of(["N.Unrelated"])
        assert "N.Doc" not in dependents


class TestFootprintSeeds:
    @pytest.fixture
    def ctx(self, world):
        ts, t = world
        workspace = Workspace(ts)
        return t, workspace.context(locals={"d": t["doc"]})

    def test_var_is_a_direct_read_not_a_chain(self, ctx):
        t, context = ctx
        reads, chains, accepting = footprint_seeds(
            parse("?({d})", context), 3)
        assert "N.Doc" in reads
        assert chains == frozenset()
        assert accepting == frozenset({"N.Doc"})

    def test_suffix_hole_seeds_a_chain(self, ctx):
        t, context = ctx
        reads, chains, accepting = footprint_seeds(parse("d.?*m", context), 3)
        assert chains == frozenset({("N.Doc", 3)})
        assert accepting == frozenset()

    def test_nested_suffix_holes_sum_their_steps(self, ctx):
        t, context = ctx
        for source, star_steps, seed in (
                ("d.?m.?m", 3, ("N.Doc", 2)),
                ("d.?f.?f.?m", 3, ("N.Doc", 3)),
                ("d.?*m.?f", 4, ("N.Doc", 5)),
                ("d.layers.?m.?*f", 2, ("N.LayerList", 3))):
            reads, chains, accepting = footprint_seeds(
                parse(source, context), star_steps)
            assert chains == frozenset({seed}), source
            assert "N.Doc" in reads

    def test_engine_footprint_of_a_nested_chain_is_bounded(self):
        workspace = Workspace.builtin("paint")
        document = workspace.resolve_type("Document")
        context = workspace.context(locals={"img": document})
        engine = workspace.engine
        graph = engine.dependency_graph()
        footprint = engine._footprint(parse("img.?m.?m", context))
        assert footprint is not None
        assert footprint.reads == graph.chain_reads(document.full_name, 2)
        assert footprint.reads < graph.chain_reads(document.full_name, 9)

    def test_field_access_receiver_chains_from_member_type(self, ctx):
        t, context = ctx
        reads, chains, accepting = footprint_seeds(
            parse("d.layers.?m", context), 3)
        assert chains == frozenset({("N.LayerList", 1)})
        assert "N.Doc" in reads

    def test_bare_hole_is_universe_wide(self, ctx):
        t, context = ctx
        assert footprint_seeds(parse("?", context), 3) is None
        assert footprint_seeds(Hole(), 3) is None
        assert footprint_seeds(parse("?.?m", context), 3) is None

    def test_all_wildcard_unknown_call_is_universe_wide(self):
        assert footprint_seeds(UnknownCall((Unfilled(),)), 3) is None

    def test_known_call_has_no_accepting_sensitivity(self, world):
        ts, t = world
        resize = t["doc"].methods[0]
        pe = KnownCall((resize,), (Unfilled(),))
        reads, chains, accepting = footprint_seeds(pe, 3)
        assert {"N.Doc", "N.Size"} <= reads
        assert accepting == frozenset()


class TestQueryFootprint:
    def test_reads_intersection_drops(self):
        fp = QueryFootprint(reads=frozenset({"A", "B"}))
        assert fp.affected_by(frozenset({"B"}), frozenset())
        assert not fp.affected_by(frozenset({"C"}), frozenset())

    def test_accepting_matches_method_params_not_raw_names(self):
        fp = QueryFootprint(
            reads=frozenset({"A"}), accepting=frozenset({"P"}))
        # the mutated type is never named, but its new method takes P
        assert fp.affected_by(frozenset({"Z"}), frozenset({"P"}))
        assert not fp.affected_by(frozenset({"Z"}), frozenset({"Q"}))


class TestMethodAwareMutationLog:
    def test_field_edit_is_not_a_method_mutation(self, world):
        ts, t = world
        version = ts.version
        t["doc"].add_field(Field("zz", ts.string_type))
        assert ts.mutations_since(version) == frozenset({"N.Doc"})
        assert ts.method_mutations_since(version) == frozenset()
        assert ts.method_params_since(version) == frozenset()

    def test_add_method_is_a_method_mutation(self, world):
        ts, t = world
        version = ts.version
        t["doc"].add_method(Method("zzM", return_type=ts.string_type))
        assert ts.method_mutations_since(version) == frozenset({"N.Doc"})

    def test_add_method_carries_its_params_and_receiver(self, world):
        ts, t = world
        version = ts.version
        t["layer"].add_method(Method(
            "zzM", return_type=ts.string_type,
            params=[Parameter("s", t["size"])]))
        # only the new method's parameters: not Doc's Resize(Size) nor
        # anything else already declared
        assert ts.method_params_since(version) == frozenset(
            {"N.Layer", "N.Size"})
        static = Method("zzS", return_type=None, is_static=True,
                        params=[Parameter("u", t["unrelated"])])
        t["doc"].add_method(static)
        assert ts.method_params_since(version) == frozenset(
            {"N.Layer", "N.Size", "N.Unrelated"})

    def test_method_reorder_is_a_method_mutation(self, world):
        ts, t = world
        lib = LibraryBuilder(ts)
        lib.method(t["doc"], "Second")
        version = ts.version
        t["doc"].set_member_order(methods=list(reversed(t["doc"].methods)))
        assert ts.method_mutations_since(version) == frozenset({"N.Doc"})
        # a reorder re-ranks every method of the type
        assert ts.method_params_since(version) == frozenset(
            {"N.Doc", "N.Size"})

    def test_field_reorder_is_not_a_method_mutation(self, world):
        ts, t = world
        lib = LibraryBuilder(ts)
        lib.field(t["doc"], "zzOther", ts.string_type)
        version = ts.version
        t["doc"].set_member_order(fields=list(reversed(t["doc"].fields)))
        assert ts.mutations_since(version) == frozenset({"N.Doc"})
        assert ts.method_mutations_since(version) == frozenset()
        assert ts.method_params_since(version) == frozenset()

    def test_structural_edit_answers_none(self, world):
        ts, t = world
        version = ts.version
        ts.register(TypeDef("Late", "N"))
        assert ts.mutations_since(version) is None
        assert ts.method_mutations_since(version) is None
        assert ts.method_params_since(version) is None

    def test_truncated_log_answers_none(self, world):
        ts, t = world
        version = ts.version
        for index in range(TypeSystem.MUTATION_LOG_LIMIT + 1):
            t["doc"].add_field(Field("zz{}".format(index), ts.string_type))
        assert ts.mutations_since(version) is None
        assert ts.method_mutations_since(version) is None


class TestImpact:
    def test_affected_types_cover_reverse_closure(self, world):
        ts, t = world
        graph = DependencyGraph(ts)
        report = graph.impact(["N.Layer"])
        assert report.seeds == ("N.Layer",)
        assert report.unknown == ()
        assert {"N.Doc", "N.LayerList"} <= set(report.affected_types)
        assert report.universe_size == len(ts.all_types())
        assert 0.0 < report.fraction <= 1.0

    def test_unknown_names_are_reported_not_resolved(self, world):
        ts, t = world
        graph = DependencyGraph(ts)
        report = graph.impact(["N.NoSuch"])
        assert report.unknown == ("N.NoSuch",)
        assert report.affected_types == ()

    def test_live_cache_counts_use_the_drop_test(self, world):
        ts, t = world
        graph = DependencyGraph(ts)

        class FakeCache:
            def entry_footprints(self):
                return [
                    None,  # footprint-less: always dropped
                    QueryFootprint(reads=frozenset({"N.Doc"})),
                    QueryFootprint(reads=frozenset({"N.Unrelated"})),
                    QueryFootprint(
                        reads=frozenset(),
                        accepting=frozenset({"N.Size"})),
                ]

        report = graph.impact(["N.Doc"], cache=FakeCache())
        assert report.cache_entries == 4
        # dropped: the None entry, the N.Doc reader, and the accepting
        # entry (Doc's Resize takes N.Size); preserved: N.Unrelated
        assert report.cache_invalidated == 3

    def test_render_and_to_dict(self, world):
        ts, t = world
        graph = DependencyGraph(ts)
        report = graph.impact(["N.Layer", "N.NoSuch"])
        data = report.to_dict()
        assert data["seeds"] == ["N.Layer"]
        assert data["unknown"] == ["N.NoSuch"]
        assert "cache_entries" not in data
        lines = report.render()
        assert any("impact of N.Layer" in line for line in lines)
        assert any("unknown type: N.NoSuch" in line for line in lines)

    def test_workspace_impact_resolves_simple_names(self):
        workspace = Workspace.builtin("paint")
        full_name = workspace.resolve_type("Document").full_name
        report = workspace.impact([full_name])
        assert full_name in report.seeds
        assert report.fraction < 1.0


def lint_codes(diagnostics):
    return [d.code for d in diagnostics]


class TestLintGodTypes:
    def test_hub_type_is_flagged(self):
        ts = TypeSystem()
        lib = LibraryBuilder(ts)
        core = lib.cls("G.Core")
        lib.field(core, "marker", ts.primitive("int"))
        for index in range(10):
            client = lib.cls("G.Client{}".format(index))
            lib.field(client, "core", core)
        diagnostics = lint_dependencies(ts)
        flagged = [d for d in diagnostics if d.code == "RA101"]
        assert any(d.location == "G.Core" for d in flagged)

    def test_builtin_universes_are_mostly_quiet(self):
        workspace = Workspace.builtin("paint")
        diagnostics = lint_dependencies(workspace.ts)
        assert len([d for d in diagnostics if d.code == "RA101"]) <= 3


class TestLintCycles:
    def test_mutual_member_coupling_is_flagged(self, world):
        ts, t = world
        lib = LibraryBuilder(ts)
        a = lib.cls("N.CycleA")
        b = lib.cls("N.CycleB")
        lib.field(a, "other", b)
        lib.field(b, "other", a)
        diagnostics = lint_dependencies(ts)
        [cycle] = [d for d in diagnostics if d.code == "RA102"]
        assert "N.CycleA" in cycle.message and "N.CycleB" in cycle.message

    def test_subtype_related_edges_are_exempt(self, world):
        ts, t = world
        # Doc already references its subtype's chain; add the classic
        # parent-holds-child shape, which subtyping exempts
        lib = LibraryBuilder(ts)
        lib.field(t["doc"], "favourite", t["special"])
        diagnostics = lint_dependencies(ts)
        assert "RA102" not in lint_codes(diagnostics)


class TestLintBlastRadius:
    def test_dominant_reads_footprint_is_flagged(self, world):
        ts, t = world

        class FakeCache:
            def entry_footprints(self):
                return [
                    QueryFootprint(reads=frozenset({"N.Doc"}))
                    for _ in range(8)
                ]

        diagnostics = lint_dependencies(ts, cache=FakeCache())
        flagged = [d for d in diagnostics if d.code == "RA103"]
        assert any(d.location == "N.Doc" for d in flagged)

    def test_accepting_entries_count_against_param_owners(self, world):
        ts, t = world

        class FakeCache:
            def entry_footprints(self):
                # all entries accept through N.Size — editing N.Doc
                # (whose Resize takes N.Size) would gut the cache
                return [
                    QueryFootprint(
                        reads=frozenset(), accepting=frozenset({"N.Size"}))
                    for _ in range(8)
                ]

        diagnostics = lint_dependencies(ts, cache=FakeCache())
        flagged = [d for d in diagnostics if d.code == "RA103"]
        assert any(d.location == "N.Doc" for d in flagged)

    def test_small_caches_are_ignored(self, world):
        ts, t = world

        class FakeCache:
            def entry_footprints(self):
                return [QueryFootprint(reads=frozenset({"N.Doc"}))]

        diagnostics = lint_dependencies(ts, cache=FakeCache())
        assert "RA103" not in lint_codes(diagnostics)


class TestLintFingerprintDrift:
    def test_bypassing_invalidate_is_reported_once(self, world):
        ts, t = world
        ts.fingerprint()  # stamp the baseline digest at this version
        t["doc"].fields.append(Field("zzSneaky", ts.string_type))
        diagnostics = lint_dependencies(ts)
        [drift] = [d for d in diagnostics if d.code == "RA104"]
        assert "drifted" in drift.message
        # the check re-stamps, so the same drift is not re-reported
        assert "RA104" not in lint_codes(lint_dependencies(ts))

    def test_proper_mutations_do_not_drift(self, world):
        ts, t = world
        ts.fingerprint()
        t["doc"].add_field(Field("zzProper", ts.string_type))
        assert "RA104" not in lint_codes(lint_dependencies(ts))
