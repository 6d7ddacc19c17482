"""Unit tests for the type system: registration, subtyping, type distance."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro import TypeDef, TypeKind, TypeSystem
from repro.codemodel import Field, LibraryBuilder, Method, Parameter
from repro.engine.index import ReachabilityIndex
from repro.serialize import dump_type_system, load_type_system

from .test_incremental import _pristine


@pytest.fixture
def ts():
    return TypeSystem()


@pytest.fixture
def hierarchy(ts):
    """Object <- Shape <- Rectangle; IDrawable implemented by Shape."""
    lib = LibraryBuilder(ts)
    drawable = lib.iface("Geo.IDrawable")
    shape = lib.cls("Geo.Shape", interfaces=[drawable])
    rectangle = lib.cls("Geo.Rectangle", base=shape)
    return drawable, shape, rectangle


class TestRegistry:
    def test_core_types_installed(self, ts):
        assert ts.object_type.full_name == "System.Object"
        assert ts.string_type.full_name == "System.String"
        assert ts.primitive("int").name == "int"

    def test_register_and_get(self, ts):
        t = ts.register(TypeDef("Foo", "My.Ns"))
        assert ts.get("My.Ns.Foo") is t
        assert ts.try_get("My.Ns.Foo") is t
        assert ts.try_get("My.Ns.Bar") is None

    def test_duplicate_registration_rejected(self, ts):
        ts.register(TypeDef("Foo", "My.Ns"))
        with pytest.raises(ValueError):
            ts.register(TypeDef("Foo", "My.Ns"))

    def test_all_methods_iterates_declared_methods(self, ts):
        t = ts.register(TypeDef("Foo", "N"))
        t.add_method(Method("M", None))
        assert any(m.name == "M" for m in ts.all_methods())


class TestSubtyping:
    def test_identity(self, ts):
        assert ts.implicitly_converts(ts.string_type, ts.string_type)

    def test_everything_converts_to_object(self, ts, hierarchy):
        drawable, shape, rectangle = hierarchy
        for t in (drawable, shape, rectangle, ts.string_type):
            assert ts.implicitly_converts(t, ts.object_type)

    def test_subclass_chain(self, ts, hierarchy):
        _drawable, shape, rectangle = hierarchy
        assert ts.implicitly_converts(rectangle, shape)
        assert not ts.implicitly_converts(shape, rectangle)

    def test_interface_implementation(self, ts, hierarchy):
        drawable, shape, rectangle = hierarchy
        assert ts.implicitly_converts(shape, drawable)
        assert ts.implicitly_converts(rectangle, drawable)
        assert not ts.implicitly_converts(drawable, shape)

    def test_primitive_widening(self, ts):
        assert ts.implicitly_converts(ts.primitive("int"), ts.primitive("long"))
        assert ts.implicitly_converts(ts.primitive("int"), ts.primitive("double"))
        assert not ts.implicitly_converts(
            ts.primitive("long"), ts.primitive("int")
        )
        assert not ts.implicitly_converts(
            ts.primitive("double"), ts.primitive("float")
        )

    def test_bool_is_isolated(self, ts):
        assert not ts.implicitly_converts(ts.primitive("bool"), ts.primitive("int"))
        assert not ts.implicitly_converts(ts.primitive("int"), ts.primitive("bool"))


class TestTypeDistance:
    def test_zero_iff_same(self, ts, hierarchy):
        _d, shape, rectangle = hierarchy
        assert ts.type_distance(shape, shape) == 0
        assert ts.type_distance(rectangle, rectangle) == 0
        assert ts.type_distance(rectangle, shape) != 0

    def test_paper_example(self, ts, hierarchy):
        """td(Rectangle, Shape) = 1 and td(Rectangle, Object) = 2."""
        _d, shape, rectangle = hierarchy
        assert ts.type_distance(rectangle, shape) == 1
        assert ts.type_distance(rectangle, ts.object_type) == 2

    def test_undefined_when_no_conversion(self, ts, hierarchy):
        _d, shape, rectangle = hierarchy
        assert ts.type_distance(shape, rectangle) is None
        assert ts.type_distance(ts.string_type, shape) is None

    def test_primitive_distance_is_widening_path(self, ts):
        assert ts.type_distance(ts.primitive("int"), ts.primitive("long")) == 1
        assert ts.type_distance(ts.primitive("int"), ts.primitive("double")) == 2
        assert ts.type_distance(ts.primitive("byte"), ts.primitive("int")) == 2

    def test_interface_distance(self, ts, hierarchy):
        drawable, shape, rectangle = hierarchy
        assert ts.type_distance(shape, drawable) == 1
        assert ts.type_distance(rectangle, drawable) == 2

    @given(st.sampled_from(["byte", "char", "short", "int", "long",
                            "float", "double", "decimal", "bool"]))
    def test_distance_reflexive_for_primitives(self, name):
        ts = TypeSystem()
        t = ts.primitive(name)
        assert ts.type_distance(t, t) == 0

    def test_triangle_inequality_along_chain(self, ts, hierarchy):
        """td is a shortest path, so going through an intermediate type is
        never shorter than the direct distance."""
        _d, shape, rectangle = hierarchy
        direct = ts.type_distance(rectangle, ts.object_type)
        via = ts.type_distance(rectangle, shape) + ts.type_distance(
            shape, ts.object_type
        )
        assert direct <= via


class TestJoinAndComparability:
    def test_join_of_related(self, ts, hierarchy):
        _d, shape, rectangle = hierarchy
        assert ts.join(rectangle, shape) is shape
        assert ts.join(shape, rectangle) is shape

    def test_join_of_siblings_is_common_base(self, ts, hierarchy):
        _d, shape, _rect = hierarchy
        lib = LibraryBuilder(ts)
        circle = lib.cls("Geo.Circle", base=shape)
        square = lib.cls("Geo.Square", base=shape)
        assert ts.join(circle, square) is shape

    def test_numeric_primitives_comparable(self, ts):
        assert ts.comparable(ts.primitive("int"), ts.primitive("double"))
        assert ts.comparable(ts.primitive("long"), ts.primitive("int"))

    def test_bool_not_comparable(self, ts):
        assert not ts.comparable(ts.primitive("bool"), ts.primitive("bool"))

    def test_reference_types_need_flag(self, ts, hierarchy):
        _d, shape, rectangle = hierarchy
        assert not ts.comparable(shape, rectangle)

    def test_comparable_flagged_types(self, ts):
        lib = LibraryBuilder(ts)
        datetime = lib.struct("Sys.DateTime", comparable=True)
        timespan = lib.struct("Sys.TimeSpan", comparable=True)
        assert ts.comparable(datetime, datetime)
        # unrelated comparable types still do not compare with each other
        assert not ts.comparable(datetime, timespan)

    def test_comparison_distance(self, ts):
        int_t, double_t = ts.primitive("int"), ts.primitive("double")
        assert ts.comparison_distance(int_t, int_t) == 0
        assert ts.comparison_distance(int_t, double_t) == 2
        assert ts.comparison_distance(ts.primitive("bool"), int_t) is None


class TestPathologicalHierarchies:
    def test_inheritance_cycle_does_not_hang(self, ts):
        """A (malformed) base-class cycle must not loop the BFS walks."""
        a = ts.register(TypeDef("A", "Cyc"))
        b = ts.register(TypeDef("B", "Cyc", base=a))
        a.base = b  # deliberately corrupt
        ts._invalidate_caches()
        assert ts.type_distance(a, ts.string_type) is None
        assert ts.supertype_closure(a)  # terminates
        assert ts.implicitly_converts(a, b)

    def test_self_interface_terminates(self, ts):
        iface = ts.register(TypeDef("ISelf", "Cyc2", kind=TypeKind.INTERFACE))
        iface.interfaces = (iface,)
        ts._invalidate_caches()
        assert iface in ts.supertype_closure(iface)

    def test_deep_chain(self, ts):
        previous = None
        for index in range(60):
            previous = ts.register(
                TypeDef("D{}".format(index), "Deep", base=previous)
            )
        root = ts.get("Deep.D0")
        assert ts.type_distance(previous, root) == 59


class TestMemberLookup:
    def test_inherited_lookups(self, ts, hierarchy):
        _d, shape, rectangle = hierarchy
        shape.add_field(Field("Origin", ts.string_type))
        rectangle.add_field(Field("Corner", ts.string_type))
        names = [f.name for f in ts.instance_lookups(rectangle)]
        assert "Corner" in names and "Origin" in names

    def test_shadowing_prefers_derived(self, ts, hierarchy):
        _d, shape, rectangle = hierarchy
        shape.add_field(Field("X", ts.primitive("int")))
        rectangle.add_field(Field("X", ts.primitive("double")))
        fields = [f for f in ts.instance_lookups(rectangle) if f.name == "X"]
        assert len(fields) == 1
        assert fields[0].declaring_type is rectangle

    def test_instance_methods_inherited(self, ts, hierarchy):
        _d, shape, rectangle = hierarchy
        shape.add_method(Method("Draw", None))
        names = [m.name for m in ts.instance_methods(rectangle)]
        assert "Draw" in names

    def test_zero_arg_instance_methods(self, ts, hierarchy):
        from repro.codemodel import Parameter

        _d, shape, rectangle = hierarchy
        shape.add_method(Method("Area", ts.primitive("double")))
        shape.add_method(
            Method("Scale", None, params=(Parameter("f", ts.primitive("double")),))
        )
        names = [m.name for m in ts.zero_arg_instance_methods(rectangle)]
        assert "Area" in names
        assert "Scale" not in names

    def test_static_members_split(self, ts):
        lib = LibraryBuilder(ts)
        helper = lib.cls("N.Helper")
        lib.field(helper, "Default", ts.string_type, static=True)
        lib.static_method(helper, "Make", returns=ts.string_type)
        lib.method(helper, "Use")
        fields, methods = ts.static_members(helper)
        assert [f.name for f in fields] == ["Default"]
        assert [m.name for m in methods] == ["Make"]


class TestCacheInvalidation:
    """Mutating the model after queries must never serve stale answers."""

    def test_method_added_after_query_is_visible(self, ts):
        t = ts.register(TypeDef("Late", "N"))
        assert [m.name for m in ts.instance_methods(t)] == []
        t.add_method(Method("M", None))
        assert [m.name for m in ts.instance_methods(t)] == ["M"]

    def test_rebasing_updates_distance_and_supertypes(self, ts):
        a = ts.register(TypeDef("A", "N"))
        b = ts.register(TypeDef("B", "N"))
        assert ts.type_distance(a, b) is None
        a.base = b
        assert ts.type_distance(a, b) == 1
        assert b in ts.immediate_supertypes(a)
        assert ts.implicitly_converts(a, b)

    def test_interface_added_after_query_is_visible(self, ts):
        lib = LibraryBuilder(ts)
        iface = lib.iface("N.ICover")
        t = lib.cls("N.Thing")
        assert not ts.implicitly_converts(t, iface)
        t.interfaces = (iface,)
        assert ts.implicitly_converts(t, iface)

    def test_version_counts_mutations(self, ts):
        before = ts.version
        t = ts.register(TypeDef("C", "N"))
        assert ts.version > before
        mid = ts.version
        t.add_field(Field("F", ts.string_type))
        assert ts.version > mid

    def test_registration_after_query_is_visible(self, ts):
        lib = LibraryBuilder(ts)
        base = lib.cls("N.Base")
        assert ts.type_distance(base, ts.object_type) == 1
        derived = lib.cls("N.Derived", base=base)
        assert ts.type_distance(derived, base) == 1

    def test_method_index_refreshes_after_mutation(self, ts):
        from repro.codemodel import Parameter
        from repro.engine.index import MethodIndex

        lib = LibraryBuilder(ts)
        box = lib.cls("N.Box")
        index = MethodIndex(ts)
        assert index.methods_with_exact_param(box) == []
        user = lib.cls("N.User")
        user.add_method(
            Method("Put", None, params=(Parameter("b", box),))
        )
        assert [m.name for m in index.methods_with_exact_param(box)] == ["Put"]
        assert any(m.name == "Put" for m in index.candidate_methods([box]))

    def test_reachability_index_refreshes_after_mutation(self, ts):
        from repro.engine.index import ReachabilityIndex

        lib = LibraryBuilder(ts)
        start = lib.cls("N.Start")
        goal = lib.cls("N.Goal")
        index = ReachabilityIndex(ts)
        assert not index.can_reach(start, goal, within=2, allow_methods=True)
        start.add_field(Field("Next", goal))
        assert index.can_reach(start, goal, within=2, allow_methods=True)
        assert index.steps_to_target(start, goal, allow_methods=True) == 1

    def test_member_edits_keep_distance_memos_and_their_answers(self):
        from repro.codemodel import Parameter
        from repro.ide.workspace import Workspace
        from repro.serialize import dump_type_system, load_type_system

        ts = Workspace.builtin("paint").ts
        types = sorted(ts.all_types(), key=lambda t: t.full_name)
        for source in types:
            for target in types:
                ts.type_distance(source, target)
            ts.immediate_supertypes(source)
        memoised = len(ts._distance_maps)
        document = ts.get("PaintDotNet.Document")
        document.add_field(Field("zzF", ts.string_type))
        document.add_method(Method(
            "ZzM", ts.object_type,
            params=(Parameter("x", ts.get("PaintDotNet.Layer")),)))
        document.set_member_order(methods=list(reversed(document.methods)))
        # only base, interfaces and kind feed distances: member edits
        # keep the memos, and the memos still give a fresh universe's
        # answers
        assert len(ts._distance_maps) == memoised
        fresh = load_type_system(dump_type_system(ts))
        for source in types:
            for target in types:
                assert ts.type_distance(source, target) == \
                    fresh.type_distance(fresh.get(source.full_name),
                                        fresh.get(target.full_name))
            assert [t.full_name for t in ts.immediate_supertypes(source)] \
                == [t.full_name for t in fresh.immediate_supertypes(
                    fresh.get(source.full_name))]


def _expected_full_name(typedef):
    if typedef.namespace:
        return "{}.{}".format(typedef.namespace, typedef.name)
    return typedef.name


class TestTypeIdentity:
    """``name`` and ``namespace`` are fixed at construction, so the
    stored ``full_name`` can never go stale."""

    def test_name_and_namespace_are_read_only(self):
        typedef = TypeDef("Doc", "N.S")
        with pytest.raises(AttributeError):
            typedef.name = "Other"
        with pytest.raises(AttributeError):
            typedef.namespace = "M"
        assert (typedef.name, typedef.namespace, typedef.full_name) == \
            ("Doc", "N.S", "N.S.Doc")
        assert TypeDef("int").full_name == "int"

    def test_full_name_of_every_builtin_and_corpus_type(self):
        from repro.corpus.projects import build_all_projects
        from repro.ide.workspace import Workspace

        universes = [Workspace.builtin(key).ts
                     for key in ("paint", "geometry", "bcl")]
        projects = build_all_projects()
        assert len(projects) == 7
        universes += [project.ts for project in projects]
        for ts in universes:
            for typedef in ts.all_types():
                assert typedef.full_name == _expected_full_name(typedef)
                assert ts.get(typedef.full_name) is typedef

    @pytest.mark.parametrize("universe", ["paint", "geometry", "bcl"])
    def test_full_name_survives_pickle_and_serialize(self, universe):
        from repro.ide.workspace import Workspace

        ts = Workspace.builtin(universe).ts

        def identities(universe_ts):
            return sorted((t.full_name, t.namespace, t.name)
                          for t in universe_ts.all_types())

        for copy in (pickle.loads(pickle.dumps(ts, pickle.HIGHEST_PROTOCOL)),
                     load_type_system(dump_type_system(ts))):
            assert identities(copy) == identities(ts)
            for typedef in copy.all_types():
                assert typedef.full_name == _expected_full_name(typedef)
                assert copy.get(typedef.full_name) is typedef

    def test_unpickled_memos_hold_only_the_copys_types(self):
        ts = _pristine("paint")
        for typedef in ts.all_types():
            ts.supertype_closure(typedef)  # fills all four memos
        copy = pickle.loads(pickle.dumps(ts, pickle.HIGHEST_PROTOCOL))
        own = {id(t) for t in copy.all_types()}

        def names(memo):
            # the distance maps are keyed on the source type itself
            return {getattr(key, "full_name", key) for key in memo}

        for memo in ("_supertype_cache", "_supertype_order_cache",
                     "_closure_cache", "_distance_maps"):
            assert names(getattr(copy, memo)) == names(getattr(ts, memo))
            for key, walk in getattr(copy, memo).items():
                assert isinstance(key, str) or id(key) in own, memo
                assert all(id(t) in own for t in walk), memo
        for typedef in copy.all_types():
            assert [t.full_name for t in copy.supertype_order(typedef)] == [
                t.full_name for t in ts.supertype_order(
                    ts.get(typedef.full_name))]


# ----------------------------------------------------------------------
# the memoised supertype walk against a from-scratch walk
# ----------------------------------------------------------------------
WALK_UNIVERSES = ("paint", "bcl", "scaling/90")

#: one edit: (kind, owner pick, second pick); kinds 0-2 are member
#: edits, 3-5 structural ones
WALK_EDITS = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 10 ** 6),
              st.integers(0, 10 ** 6)),
    min_size=1, max_size=6)

_BUILTIN_NAMES = frozenset(t.full_name for t in TypeSystem().all_types())


def _reference_order(ts, typedef):
    """Breadth-first supertype walk, self first, from
    ``immediate_supertypes`` alone."""
    order = [typedef]
    for current in order:
        for parent in ts.immediate_supertypes(current):
            if parent not in order:
                order.append(parent)
    return order


def _by_name(types):
    return sorted(types, key=lambda t: t.full_name)


def _apply_walk_edit(ts, edit, serial):
    """Apply one drawn edit to ``ts``; True when it is structural."""
    kind, pick, other = edit
    editable = _by_name(t for t in ts.all_types()
                        if t.full_name not in _BUILTIN_NAMES)
    owner = editable[pick % len(editable)]
    types = _by_name(t for t in ts.all_types() if t is not ts.void_type)
    member_type = types[other % len(types)]
    if kind == 0:
        owner.add_field(Field("zzF{}".format(serial), member_type))
        return False
    if kind == 1:
        owner.add_method(Method("ZzM{}".format(serial), member_type,
                                params=(Parameter("x", member_type),)))
        return False
    if kind == 2:
        owner.set_member_order(fields=list(reversed(owner.fields)),
                               methods=list(reversed(owner.methods)))
        return False
    if kind == 5:
        ts.register(TypeDef("ZzT{}".format(serial), "Zz",
                            base=editable[other % len(editable)]))
        return True
    # new supertype edges must not close a cycle through ``owner`` (a
    # universe document cannot describe one)
    parents = [t for t in editable if t is not owner
               and owner not in _reference_order(ts, t)]
    if kind == 3:
        owner.base = parents[other % len(parents)] if parents else None
    else:
        interfaces = [t for t in parents
                      if t.is_interface and t not in owner.interfaces]
        if interfaces:
            owner.interfaces = owner.interfaces + (
                interfaces[other % len(interfaces)],)
        else:
            owner.interfaces = tuple(reversed(owner.interfaces))
    return True


def _distance_pairs(ts, sources):
    """Sampled ``type_distance`` inputs: each source against its own
    supertypes (defined distances) and against every seventh type."""
    every_seventh = _by_name(ts.all_types())[::7]
    return [(source, target) for source in sources
            for target in ts.supertype_order(source) + tuple(every_seventh)]


class TestSupertypeWalkMemo:
    """``supertype_order`` / ``supertype_closure`` are memoised per type
    until a structural edit; member edits keep the very same objects.
    ``type_distance``'s per-source distance maps must answer like a fresh
    universe across the same edits."""

    @pytest.mark.parametrize("universe", WALK_UNIVERSES)
    @settings(max_examples=10, deadline=None)
    @given(edits=WALK_EDITS)
    def test_walk_memo_equals_fresh_walk(self, universe, edits):
        ts = _pristine(universe)
        index = ReachabilityIndex(ts)
        sources = _by_name(ts.all_types())[::4]
        for source in sources:
            for allow_methods in (False, True):
                index.reachable(source, allow_methods)
        for source, target in _distance_pairs(ts, sources):
            ts.type_distance(source, target)
        for serial, edit in enumerate(edits):
            before = {
                t.full_name: (ts.supertype_order(t), ts.supertype_closure(t))
                for t in ts.all_types()
            }
            structural = _apply_walk_edit(ts, edit, serial)
            fresh = load_type_system(dump_type_system(ts))
            for typedef in ts.all_types():
                order = ts.supertype_order(typedef)
                closure = ts.supertype_closure(typedef)
                assert [t.full_name for t in order] == [
                    t.full_name for t in _reference_order(
                        fresh, fresh.get(typedef.full_name))]
                assert closure == frozenset(order)
                memo = before.get(typedef.full_name)
                if memo is None:
                    continue  # registered by this edit
                if structural:
                    assert order is not memo[0] and closure is not memo[1]
                else:
                    assert order is memo[0] and closure is memo[1]
            fresh_index = ReachabilityIndex(fresh)
            for source in sources:
                for allow_methods in (False, True):
                    key = (source.full_name, allow_methods)
                    assert index.reachable(source, allow_methods) == \
                        fresh_index.reachable(fresh.get(source.full_name),
                                              allow_methods)
                    assert index._walk_fp[key] == fresh_index._walk_fp[key]
            for source, target in _distance_pairs(ts, sources):
                assert ts.type_distance(source, target) == \
                    fresh.type_distance(fresh.get(source.full_name),
                                        fresh.get(target.full_name))


# ----------------------------------------------------------------------
# per-source distance maps against an independent breadth-first search
# ----------------------------------------------------------------------
#: the C# one-step implicit widenings, written out independently of the
#: type system's own table
WIDENINGS = {
    "byte": ("short",), "char": ("int",), "short": ("int",),
    "int": ("long", "float"), "long": ("float", "decimal"),
    "float": ("double",),
}

#: one drawn type: (is interface, base pick, interface picks); picks
#: only reach types drawn earlier, so every hierarchy is acyclic
HIERARCHY = st.lists(
    st.tuples(st.booleans(), st.integers(0, 10 ** 6),
              st.lists(st.integers(0, 10 ** 6), max_size=3)),
    min_size=1, max_size=10)

#: one edit: (kind, pick, second pick); kinds 0-2 are member edits,
#: 3 re-points a base, 4 adds an interface, 5 registers a type
DISTANCE_EDITS = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 10 ** 6),
              st.integers(0, 10 ** 6)),
    max_size=6)


def _drawn_type(ts, drawn, serial, is_interface, base_pick, picks):
    """Register one drawn type whose edges point at earlier drawn types."""
    classes = [t for t in drawn if not t.is_interface]
    interfaces = [t for t in drawn if t.is_interface]
    base = None
    if not is_interface and classes and base_pick % 3:
        base = classes[base_pick % len(classes)]
    chosen = () if not interfaces else tuple(dict.fromkeys(
        interfaces[pick % len(interfaces)] for pick in picks))
    typedef = ts.register(TypeDef(
        "T{}".format(serial), "Drawn",
        kind=TypeKind.INTERFACE if is_interface else TypeKind.CLASS,
        base=base, interfaces=chosen))
    drawn.append(typedef)
    return typedef


def _reference_distances(ts, source):
    """Breadth-first search over the declared edges alone: a primitive's
    widenings; otherwise the base (``Object`` when none is declared)
    and the declared interfaces."""

    def parents(typedef):
        if typedef.kind is TypeKind.PRIMITIVE:
            return [ts.primitive(name)
                    for name in WIDENINGS.get(typedef.name, ())]
        if typedef is ts.object_type:
            return list(typedef.interfaces)
        return [typedef.base or ts.object_type] + list(typedef.interfaces)

    distances = {source: 0}
    frontier = [source]
    while frontier:
        following = []
        for node in frontier:
            for parent in parents(node):
                if parent not in distances:
                    distances[parent] = distances[node] + 1
                    following.append(parent)
        frontier = following
    return distances


def _apply_distance_edit(ts, drawn, edit, serial):
    """Apply one drawn edit; True when it is structural."""
    kind, pick, other = edit
    owner = drawn[pick % len(drawn)]
    earlier = drawn[:drawn.index(owner)]
    if kind == 0:
        owner.add_field(Field("zzF{}".format(serial), ts.string_type))
    elif kind == 1:
        owner.add_method(Method("ZzM{}".format(serial), owner,
                                params=(Parameter("x", owner),)))
    elif kind == 2:
        owner.set_member_order(methods=list(reversed(owner.methods)))
    elif kind == 3 and not owner.is_interface:
        classes = [t for t in earlier if not t.is_interface]
        owner.base = classes[other % len(classes)] if classes else None
    elif kind == 4 and any(t.is_interface for t in earlier):
        interfaces = [t for t in earlier if t.is_interface]
        owner.interfaces = tuple(dict.fromkeys(
            owner.interfaces + (interfaces[other % len(interfaces)],)))
    else:
        _drawn_type(ts, drawn, "New{}".format(serial), other % 2 == 0,
                    pick, [other])
    return kind > 2


class TestDistanceMaps:
    """``type_distance`` reads one breadth-first distance map per source
    type; member edits keep every map, structural edits and
    registrations drop them all."""

    @staticmethod
    def _check(ts):
        types = ts.all_types()
        for source in types:
            expected = _reference_distances(ts, source)
            distances = ts.distances_from(source)
            assert distances == expected
            assert tuple(distances) == ts.supertype_order(source)
            for target in types:
                assert ts.type_distance(source, target) == \
                    expected.get(target)

    @settings(max_examples=40, deadline=None)
    @given(hierarchy=HIERARCHY, edits=DISTANCE_EDITS)
    def test_maps_equal_independent_search_across_edits(self, hierarchy,
                                                        edits):
        ts = TypeSystem()
        drawn = []
        for serial, spec in enumerate(hierarchy):
            _drawn_type(ts, drawn, serial, *spec)
        self._check(ts)
        for serial, edit in enumerate(edits):
            before = dict(ts._distance_maps)
            assert before
            structural = _apply_distance_edit(ts, drawn, edit, serial)
            if structural:
                assert ts._distance_maps == {}
            else:
                assert ts._distance_maps.keys() == before.keys()
                assert all(ts._distance_maps[source] is distances
                           for source, distances in before.items())
            self._check(ts)
