"""Member edits cost what they touch: the three incremental fast paths.

A member-level edit (``add_field`` / ``add_property`` / ``add_method`` /
``set_member_order``) no longer pays for work sized to the universe:

* the completion cache finds the entries to drop through an inverted
  footprint index instead of testing every entry;
* the universe's one shared :class:`DependencyGraph` is patched — only
  the edited types' forward edges and member result types are
  recomputed, and only the closure and chain-read memos an edit can
  reach are dropped — instead of rebuilt;
* ``TypeSystem.fingerprint`` rehashes memoised per-type bytes.

Each fast path is checked here against its slow reference after every
edit of seeded, Hypothesis-drawn edit sequences over the builtin
universes and the pinned ``scaling/90`` universe: a fresh
``DependencyGraph(ts)`` (starting from a built graph and from a
pack-loaded one), a linear ``QueryFootprint.affected_by`` scan, and
``fingerprint(fresh=True)``.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.deps import (
    DependencyGraph,
    QueryFootprint,
    dependency_graph,
    lint_dependencies,
)
from repro.api import build_pack, load_pack
from repro.codemodel import Field, Method, Parameter
from repro.codemodel.members import Property
from repro.codemodel.types import TypeDef
from repro.engine.cache import CompletionCache
from repro.engine.completer import CompletionEngine
from repro.ide.workspace import Workspace
from repro.lang.parser import parse

UNIVERSES = ("paint", "geometry", "bcl", "scaling/90")

#: one edit: (kind, owner pick, member-type pick, second pick)
EDIT = st.tuples(
    st.integers(0, 3),
    st.integers(0, 10 ** 6),
    st.integers(0, 10 ** 6),
    st.integers(0, 10 ** 6),
)
EDITS = st.lists(EDIT, min_size=1, max_size=8)

_PRISTINE = {}


def _pristine(universe):
    """The unedited universe, pickled once (the pickle leaves out the
    derived dependency graph, so every copy starts without one)."""
    if universe not in _PRISTINE:
        if universe == "scaling/90":
            from repro.corpus import synthesize_project
            from tests.conftest import scaling_spec

            ts = synthesize_project(scaling_spec(90)).ts
        else:
            ts = Workspace.builtin(universe).ts
        _PRISTINE[universe] = pickle.dumps(ts, pickle.HIGHEST_PROTOCOL)
    return pickle.loads(_PRISTINE[universe])


@pytest.fixture(scope="module")
def packs(tmp_path_factory):
    """One pack per universe, built lazily."""
    built = {}

    def path_of(universe):
        if universe not in built:
            path = str(tmp_path_factory.mktemp("packs") / "u.pack")
            build_pack(Workspace(_pristine(universe), name="u"), path)
            built[universe] = path
        return built[universe]

    return path_of


def _owners(ts):
    return sorted(
        (t for t in ts.all_types()
         if not t.is_primitive and t is not ts.void_type),
        key=lambda t: t.full_name)


def _member_types(ts):
    return sorted((t for t in ts.all_types() if t is not ts.void_type),
                  key=lambda t: t.full_name)


def apply_edit(ts, edit, serial):
    """Apply one drawn member edit to ``ts``."""
    kind, owner_pick, type_pick, other_pick = edit
    owners = _owners(ts)
    types = _member_types(ts)
    owner = owners[owner_pick % len(owners)]
    member_type = types[type_pick % len(types)]
    other_type = types[other_pick % len(types)]
    if kind == 0:
        owner.add_field(Field("zzF{}".format(serial), member_type))
    elif kind == 1:
        owner.add_property(Property("ZzP{}".format(serial), member_type))
    elif kind == 2:
        owner.add_method(Method(
            "ZzM{}".format(serial), return_type=member_type,
            params=[Parameter("x", other_type)]))
    else:
        shift = other_pick
        owner.set_member_order(
            fields=_rotated(owner.fields, shift),
            methods=_rotated(owner.methods, shift))


def _rotated(items, shift):
    if not items:
        return list(items)
    shift %= len(items)
    return list(items[shift:]) + list(items[:shift])


def _snapshot(graph):
    return (
        {name: frozenset(dsts) for name, dsts in graph._forward.items()},
        {name: frozenset(srcs) for name, srcs in graph._reverse.items()},
    )


def assert_same_graph(graph, fresh):
    names = (set(graph._forward) | set(graph._reverse)
             | set(fresh._forward) | set(fresh._reverse))
    for name in sorted(names):
        assert graph.forward(name) == fresh.forward(name), name
        assert graph.reverse(name) == fresh.reverse(name), name
        assert graph.reverse_closure(name) == fresh.reverse_closure(name), \
            name


def assert_same_chain_reads(graph, fresh, names):
    for name in names:
        for steps in (1, 2, 3):
            assert graph.chain_reads(name, steps) == \
                fresh.chain_reads(name, steps), (name, steps)


class TestPatchedGraph:
    @pytest.mark.parametrize("universe", UNIVERSES)
    @pytest.mark.parametrize("source", ["built", "pack"])
    @settings(max_examples=8, deadline=None)
    @given(edits=EDITS)
    def test_patched_graph_equals_fresh_build(
            self, packs, universe, source, edits):
        ts = (load_pack(packs(universe)).ts if source == "pack"
              else _pristine(universe))
        graph = dependency_graph(ts)
        # warm some memos so the patch has memos to keep or drop
        warmed = sorted(graph._forward)[::3]
        for name in warmed:
            graph.reverse_closure(name)
            graph.chain_reads(name, 2)
        for serial, edit in enumerate(edits):
            before = _snapshot(graph)
            apply_edit(ts, edit, serial)
            patched = dependency_graph(ts)
            assert patched.built_version == ts.version
            # copy-on-write: a reader of the old graph sees it unchanged
            assert _snapshot(graph) == before
            fresh = DependencyGraph(ts)
            assert_same_graph(patched, fresh)
            assert_same_chain_reads(patched, fresh, warmed)
            assert ts.fingerprint() == ts.fingerprint(fresh=True)
            graph = patched

    def test_unchanged_edges_share_everything(self):
        ts = _pristine("paint")
        graph = dependency_graph(ts)
        document = ts.get("PaintDotNet.Document")
        document.set_member_order(methods=list(reversed(document.methods)))
        patched = dependency_graph(ts)
        assert patched is not graph
        assert patched._forward is graph._forward
        assert patched._reverse_memo is graph._reverse_memo

    def test_structural_edit_rebuilds(self, monkeypatch):
        ts = _pristine("paint")
        dependency_graph(ts)
        builds = _count_builds(monkeypatch)
        ts.register(TypeDef("Fresh", "Zz"))
        assert dependency_graph(ts).reverse("System.Object") >= {"Zz.Fresh"}
        assert builds == [1]

    def test_one_build_for_fifty_engines_and_twenty_edits(self, monkeypatch):
        ts = _pristine("paint")
        builds = _count_builds(monkeypatch)
        for serial in range(50):
            engine = CompletionEngine(ts)
            engine.dependency_graph()
            if serial < 20:
                apply_edit(ts, (serial % 4, serial, 3 * serial, 7), serial)
        assert builds == [1]

    def test_graph_is_dropped_from_pickles(self):
        ts = _pristine("paint")
        dependency_graph(ts)
        assert pickle.loads(pickle.dumps(ts))._dep_graph is None

    def test_ra104_fires_after_a_patched_graph_stamp(self):
        ts = _pristine("paint")
        dependency_graph(ts)
        document = ts.get("PaintDotNet.Document")
        document.add_field(Field("zzProper", ts.string_type))
        graph = dependency_graph(ts)  # patched copy, stamps the digest
        assert graph.built_version == ts.version
        document.fields.append(Field("zzSneaky", ts.string_type))
        codes = [d.code for d in lint_dependencies(ts, graph=graph)]
        assert "RA104" in codes


def _count_builds(monkeypatch):
    """Count full ``DependencyGraph`` builds from here on."""
    builds = [0]
    original = DependencyGraph._build

    def counting(self):
        builds[0] += 1
        original(self)

    monkeypatch.setattr(DependencyGraph, "_build", counting)
    return builds


# ----------------------------------------------------------------------
# indexed invalidation
# ----------------------------------------------------------------------
SOURCES = ["a.?f", "a.?*m", "b.?m", "?({a, b})", "a.?*f", "?"]


def assert_postings_consistent(cache):
    """The stream map's inverted index is exactly the one its recorded
    footprints imply."""
    index = cache._stream_fp
    assert set(index.footprints) == set(cache._streams)
    reads, accepting, universal = {}, {}, set()
    for key, footprint in index.footprints.items():
        if footprint is None:
            universal.add(key)
            continue
        for name in footprint.reads:
            reads.setdefault(name, set()).add(key)
        for name in footprint.accepting:
            accepting.setdefault(name, set()).add(key)
    assert index.reads == reads
    assert index.accepting == accepting
    assert index.universal == universal


def _linear_drop(entries, index, mutated, params):
    return {
        key for key in entries
        if index.footprints[key] is None
        or index.footprints[key].affected_by(mutated, params)
    }


class TestIndexedInvalidation:
    @pytest.mark.parametrize("universe", UNIVERSES)
    @settings(max_examples=8, deadline=None)
    @given(edits=EDITS)
    def test_drop_set_equals_linear_scan(self, universe, edits):
        ts = _pristine(universe)
        workspace = Workspace(ts, name="u")
        first, second = [t for t in _owners(ts)
                         if t.fields or t.methods][:2]
        context = workspace.context(locals={"a": first, "b": second})
        engine = workspace.engine
        cache = engine.cache

        def run_queries():
            for source in SOURCES:
                engine.complete_query(parse(source, context), context, n=5)

        run_queries()
        for serial, edit in enumerate(edits):
            apply_edit(ts, edit, serial)
            mutated = ts.mutations_since(cache._version)
            params = ts.method_params_since(cache._version)
            linear = _linear_drop(cache._streams, cache._stream_fp,
                                  mutated, params)
            assert cache._stream_fp.affected(mutated, params) == linear
            expected = set(cache._streams) - linear
            with cache._lock:
                cache._sync(ts)
            assert set(cache._streams) == expected
            assert_postings_consistent(cache)
            run_queries()
            assert_postings_consistent(cache)


class TestPostingsUpkeep:
    FP_A = QueryFootprint(reads=frozenset({"A", "B"}),
                          accepting=frozenset({"P"}))
    FP_C = QueryFootprint(reads=frozenset({"C"}))

    def test_insert_evict_and_clear(self):
        ts = _pristine("paint")
        cache = CompletionCache(max_streams=2)
        cache.stream(ts, "s1", lambda: iter(()), lambda: self.FP_A)
        cache.stream(ts, "s2", lambda: iter(()), lambda: None)
        assert_postings_consistent(cache)
        cache.stream(ts, "s3", lambda: iter(()), lambda: self.FP_C)
        cache.stream(ts, "s4", lambda: iter(()), lambda: self.FP_A)
        assert cache.stats.evictions == 2
        assert "s1" not in cache._stream_fp.footprints
        assert_postings_consistent(cache)
        cache.clear()
        assert_postings_consistent(cache)
        assert not cache._stream_fp.reads

    def test_reinserted_broken_stream_replaces_its_postings(self):
        ts = _pristine("paint")
        cache = CompletionCache()

        def failing():
            raise RuntimeError("transient")
            yield  # pragma: no cover - makes this a generator

        shared, _ = cache.stream(ts, "s", failing, lambda: self.FP_A)
        with pytest.raises(RuntimeError):
            shared.get(0)
        assert shared.broken
        cache.stream(ts, "s", lambda: iter(()), lambda: self.FP_C)
        assert_postings_consistent(cache)
        assert "A" not in cache._stream_fp.reads

    def test_coarse_clear_empties_the_index(self):
        ts = _pristine("paint")
        cache = CompletionCache()
        cache.stream(ts, "s", lambda: iter(()), lambda: self.FP_A)
        cache.stream(ts, "u", lambda: iter(()), lambda: None)
        ts.register(TypeDef("Fresh", "Zz"))  # structural: coarse path
        cache.stream(ts, "t", lambda: iter(()), lambda: self.FP_C)
        assert cache.stats.invalidations_coarse == 1
        assert set(cache._stream_fp.footprints) == {"t"}
        assert_postings_consistent(cache)


# ----------------------------------------------------------------------
# per-type fingerprint memo
# ----------------------------------------------------------------------
class TestFingerprintMemo:
    @pytest.mark.parametrize("universe", UNIVERSES)
    @settings(max_examples=10, deadline=None)
    @given(edits=EDITS)
    def test_memoised_digest_equals_fresh(self, universe, edits):
        ts = _pristine(universe)
        ts.fingerprint()
        for serial, edit in enumerate(edits):
            apply_edit(ts, edit, serial)
            memoised = ts.fingerprint()
            assert memoised == ts.fingerprint(fresh=True)

    def test_member_edit_drops_only_the_origin_lines(self):
        ts = _pristine("paint")
        ts.fingerprint()
        total = len(ts._fingerprint_lines)
        document = ts.get("PaintDotNet.Document")
        document.add_field(Field("zzMemo", ts.string_type))
        assert "PaintDotNet.Document" not in ts._fingerprint_lines
        assert len(ts._fingerprint_lines) == total - 1
        ts.register(TypeDef("Fresh", "Zz"))
        assert not ts._fingerprint_lines

    def test_detected_drift_refreshes_the_memo(self):
        ts = _pristine("paint")
        ts.fingerprint()
        ts.get("PaintDotNet.Document").fields.append(
            Field("zzSneaky", ts.string_type))
        assert ts.check_fingerprint_drift() is not None
        assert ts.fingerprint() == ts.fingerprint(fresh=True)
        assert ts.check_fingerprint_drift() is None
