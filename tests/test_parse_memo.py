"""The engine's parse memo against a fresh parse, and completions that
render once.

``CompletionEngine.parse`` memoises ``(source, context)`` → partial
expression in the cross-query cache, and a member edit drops exactly the
entries whose parser read set (:mod:`repro.lang.parser`) it touches.
The slow reference is :func:`repro.lang.parser.parse` itself: after
every edit a memoised parse must equal a fresh one, and a session that
parses through the memo must answer as a cache-off workspace does, with
the same whole-query replays as a warm engine fed fresh parses.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.codemodel.members import Field, Method, Parameter
from repro.engine.completer import CompletionEngine, EngineConfig
from repro.ide.session import open_session
from repro.ide.workspace import Workspace
from repro.lang import parser
from repro.lang.ast import iter_subtree
from repro.lang.parser import ParseError, parse
from repro.testing import faults

from .test_incremental import _pristine

UNIVERSES = ("paint", "geometry", "bcl")

LIST = "System.Collections.Generic.List"
# List's supertypes, nearest first: List -> IList -> ICollection ->
# IEnumerable in every builtin universe
ILIST = "System.Collections.IList"
ICOLLECTION = "System.Collections.ICollection"
IENUMERABLE = "System.Collections.IEnumerable"

#: one query per name-resolution path the parser records reads for, plus
#: a few that read nothing
SOURCES = [
    "x.ZzF.?m",        # an inherited field (declared on ICollection)
    "x.ZzM(?, a)",     # an inherited method (declared on IEnumerable)
    "ZzBare(a, ?)",    # a bare method name: universe-wide
    "x.?f",
    "?({x, a})",
    "b.?m",
    "x.Missing",       # a parse error: never memoised
]


def _shape(expr):
    """``expr.key()`` plus the signature of every member it resolved
    to: same-named overloads share a key, not their parameters."""
    members = []
    for node in iter_subtree(expr):
        for member in getattr(node, "candidates", ()) + tuple(
                getattr(node, name) for name in ("method", "member")
                if hasattr(node, name)):
            if isinstance(member, Method):
                members.append(tuple(p.type.full_name
                                     for p in member.all_params()))
            else:
                members.append(member.type.full_name)
    return expr.key(), members


class _Universe:
    """A pristine builtin universe with the members the queries resolve
    to, and three workspaces over it: the memo under test, a cache-off
    reference, and a warm engine fed fresh parses."""

    def __init__(self, name):
        ts = self.ts = _pristine(name)
        self.list = ts.get(LIST)
        self.string = ts.string_type
        # two classes with methods, outside List's supertypes
        self.other, self.unrelated = [
            t for t in ts.all_types()
            if t.kind.value == "class" and t.methods
            and t not in (self.string, ts.object_type, self.list)][:2]
        ts.get(ICOLLECTION).add_field(Field("ZzF", self.string))
        enumerable = ts.get(IENUMERABLE)
        for first in (self.string, self.other):
            enumerable.add_method(Method(
                "ZzM", self.string,
                params=(Parameter("p", first), Parameter("q", self.string))))
        self.other.add_method(Method(
            "ZzBare", self.string, is_static=True,
            params=(Parameter("p", self.string), Parameter("q", self.other))))
        scope = {"x": self.list, "a": self.string, "b": self.other}
        self.memo = open_session(Workspace(ts, name=name), locals=scope)
        self.cold = open_session(Workspace(ts, name=name, cache_enabled=False),
                                 locals=scope)
        self.ref = Workspace(ts, name=name)
        self.context = self.ref.context(locals=scope)

    def fresh(self, source):
        try:
            return _shape(parse(source, self.context))
        except ParseError as error:
            return str(error)

    def memoised(self, source):
        try:
            return _shape(self.memo.workspace.engine.parse(
                source, self.memo.context()))
        except ParseError as error:
            return str(error)

    def check(self):
        """Every memoised parse equals a fresh one, and the memo
        session's records equal the references'."""
        for source in SOURCES:
            assert self.memoised(source) == self.fresh(source), source
            memo, cold = self.memo.complete(source), self.cold.complete(source)
            assert memo.error == cold.error, source
            assert [(s.text, s.score) for s in memo.suggestions] == \
                [(s.text, s.score) for s in cold.suggestions], source
            if memo.error is None:
                outcome = self.ref.engine.complete_query(
                    parse(source, self.context), self.context, n=10)
                assert memo.cached == outcome.cached, source
        assert self.memo.workspace.cache_stats() == self.ref.cache_stats()


def _apply(universe, edit):
    kind, pick, name, type_pick = edit
    ts = universe.ts
    types = [t for t in ts.all_types() if t.kind.value != "primitive"]
    target = types[pick % len(types)]
    member_type = types[type_pick % len(types)]
    if kind == "field":
        target.add_field(Field(name, member_type))
    elif kind == "method":
        target.add_method(Method(
            name, member_type, is_static=type_pick % 2 == 0,
            params=(Parameter("p", member_type),
                    Parameter("q", universe.string))))
    elif target.methods or target.fields:
        target.set_member_order(
            fields=list(reversed(target.fields)),
            methods=list(reversed(target.methods)))


EDIT = st.tuples(
    st.sampled_from(("field", "method", "reorder")),
    st.integers(0, 10 ** 6),
    st.sampled_from(("ZzF", "ZzM", "ZzBare", "Zz{}")),
    st.integers(0, 10 ** 6),
)


class TestMemoEqualsFreshParse:
    @pytest.mark.parametrize("name", UNIVERSES)
    @settings(max_examples=12, deadline=None)
    @given(edits=st.lists(EDIT, min_size=1, max_size=4))
    def test_drawn_member_edits(self, name, edits):
        universe = _Universe(name)
        universe.check()
        for serial, (kind, pick, member, type_pick) in enumerate(edits):
            _apply(universe, (kind, pick, member.format(serial), type_pick))
            universe.check()

    def _targeted(self, name, edit, source):
        """``edit`` must change ``source``'s fresh parse, and the memo
        must follow it."""
        universe = _Universe(name)
        universe.check()
        before = universe.fresh(source)
        edit(universe)
        assert universe.fresh(source) != before, "the edit changes nothing"
        universe.check()

    @pytest.mark.parametrize("name", UNIVERSES)
    def test_same_named_field_between_type_and_declarer(self, name):
        self._targeted(name, lambda u: u.ts.get(ILIST).add_field(
            Field("ZzF", u.other)), "x.ZzF.?m")

    @pytest.mark.parametrize("name", UNIVERSES)
    def test_overload_on_a_supertype(self, name):
        self._targeted(name, lambda u: u.ts.get(ILIST).add_method(Method(
            "ZzM", u.other, params=(Parameter("p", u.other),
                                    Parameter("q", u.string)))),
            "x.ZzM(?, a)")

    @pytest.mark.parametrize("name", UNIVERSES)
    def test_same_named_method_on_an_unrelated_type(self, name):
        self._targeted(name, lambda u: u.unrelated.add_method(Method(
            "ZzBare", u.string, is_static=True,
            params=(Parameter("p", u.string), Parameter("q", u.other)))),
            "ZzBare(a, ?)")

    @pytest.mark.parametrize("name", UNIVERSES)
    def test_reorder_of_the_declaring_type(self, name):
        def edit(u):
            declarer = u.ts.get(IENUMERABLE)
            declarer.set_member_order(methods=list(reversed(declarer.methods)))
        self._targeted(name, edit, "x.ZzM(?, a)")


@pytest.fixture
def counted(monkeypatch):
    """Calls of :func:`repro.lang.parser.parse`, the memo's miss path."""
    calls = []
    original = parser.parse

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(parser, "parse", counting)
    return calls


class TestMemoScope:
    def _paint(self, cache_enabled=True):
        workspace = Workspace.builtin("paint")
        workspace.cache_enabled = cache_enabled
        return open_session(workspace, locals={"img": "Document"})

    def test_parse_errors_are_not_memoised(self, counted):
        session = self._paint()
        for _ in range(2):
            assert session.complete("img.Nope").error is not None
        assert counted == ["img.Nope", "img.Nope"]

    def test_cache_off_has_no_memo(self, counted):
        session = self._paint(cache_enabled=False)
        session.complete("img.?m")
        session.complete("img.?m")
        assert counted == ["img.?m", "img.?m"]

    def test_fault_plan_has_no_memo(self, counted):
        session = self._paint()
        with faults.inject("oracle", times=None):
            session.complete("img.?m")
            session.complete("img.?m")
        assert counted == ["img.?m", "img.?m"]

    def test_memo_is_left_out_of_the_cache_counters(self):
        session = self._paint()
        engine = session.workspace.engine
        before = engine.cache_stats()
        for _ in range(3):
            engine.parse("img.?m", session.context())
        assert engine.cache_stats() == before

    def test_memo_is_bounded_by_max_streams(self):
        ts = _pristine("paint")
        engine = CompletionEngine(ts)
        engine.cache.max_streams = 2
        context = Workspace(ts).context(
            locals={"img": ts.get("PaintDotNet.Document")})
        first = engine.parse("img.?m", context)
        engine.parse("img.?f", context)
        engine.parse("?({img})", context)
        assert len(engine.cache._parses) == 2
        assert engine.parse("img.?m", context) is not first


class TestRenderOnce:
    def test_replay_hands_out_the_rendered_completions(self):
        workspace = Workspace.builtin("paint")
        engine = workspace.engine
        context = workspace.context(
            locals={"img": workspace.ts.get("PaintDotNet.Document")})
        pe = parse("img.?*m", context)
        cold = engine.complete_query(pe, context)
        texts = [c.text for c in cold.completions]
        replay = engine.complete_query(pe, context)
        assert replay.cached
        assert all(a is b for a, b in zip(replay.completions,
                                           cold.completions))
        assert [c._text for c in replay.completions] == texts

    def test_replayed_depth_histogram_equals_a_cold_one(self):
        histograms = []
        for enable_cache in (False, True):
            ts = _pristine("paint")
            engine = CompletionEngine(
                ts, EngineConfig(enable_cache=enable_cache))
            context = Workspace(ts).context(
                locals={"img": ts.get("PaintDotNet.Document")})
            pe = parse("img.?*m", context)
            engine.complete_query(pe, context)
            engine.metrics.reset()
            outcome = engine.complete_query(pe, context)
            assert outcome.cached == enable_cache
            histograms.append(
                engine.metrics.histogram("completion_depth").to_dict())
        assert histograms[0] == histograms[1]
        assert histograms[0]["count"] == 10

    def test_replace_keeps_the_rendering_and_equality(self):
        workspace = Workspace.builtin("paint")
        context = workspace.context(
            locals={"img": workspace.ts.get("PaintDotNet.Document")})
        [completion] = workspace.engine.complete(
            parse("img.?m", context), context, n=1)
        text = completion.text
        copy = completion._replace(score=completion.score)
        assert copy == completion and copy._text == text
        assert completion._replace(score=completion.score + 1) != completion
