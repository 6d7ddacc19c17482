"""Tests for Lackwit-style abstract type inference (Sec. 4.1)."""

import time

import pytest

from repro import Context, TypeSystem
from repro.analysis import AbstractTypeAnalysis
from repro.codemodel import LibraryBuilder, Method
from repro.corpus import (
    AssignStatement,
    ExprStatement,
    MethodImpl,
    Project,
    ReturnStatement,
)
from repro.corpus.frameworks import build_system_core
from repro.corpus.projects import build_familyshow_project
from repro.lang import Assign, Call, FieldAccess, TypeLiteral, Var


@pytest.fixture
def world():
    """A tiny project with a path-flavoured API, like the paper's example."""
    ts = TypeSystem()
    core = build_system_core(ts)
    project = Project("T", ts)
    return ts, core, project


def _string_impl(ts, name="M"):
    lib = LibraryBuilder(ts)
    host = ts.try_get("T.Host")
    if host is None:
        host = lib.cls("T.Host")
    method = Method(name, ts.string_type, params=(), is_static=True)
    host.add_method(method)
    return MethodImpl(method, locals={})


class TestPaperExample:
    """The Family.Show appLocation example, end to end."""

    @pytest.fixture(scope="class")
    def familyshow(self):
        return build_familyshow_project()

    @pytest.fixture(scope="class")
    def analysis(self, familyshow):
        return AbstractTypeAnalysis(familyshow)

    @pytest.fixture(scope="class")
    def impl(self, familyshow):
        return next(
            i for i in familyshow.impls
            if i.method.name == "GetDataFilePath"
        )

    def test_applocation_joins_directory_args(self, familyshow, analysis, impl):
        """Directory.Exists / CreateDirectory / Path.Combine share their
        first argument's abstract type with appLocation."""
        ts = familyshow.ts
        app_location = Var("appLocation", ts.string_type)
        directory = ts.get("System.IO.Directory")
        exists = directory.declared_methods_named("Exists")[0]
        root = analysis.abstype_of_expr(impl, app_location)
        assert root is not None
        assert root == analysis.abstype_of_param(exists, 0)

    def test_combine_return_is_path_like(self, familyshow, analysis, impl):
        ts = familyshow.ts
        path = ts.get("System.IO.Path")
        combine = path.declared_methods_named("Combine")[0]
        app_location = Var("appLocation", ts.string_type)
        assert analysis.uf.same(
            analysis.return_key(combine),
            analysis.term_of_expr(impl, app_location),
        )

    def test_file_name_is_a_different_abstract_type(self, familyshow, analysis, impl):
        """App.ApplicationFolderName is NOT the same abstract type as
        appLocation (it is a folder *name*, not a path)."""
        ts = familyshow.ts
        app = ts.get("FamilyShow.App")
        folder_name = next(
            f for f in app.fields if f.name == "ApplicationFolderName"
        )
        app_location = Var("appLocation", ts.string_type)
        left = analysis.uf.find(("field", id(folder_name)))
        right = analysis.abstype_of_expr(impl, app_location)
        assert left is not None and right is not None
        assert left != right


class TestMechanics:
    def test_assignment_unifies(self, world):
        ts, _core, project = world
        impl = _string_impl(ts)
        impl.locals = {"a": ts.string_type, "b": ts.string_type}
        impl.body.append(
            AssignStatement(
                Assign(Var("a", ts.string_type), Var("b", ts.string_type))
            )
        )
        project.add_impl(impl)
        analysis = AbstractTypeAnalysis(project)
        assert analysis.uf.same(
            analysis.local_key(impl, "a"), analysis.local_key(impl, "b")
        )

    def test_argument_passing_unifies_with_param(self, world):
        ts, _core, project = world
        impl = _string_impl(ts)
        impl.locals = {"p": ts.string_type}
        path = ts.get("System.IO.Path")
        get_file_name = path.declared_methods_named("GetFileName")[0]
        impl.body.append(
            ExprStatement(Call(get_file_name, (Var("p", ts.string_type),)))
        )
        project.add_impl(impl)
        analysis = AbstractTypeAnalysis(project)
        assert analysis.uf.same(
            analysis.local_key(impl, "p"),
            analysis.param_key(get_file_name, 0),
        )

    def test_return_unifies_with_return_slot(self, world):
        ts, _core, project = world
        impl = _string_impl(ts)
        impl.locals = {"p": ts.string_type}
        impl.body.append(ReturnStatement(Var("p", ts.string_type)))
        project.add_impl(impl)
        analysis = AbstractTypeAnalysis(project)
        assert analysis.uf.same(
            analysis.local_key(impl, "p"),
            analysis.return_key(impl.method),
        )

    def test_object_methods_split_per_receiver_type(self, world):
        """Calling .ToString() on two unrelated types must NOT merge their
        abstract types."""
        ts, core, project = world
        obj_to_string = next(
            m for m in ts.object_type.methods if m.name == "ToString"
        )
        impl = _string_impl(ts)
        impl.locals = {"d": core.datetime, "t": core.timespan}
        impl.body.append(
            ExprStatement(Call(obj_to_string, (Var("d", core.datetime),)))
        )
        impl.body.append(
            ExprStatement(Call(obj_to_string, (Var("t", core.timespan),)))
        )
        project.add_impl(impl)
        analysis = AbstractTypeAnalysis(project)
        assert not analysis.uf.same(
            analysis.local_key(impl, "d"), analysis.local_key(impl, "t")
        )

    def test_overrides_share_slots(self, world):
        ts, _core, project = world
        lib = LibraryBuilder(ts)
        base = lib.cls("T.Base")
        derived = lib.cls("T.Derived", base=base)
        virtual = lib.method(base, "Render", params=[("x", ts.string_type)])
        override = lib.method(
            derived, "Render", params=[("x", ts.string_type)], overrides=virtual
        )
        analysis = AbstractTypeAnalysis(project)
        assert analysis.param_key(override, 1, derived) == analysis.param_key(
            virtual, 1, base
        )

    def test_exclusion_hides_later_constraints(self, world):
        ts, _core, project = world
        impl = _string_impl(ts)
        impl.locals = {"a": ts.string_type, "b": ts.string_type}
        stmt = AssignStatement(
            Assign(Var("a", ts.string_type), Var("b", ts.string_type))
        )
        impl.body.append(stmt)
        project.add_impl(impl)
        full = AbstractTypeAnalysis(project)
        assert full.uf.same(
            full.local_key(impl, "a"), full.local_key(impl, "b")
        )
        excluded = AbstractTypeAnalysis(project, exclude_from=(impl, 0))
        assert not excluded.uf.same(
            excluded.local_key(impl, "a"), excluded.local_key(impl, "b")
        )

    def test_incremental_extend_matches_batch(self, world):
        """Feeding impls one at a time gives the same groups as analysing
        the whole project at once."""
        ts, _core, project = world
        impls = []
        for index in range(3):
            impl = _string_impl(ts, name="M{}".format(index))
            impl.locals = {"a": ts.string_type, "b": ts.string_type}
            impl.body.append(
                AssignStatement(
                    Assign(Var("a", ts.string_type), Var("b", ts.string_type))
                )
            )
            impls.append(impl)
        for impl in impls:
            project.add_impl(impl)
        batch = AbstractTypeAnalysis(project)

        empty_project = Project("T2", ts)
        incremental = AbstractTypeAnalysis(empty_project)
        for impl in impls:
            incremental.extend(impl)

        for impl in impls:
            assert batch.uf.same(
                batch.local_key(impl, "a"), batch.local_key(impl, "b")
            )
            assert incremental.uf.same(
                incremental.local_key(impl, "a"),
                incremental.local_key(impl, "b"),
            )

    def test_extend_accepts_foreign_impl(self, world):
        ts, _core, project = world
        analysis = AbstractTypeAnalysis(project)
        impl = _string_impl(ts, name="Late")
        impl.locals = {"p": ts.string_type}
        path = ts.get("System.IO.Path")
        get_file_name = path.declared_methods_named("GetFileName")[0]
        impl.body.append(
            ExprStatement(Call(get_file_name, (Var("p", ts.string_type),)))
        )
        analysis.extend(impl)
        assert analysis.uf.same(
            analysis.local_key(impl, "p"),
            analysis.param_key(get_file_name, 0),
        )

    def test_literals_have_no_abstract_type(self, world):
        ts, _core, project = world
        impl = _string_impl(ts)
        project.add_impl(impl)
        analysis = AbstractTypeAnalysis(project)
        from repro.lang import Literal

        assert analysis.abstype_of_expr(impl, Literal("x", ts.string_type)) is None


class TestInferenceThroughput:
    def test_wix_batch_per_site_and_incremental(self):
        """Inference "can be done incrementally in the background": on
        WiX, feeding every impl to ``extend`` costs at most 3x a batch
        run, and the evaluation's per-site re-run stays well under the
        paper's half-second query budget."""
        from repro.corpus.projects import build_all_projects

        wix = {p.name: p for p in build_all_projects()}["WiX"]
        started = time.perf_counter()
        AbstractTypeAnalysis(wix)
        batch = time.perf_counter() - started

        impl = wix.impls[0]
        started = time.perf_counter()
        for index in range(5):
            AbstractTypeAnalysis(wix, exclude_from=(impl, index % 3))
        per_site = (time.perf_counter() - started) / 5

        analysis = AbstractTypeAnalysis(Project("inc", wix.ts))
        started = time.perf_counter()
        for body in wix.impls:
            analysis.extend(body)
        incremental = time.perf_counter() - started

        assert incremental < batch * 3
        assert per_site < 0.5
