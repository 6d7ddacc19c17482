"""Tests for universe exploration and the related REPL/CLI surfaces."""

import json

import pytest

from repro import TypeSystem
from repro.__main__ import main as cli_main
from repro.codemodel import LibraryBuilder
from repro.codemodel.explorer import namespace_tree, subtype_tree, type_tree
from repro.ide import Workspace, run_repl


@pytest.fixture
def world():
    ts = TypeSystem()
    lib = LibraryBuilder(ts)
    shape = lib.cls("Geo.Shape")
    lib.prop(shape, "Area", ts.primitive("double"))
    lib.method(shape, "Draw")
    rect = lib.cls("Geo.Rect", base=shape)
    lib.prop(rect, "W", ts.primitive("int"))
    lib.field(rect, "Unit", rect, static=True)
    lib.cls("Geo.Inner.Circle", base=shape)
    return ts, shape, rect


class TestNamespaceTree:
    def test_lists_namespaces_and_types(self, world):
        ts, *_ = world
        text = namespace_tree(ts)
        assert "Geo" in text
        assert "Geo.Inner" in text
        assert "class Rect" in text

    def test_prefix_filter(self, world):
        ts, *_ = world
        text = namespace_tree(ts, root="Geo.Inner")
        assert "Circle" in text
        assert "Rect" not in text

    def test_prefix_is_namespace_boundary(self, world):
        ts, *_ = world
        text = namespace_tree(ts, root="Geo.In")
        assert "Circle" not in text  # Geo.Inner is not under "Geo.In"


class TestTypeTree:
    def test_members_and_inheritance(self, world):
        ts, shape, rect = world
        text = type_tree(ts, rect)
        assert text.startswith("class Geo.Rect : Geo.Shape")
        assert "W : int" in text
        assert "Area : double" in text and "(from Geo.Shape)" in text
        assert "Draw() : void" in text
        assert "static Unit : Geo.Rect" in text


class TestSubtypeTree:
    def test_recursive_children(self, world):
        ts, shape, rect = world
        text = subtype_tree(ts, shape)
        lines = text.splitlines()
        assert lines[0] == "Geo.Shape"
        assert any(line.strip() == "Geo.Inner.Circle" for line in lines)
        assert any(line.strip() == "Geo.Rect" for line in lines)


class TestReplBrowsing:
    def drive(self, lines):
        output = []
        run_repl(Workspace.builtin("paint"), lines, output.append)
        return "\n".join(output)

    def test_types_command(self):
        out = self.drive([":types PaintDotNet"])
        assert "class Document" in out

    def test_tree_command(self):
        out = self.drive([":tree PaintDotNet.BitmapLayer"])
        assert "class PaintDotNet.BitmapLayer : PaintDotNet.Layer" in out
        assert "Surface" in out


class TestCliTools:
    def test_dump_universe_unwritable_path_is_usage_error(self, tmp_path):
        output = []
        code = cli_main(
            ["dump-universe", "--universe", "paint",
             "-o", str(tmp_path / "missing" / "x.json")],
            write=output.append,
        )
        assert code == 2
        [line] = output
        assert line.startswith("error: ")

    def test_dump_universe(self, tmp_path):
        target = tmp_path / "paint.json"
        output = []
        code = cli_main(
            ["dump-universe", "--universe", "paint", "-o", str(target)],
            write=output.append,
        )
        assert code == 0
        data = json.loads(target.read_text())
        assert data["format"] == "repro-universe"
        assert any(
            t["full_name"] == "PaintDotNet.Document" for t in data["types"]
        )
