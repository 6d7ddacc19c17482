"""Persistent universe packs (docs/ARTIFACTS.md).

Four guarantees pinned here:

* **Round-trips** — for every builtin universe, the pinned synthetic
  ``scaling/90`` universe and fuzz-transformed variants, pack → load
  reproduces the universe fingerprint, the top-10 of the battery
  queries (for ``scaling/90``, its ``?({a, b})`` query) without
  rebuilding the method index, and identical dependency-graph stats
  (modulo ``built_version``, which counts load-time registrations);
* **Integrity** — truncation and bit-flips fail with the stable
  ``pack_corrupt`` code; a body that verifies byte-wise but hashes to a
  different universe than recorded (or than the caller pinned with
  ``expect_fingerprint``) fails with ``pack_stale``;
* **One error table** — ``pack_corrupt`` / ``pack_stale`` live in the
  canonical table of :mod:`repro.errors`, which the serving protocol
  reads, and the CLI exits with the table's exit code;
* **Unified constructor** — :func:`repro.api.open_workspace` opens
  builtin keys, universe documents, project documents, and packs
  through one signature, and the old scattered constructors warn.
"""

import functools
import hashlib
import json
import os
import warnings

import pytest

from repro.api import build_pack, load_pack, open_workspace
from repro.corpus import synthesize_project
from repro.errors import (
    ERROR_TABLE,
    PackCorruptError,
    PackError,
    PackStaleError,
    exit_code_for,
    http_status_for,
)
from repro.eval.battery import battery_for
from repro.ide.session import CompletionSession
from repro.ide.workspace import Workspace
from repro.pack import inspect_pack, verify_pack
from repro.serialize import dump_type_system, load_type_system
from tests.conftest import scaling_spec

UNIVERSES = ("paint", "geometry", "bcl")

#: (family, seed) plans for the transformed-universe round-trips
FUZZ_PLANS = [
    [("rename_types", 7)],
    [("reorder_members", 3), ("shuffle_interfaces", 5)],
    [("split_types", 11), ("rename_members", 2)],
]


@functools.lru_cache(maxsize=None)
def scaling_project():
    return synthesize_project(scaling_spec(90))


def battery_top10(workspace, universe):
    """Suggestion texts for every battery query of ``universe``; for
    ``scaling/90``, the ``?({a, b})`` query over its client's first two
    locals."""
    if universe == "scaling/90":
        project = scaling_project()
        scope = list(project.impls[0].context(project.ts).locals.items())
        session = CompletionSession(workspace)
        for name, typedef in scope[:2]:
            session.declare(name, typedef.full_name)
        query = "?({{{}}})".format(", ".join(name for name, _ in scope[:2]))
        return {query: [s.text for s in session.complete(query).suggestions]}
    session = battery_for(universe).session(workspace)
    return {
        query: [s.text for s in session.complete(query).suggestions]
        for query in battery_for(universe).queries
    }


def stats_sans_version(workspace):
    stats = workspace.engine.dependency_graph().stats()
    stats.pop("built_version")
    return stats


@pytest.fixture(params=UNIVERSES)
def universe(request):
    return request.param


class TestRoundTrip:
    @pytest.mark.parametrize("universe", UNIVERSES + ("scaling/90",))
    def test_builtin_round_trips(self, universe, tmp_path):
        original = (Workspace(scaling_project().ts, name="scale90")
                    if universe == "scaling/90"
                    else Workspace.builtin(universe))
        path = str(tmp_path / "u.pack")
        header = build_pack(original, path)
        assert header["meta"]["fingerprint"] == original.ts.fingerprint()

        loaded = load_pack(path)
        assert loaded.name == original.name
        assert loaded.ts.fingerprint() == original.ts.fingerprint()
        top10 = battery_top10(loaded, universe)
        assert all(top10.values())
        assert top10 == battery_top10(original, universe)
        assert loaded.engine.index.rebuilds == 0
        assert stats_sans_version(loaded) == stats_sans_version(original)

    def test_type_identity_round_trips(self, universe, tmp_path):
        original = Workspace.builtin(universe)
        path = str(tmp_path / "{}.pack".format(universe))
        build_pack(original, path)
        loaded = load_pack(path)

        def identities(ts):
            return sorted((t.full_name, t.namespace, t.name)
                          for t in ts.all_types())

        assert identities(loaded.ts) == identities(original.ts)
        for typedef in loaded.ts.all_types():
            assert typedef.full_name == (
                "{}.{}".format(typedef.namespace, typedef.name)
                if typedef.namespace else typedef.name)
            assert loaded.ts.get(typedef.full_name) is typedef

    def test_loaded_indexes_do_not_rebuild(self, tmp_path):
        path = str(tmp_path / "paint.pack")
        build_pack(Workspace.builtin("paint"), path)
        loaded = load_pack(path)
        restored = loaded.ts._dep_graph
        battery_top10(loaded, "paint")
        assert loaded.engine.index.rebuilds == 0
        assert loaded.engine.reachability.rebuilds == 0
        # the restored graph is the universe's shared graph, current
        # at the loaded version, so the engine serves it without a rebuild
        assert loaded.engine.dependency_graph() is restored

    @pytest.mark.parametrize("plan", FUZZ_PLANS,
                             ids=lambda plan: "+".join(f for f, _ in plan))
    def test_transformed_round_trips(self, plan, tmp_path):
        from repro.fuzz.transforms import apply_transforms

        doc = dump_type_system(Workspace.builtin("geometry").ts)
        doc, _mapping = apply_transforms(doc, plan)
        ts = load_type_system(doc)
        original = Workspace(ts, name="variant")
        path = str(tmp_path / "variant.pack")
        build_pack(original, path)
        loaded = load_pack(path)
        assert loaded.ts.fingerprint() == original.ts.fingerprint()
        assert stats_sans_version(loaded) == stats_sans_version(original)

        # golden top-10 over the transformed universe: the hole query
        # plus a two-local scope over deterministically-chosen types
        candidates = sorted(
            (t for t in original.ts.all_types() if t.methods or t.fields),
            key=lambda t: t.full_name,
        )[:2]

        def top10(workspace):
            from repro.ide.session import CompletionSession

            session = CompletionSession(workspace)
            for index, typedef in enumerate(candidates):
                session.declare("v{}".format(index), typedef.full_name)
            queries = ["?", "?({v0, v1})", "v0.?m"]
            return {
                q: [s.text for s in session.complete(q).suggestions]
                for q in queries
            }

        assert top10(loaded) == top10(original)

    def test_pack_of_loaded_workspace_is_identical(self, tmp_path):
        first = str(tmp_path / "a.pack")
        second = str(tmp_path / "b.pack")
        build_pack(Workspace.builtin("bcl"), first)
        build_pack(load_pack(first), second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()


class TestEditedPack:
    """A pack-loaded workspace serves lazily decoded walks, closures and
    a restored dependency graph; member edits must patch them into the
    same answers a cache-off engine gives over the edited universe."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_battery_after_edits_matches_cache_off_engine(
            self, universe, seed, tmp_path):
        import random

        from repro.codemodel import Field, Method, Parameter
        from repro.engine.completer import EngineConfig

        path = str(tmp_path / "u.pack")
        build_pack(Workspace.builtin(universe), path)
        loaded = load_pack(path)
        ts = loaded.ts
        battery_top10(loaded, universe)  # warm every cache and index
        rng = random.Random(seed)
        owners = sorted(
            (t for t in ts.all_types()
             if not t.is_primitive and (t.fields or t.methods)),
            key=lambda t: t.full_name)
        member_types = sorted(
            (t for t in ts.all_types() if t is not ts.void_type),
            key=lambda t: t.full_name)
        for serial in range(6):
            owner = rng.choice(owners)
            kind = serial % 3
            if kind == 0:
                owner.add_field(Field(
                    "zzF{}".format(serial), rng.choice(member_types)))
            elif kind == 1:
                owner.add_method(Method(
                    "ZzM{}".format(serial),
                    return_type=rng.choice(member_types),
                    params=[Parameter("x", rng.choice(member_types))]))
            else:
                owner.set_member_order(
                    fields=list(reversed(owner.fields)),
                    methods=list(reversed(owner.methods)))
            cache_off = Workspace(
                ts, name="cache-off",
                config=EngineConfig(enable_cache=False))
            assert battery_top10(loaded, universe) == \
                battery_top10(cache_off, universe)


class TestIntegrity:
    @pytest.fixture()
    def pack_path(self, tmp_path):
        path = str(tmp_path / "geometry.pack")
        build_pack(Workspace.builtin("geometry"), path)
        return path

    def test_truncated_pack_is_corrupt(self, pack_path):
        with open(pack_path, "rb") as handle:
            raw = handle.read()
        with open(pack_path, "wb") as handle:
            handle.write(raw[: len(raw) // 2])
        with pytest.raises(PackCorruptError) as excinfo:
            load_pack(pack_path)
        assert excinfo.value.code == "pack_corrupt"

    def test_bit_flip_is_corrupt(self, pack_path):
        with open(pack_path, "rb") as handle:
            raw = bytearray(handle.read())
        raw[-10] ^= 0x01
        with open(pack_path, "wb") as handle:
            handle.write(bytes(raw))
        with pytest.raises(PackCorruptError):
            load_pack(pack_path)

    def test_missing_body_line_is_corrupt(self, pack_path):
        header = open(pack_path, "rb").readline()
        with open(pack_path, "wb") as handle:
            handle.write(header.rstrip(b"\n"))
        with pytest.raises(PackCorruptError):
            verify_pack(pack_path)

    def test_non_pack_file_is_corrupt(self, tmp_path):
        path = str(tmp_path / "not_a_pack.json")
        with open(path, "w") as handle:
            json.dump({"format": "something-else"}, handle)
        with pytest.raises(PackCorruptError):
            inspect_pack(path)

    def test_tampered_universe_with_fixed_checksum_is_stale(self, pack_path):
        # re-sign a swapped body: checksum verifies, but the universe no
        # longer hashes to the fingerprint the header records
        with open(pack_path, "rb") as handle:
            raw = handle.read()
        header_bytes, _, body_bytes = raw.partition(b"\n")
        header = json.loads(header_bytes)
        body = json.loads(body_bytes)
        body["universe"] = dump_type_system(Workspace.builtin("bcl").ts)
        new_body = json.dumps(
            body, separators=(",", ":"), sort_keys=True).encode("utf-8")
        header["checksum"] = hashlib.sha256(new_body).hexdigest()
        with open(pack_path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8"))
            handle.write(b"\n")
            handle.write(new_body)
        with pytest.raises(PackStaleError) as excinfo:
            load_pack(pack_path)
        assert excinfo.value.code == "pack_stale"
        assert excinfo.value.actual != excinfo.value.expected

    def test_expect_fingerprint_mismatch_is_stale(self, pack_path):
        with pytest.raises(PackStaleError) as excinfo:
            load_pack(pack_path, expect_fingerprint="0" * 64)
        assert excinfo.value.expected == "0" * 64
        # and the matching pin succeeds
        fingerprint = inspect_pack(pack_path)["meta"]["fingerprint"]
        workspace = load_pack(pack_path, expect_fingerprint=fingerprint)
        assert workspace.ts.fingerprint() == fingerprint

    def test_verify_pack_accepts_good_artifact(self, pack_path):
        header = verify_pack(pack_path)
        assert header["meta"]["name"] == "geometry"

    def test_pack_of_a_drifted_universe_loads(self, tmp_path):
        # a member list mutated behind the memoised fingerprint: the
        # header must record the digest of what the body holds
        from repro.codemodel import Field

        workspace = Workspace.builtin("paint")
        workspace.ts.fingerprint()
        document = workspace.ts.get("PaintDotNet.Document")
        document.fields.append(Field("zzDrift", workspace.ts.string_type))
        path = str(tmp_path / "drifted.pack")
        header = build_pack(workspace, path)
        loaded = load_pack(path)
        assert loaded.ts.fingerprint() == header["meta"]["fingerprint"]
        assert header["meta"]["fingerprint"] == \
            workspace.ts.fingerprint(fresh=True)

    def test_expect_fingerprint_pins_the_fresh_digest(self):
        from repro.codemodel import Field

        ts = Workspace.builtin("paint").ts
        stamped = ts.fingerprint()
        ts.get("PaintDotNet.Document").fields.append(
            Field("zzDrift", ts.string_type))
        with pytest.raises(PackStaleError):
            open_workspace(ts, expect_fingerprint=stamped)


class TestErrorTable:
    def test_pack_codes_registered_once(self):
        assert ERROR_TABLE["pack_corrupt"] == (422, 2)
        assert ERROR_TABLE["pack_stale"] == (409, 2)
        assert http_status_for("pack_stale") == 409
        assert exit_code_for("pack_corrupt") == 2

    def test_serve_codes_resolve_through_the_canonical_table(self):
        from repro.serve import protocol

        assert http_status_for(protocol.SHED) == 429
        assert protocol.error_body("pack_stale", "x")["status"] == 409

    def test_pack_errors_carry_stable_codes(self):
        assert issubclass(PackCorruptError, PackError)
        assert issubclass(PackStaleError, PackError)
        assert PackCorruptError.code == "pack_corrupt"
        assert PackStaleError.code == "pack_stale"


class TestOpenWorkspace:
    def test_builtin_key(self):
        workspace = open_workspace("paint")
        assert workspace.name == "paintdotnet"

    def test_type_system_instance(self):
        ts = Workspace.builtin("bcl").ts
        workspace = open_workspace(ts)
        assert workspace.ts is ts

    def test_universe_document_path(self, tmp_path):
        path = str(tmp_path / "geo_universe.json")
        ts = Workspace.builtin("geometry").ts
        with open(path, "w") as handle:
            json.dump(dump_type_system(ts), handle)
        workspace = open_workspace(path)
        assert workspace.ts.fingerprint() == ts.fingerprint()
        assert workspace.name == "geo_universe"

    def test_project_document_path(self, tmp_path):
        from repro.corpus import SynthesisSpec, synthesize_project
        from repro.serialize import save_project

        project = synthesize_project(SynthesisSpec(
            name="packproj", seed=99, namespace_root="Pack",
            nouns=["Alpha", "Beta"], num_classes=4))
        path = str(tmp_path / "project.json")
        save_project(project, path)
        workspace = open_workspace(path)
        assert workspace.project is not None
        assert workspace.name == "packproj"

    def test_pack_path(self, tmp_path):
        path = str(tmp_path / "paint.pack")
        build_pack("paint", path)
        workspace = open_workspace(path)
        assert workspace.name == "paintdotnet"

    def test_expect_fingerprint_applies_to_every_source(self):
        with pytest.raises(PackStaleError):
            open_workspace("paint", expect_fingerprint="f" * 64)

    def test_unknown_key_lists_builtins(self):
        with pytest.raises(ValueError, match="paint"):
            open_workspace("no-such-universe")

    def test_unrecognised_file_is_rejected(self, tmp_path):
        path = str(tmp_path / "junk.json")
        with open(path, "w") as handle:
            handle.write('{"format": "mystery"}')
        with pytest.raises(ValueError, match="not a recognised artifact"):
            open_workspace(path)

    def test_no_source_is_a_type_error(self):
        with pytest.raises(TypeError):
            open_workspace()

    def test_builtin_path_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Workspace.builtin("paint")
            open_workspace("geometry")


class TestCli:
    def run(self, *argv):
        from repro.__main__ import main

        lines = []
        code = main(list(argv), write=lines.append)
        return code, "\n".join(lines)

    def test_build_inspect_verify_load(self, tmp_path):
        path = str(tmp_path / "bcl.pack")
        code, out = self.run("pack", "build", "bcl", "-o", path)
        assert code == 0 and "fingerprint" in out
        code, out = self.run("pack", "inspect", path)
        assert code == 0 and "mini-bcl" in out
        code, out = self.run("pack", "inspect", path, "--json")
        assert code == 0
        assert json.loads(out)["format"] == "repro-pack"
        code, out = self.run("pack", "verify", path)
        assert code == 0 and out.startswith("ok:")
        code, out = self.run("pack", "load", path)
        assert code == 0 and "mini-bcl" in out

    def test_corrupt_pack_exits_with_table_code(self, tmp_path):
        path = str(tmp_path / "geometry.pack")
        build_pack("geometry", path)
        with open(path, "ab") as handle:
            handle.write(b"garbage")
        code, out = self.run("pack", "verify", path)
        assert code == exit_code_for("pack_corrupt")
        assert "[pack_corrupt]" in out

    def test_stale_expectation_exits_with_table_code(self, tmp_path):
        path = str(tmp_path / "geometry.pack")
        build_pack("geometry", path)
        code, out = self.run(
            "pack", "verify", path, "--expect-fingerprint", "0" * 64)
        assert code == exit_code_for("pack_stale")
        assert "[pack_stale]" in out

    def test_build_unknown_source_is_usage_error(self, tmp_path):
        code, out = self.run("pack", "build", "nope",
                             "-o", str(tmp_path / "x.pack"))
        assert code == 2 and "error" in out

    def test_missing_file_is_usage_error(self):
        code, out = self.run("pack", "inspect", "/no/such/file.pack")
        assert code == exit_code_for("pack_corrupt")


class TestServeFromPack:
    def test_pool_mounts_pack_workspace(self, tmp_path):
        from repro.serve import EnginePool

        path = str(tmp_path / "paint.pack")
        build_pack("paint", path)
        pool = EnginePool(())
        pool.add_workspace("paintdotnet", load_pack(path))
        tenant = pool.get("paintdotnet")
        assert tenant.workspace.ts.fingerprint() == \
            Workspace.builtin("paint").ts.fingerprint()

    def test_server_constructor_mounts_and_reports_packs(self, tmp_path):
        from repro.serve import CompletionServer

        path = str(tmp_path / "paint.pack")
        build_pack("paint", path)
        lines = []
        server = CompletionServer(universes=(), packs=[path],
                                  log=lines.append)
        try:
            assert lines == ["mounted pack {} as workspace "
                             "'paintdotnet'".format(path)]
            assert list(server.pool.tenants) == ["paintdotnet"]
        finally:
            server.pool.shutdown()

    def test_serve_packs_end_to_end(self, tmp_path):
        from repro.api import serve
        from repro.serve import ServeClient

        path = str(tmp_path / "paint.pack")
        build_pack("paint", path)
        handle = serve(universes=("bcl",), port=0, packs=[path])
        try:
            with ServeClient(handle.url) as client:
                status, body = client.complete(
                    "paintdotnet", "?({img})",
                    locals={"img": "PaintDotNet.Document"})
                assert status == 200, body
                assert body["suggestions"]
        finally:
            handle.stop()
