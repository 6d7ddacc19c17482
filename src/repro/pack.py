"""Persistent universe packs: on-disk index artifacts for cold starts.

A **pack** snapshots a universe *and* the derived state the engine
would otherwise recompute on every process start — the
:class:`~repro.engine.index.MethodIndex` parameter buckets, every
:class:`~repro.engine.index.ReachabilityIndex` walk, the whole-universe
:class:`~repro.analysis.deps.DependencyGraph` (edges, lattice, reverse
closures, abstract-type partitions) — so ``load_pack`` answers the first
query in milliseconds where a rebuild takes seconds (perfbench reports
``pack.load_ms`` and ``pack.build_ms``).

File format (``docs/ARTIFACTS.md``): exactly two ``\\n``-separated
lines of UTF-8 JSON.

* **Line 1 — header**: ``{"format": "repro-pack", "version": 1,
  "checksum": "<sha256 of the body line's bytes>", "meta": {...}}``.
  ``meta`` records the universe name, its
  :meth:`~repro.codemodel.typesystem.TypeSystem.fingerprint`, and size
  counts.  :func:`inspect_pack` reads only this line.
* **Line 2 — body**: the ``repro-universe`` document plus the derived
  sections, all bulky integer sequences comma-joined into strings
  (JSON scans strings far faster than it tokenises numbers, and the
  per-entry payloads decode lazily on first use).

Integrity model:

* byte damage — truncation, checksum mismatch, malformed JSON, an
  undecodable universe — raises :class:`~repro.errors.PackCorruptError`
  (stable code ``pack_corrupt``);
* a pack whose recomputed universe fingerprint disagrees with its
  recorded one, or with the caller's ``expect_fingerprint``, raises
  :class:`~repro.errors.PackStaleError` (stable code ``pack_stale``).

Both codes live in the canonical table in :mod:`repro.errors`, so the
CLI (``repro pack verify``) and the serving layer (``repro serve
--pack``) refuse a bad artifact with the same machine-readable
identity.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Tuple

from .codemodel.typesystem import TypeSystem
from .engine.completer import CompletionEngine, EngineConfig
from .engine.index import MethodIndex, ReachabilityIndex
from .errors import PackCorruptError, PackStaleError
from .ide.workspace import Workspace
from .serialize import dump_type_system, load_type_system

PACK_FORMAT = "repro-pack"
PACK_VERSION = 1

__all__ = [
    "PACK_FORMAT",
    "PACK_VERSION",
    "build_pack",
    "inspect_pack",
    "load_pack",
    "verify_pack",
]


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------

class _Strings:
    """An interning string table; every name in the derived sections is
    stored as its index (``sid``) here."""

    def __init__(self) -> None:
        self.table: List[str] = []
        self._ids: Dict[str, int] = {}

    def sid(self, name: str) -> int:
        existing = self._ids.get(name)
        if existing is not None:
            return existing
        index = len(self.table)
        self._ids[name] = index
        self.table.append(name)
        return index

    def csv(self, names) -> str:
        return ",".join(str(self.sid(name)) for name in names)


def _materialize(workspace: Workspace):
    """Force every derived structure a pack snapshots to exist."""
    engine = workspace.engine
    engine.index.refresh()
    reach = engine.reachability
    for typedef in workspace.ts.all_types():
        reach.reachable(typedef, False)
        reach.reachable(typedef, True)
    if workspace.project is not None:
        # partitions need the project; the shared graph builds without
        # one, so construct (and install) a partitioned graph
        from .analysis.deps import DependencyGraph

        graph = DependencyGraph(workspace.ts,
                                project=workspace.project).install()
    else:
        graph = engine.dependency_graph()
    for name in list(graph._forward):
        graph.reverse_closure(name)
    return engine.index, reach, graph


def _encode_body(workspace: Workspace) -> Dict[str, Any]:
    ts = workspace.ts
    index, reach, graph = _materialize(workspace)
    strings = _Strings()
    # fix sids for all types first so the common case is a small int
    for typedef in ts.all_types():
        strings.sid(typedef.full_name)

    method_ord: Dict[int, int] = {
        id(method): ordinal for ordinal, method in enumerate(ts.all_methods())
    }
    buckets = {
        str(strings.sid(type_name)): ",".join(
            str(method_ord[id(method)]) for method in bucket)
        for type_name, bucket in index._by_exact_type.items()
    }

    walks: Dict[str, List[str]] = {}
    for (source, allow), distances in reach._cache.items():
        dists = ",".join(
            "{},{}".format(strings.sid(name), dist)
            for name, dist in distances.items()
        )
        fp = strings.csv(sorted(reach._walk_fp.get((source, allow), ())))
        walks["{}:{}".format(strings.sid(source), 1 if allow else 0)] = [
            dists, fp]

    deps = {
        "forward": {
            str(strings.sid(src)): strings.csv(sorted(dsts))
            for src, dsts in graph._forward.items()
        },
        "lattice": {
            str(strings.sid(src)): strings.csv(sorted(dsts))
            for src, dsts in graph._lattice.items()
        },
        "rclosures": {
            str(strings.sid(name)): strings.csv(sorted(closure))
            for name, closure in graph._reverse_memo.items()
        },
        "partitions": {
            str(root): strings.csv(sorted(members))
            for root, members in graph._partition_members.items()
        },
    }

    return {
        "universe": dump_type_system(ts),
        "strings": strings.table,
        "index": buckets,
        "reach": walks,
        "deps": deps,
        "max_depth": reach.max_depth,
    }


def build_pack(workspace: Workspace, path: str) -> Dict[str, Any]:
    """Snapshot ``workspace`` (universe + fully materialised derived
    state) into a pack file at ``path``; returns the header dict.

    The body bytes are deterministic for a given universe — no
    timestamps — so identical universes produce identical checksums.
    """
    body = _encode_body(workspace)
    body_bytes = json.dumps(
        body, separators=(",", ":"), sort_keys=True).encode("utf-8")
    from . import __version__

    header = {
        "format": PACK_FORMAT,
        "version": PACK_VERSION,
        "checksum": hashlib.sha256(body_bytes).hexdigest(),
        "meta": {
            "name": workspace.name,
            # fresh: the body holds the real member lists, even when
            # they drifted past the memoised digest
            "fingerprint": workspace.ts.fingerprint(fresh=True),
            "created_by": "repro {}".format(__version__),
            "types": len(workspace.ts.all_types()),
            "methods": sum(1 for _ in workspace.ts.all_methods()),
            "walks": len(body["reach"]),
            "max_depth": body["max_depth"],
        },
    }
    with open(path, "wb") as handle:
        handle.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        handle.write(b"\n")
        handle.write(body_bytes)
    return header


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------

def _read_lines(path: str) -> Tuple[Dict[str, Any], bytes]:
    """Read and structurally validate a pack: returns the parsed header
    and the raw (checksum-verified) body bytes."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise PackCorruptError(
            "cannot read pack {!r}: {}".format(path, exc), path=path)
    newline = raw.find(b"\n")
    if newline < 0:
        raise PackCorruptError(
            "truncated pack {!r}: missing body line".format(path), path=path)
    header_bytes, body_bytes = raw[:newline], raw[newline + 1:]
    try:
        header = json.loads(header_bytes)
    except ValueError:
        raise PackCorruptError(
            "malformed pack header in {!r}".format(path), path=path)
    if not isinstance(header, dict) or header.get("format") != PACK_FORMAT:
        raise PackCorruptError(
            "{!r} is not a repro-pack artifact".format(path), path=path)
    if header.get("version") != PACK_VERSION:
        raise PackCorruptError(
            "unsupported pack version {!r} in {!r} (this build reads "
            "version {})".format(header.get("version"), path, PACK_VERSION),
            path=path)
    digest = hashlib.sha256(body_bytes).hexdigest()
    if digest != header.get("checksum"):
        raise PackCorruptError(
            "checksum mismatch in {!r}: body does not match the recorded "
            "digest".format(path), path=path)
    return header, body_bytes


def inspect_pack(path: str) -> Dict[str, Any]:
    """Parse and return only the header (no body decode, no checksum —
    use :func:`verify_pack` to actually vouch for the artifact)."""
    try:
        with open(path, "rb") as handle:
            header_bytes = handle.readline()
    except OSError as exc:
        raise PackCorruptError(
            "cannot read pack {!r}: {}".format(path, exc), path=path)
    try:
        header = json.loads(header_bytes)
    except ValueError:
        raise PackCorruptError(
            "malformed pack header in {!r}".format(path), path=path)
    if not isinstance(header, dict) or header.get("format") != PACK_FORMAT:
        raise PackCorruptError(
            "{!r} is not a repro-pack artifact".format(path), path=path)
    return header


def _load_universe(header: Dict[str, Any], body_bytes: bytes,
                   path: str) -> Tuple[Dict[str, Any], TypeSystem]:
    try:
        body = json.loads(body_bytes)
    except ValueError:
        raise PackCorruptError(
            "malformed pack body in {!r}".format(path), path=path)
    if not isinstance(body, dict) or "universe" not in body:
        raise PackCorruptError(
            "pack body in {!r} is missing the universe section".format(path),
            path=path)
    try:
        ts = load_type_system(body["universe"])
    except Exception as exc:
        raise PackCorruptError(
            "undecodable universe in {!r}: {}".format(path, exc), path=path)
    return body, ts


def _check_fingerprint(header: Dict[str, Any], ts: TypeSystem, path: str,
                       expect_fingerprint: Optional[str]) -> str:
    actual = ts.fingerprint()
    recorded = header.get("meta", {}).get("fingerprint")
    if recorded != actual:
        raise PackStaleError(
            "stale pack {!r}: recorded universe fingerprint {} but the "
            "loaded universe hashes to {}; rebuild the pack".format(
                path, recorded, actual),
            path=path, expected=recorded, actual=actual)
    if expect_fingerprint is not None and expect_fingerprint != actual:
        raise PackStaleError(
            "stale pack {!r}: caller expects universe fingerprint {} but "
            "the pack holds {}; rebuild the pack".format(
                path, expect_fingerprint, actual),
            path=path, expected=expect_fingerprint, actual=actual)
    return actual


def verify_pack(path: str,
                expect_fingerprint: Optional[str] = None) -> Dict[str, Any]:
    """Full integrity check without building a workspace: header shape,
    body checksum, universe decodability, and fingerprint agreement.
    Returns the header; raises :class:`~repro.errors.PackCorruptError`
    or :class:`~repro.errors.PackStaleError`."""
    header, body_bytes = _read_lines(path)
    _, ts = _load_universe(header, body_bytes, path)
    _check_fingerprint(header, ts, path, expect_fingerprint)
    return header


def _decode_derived(ts: TypeSystem, body: Dict[str, Any], path: str):
    """Build the engine's derived structures from the body's encoded
    sections: returns the method and reachability indexes and installs
    the dependency graph on ``ts`` (raises :class:`PackCorruptError` on
    any malformed section)."""
    from .analysis.deps import DependencyGraph

    try:
        strings: List[str] = body["strings"]
        all_methods = list(ts.all_methods())
        buckets = {
            strings[int(sid)]: [
                all_methods[int(tok)] for tok in csv.split(",")
            ] if csv else []
            for sid, csv in body["index"].items()
        }
        packed_walks: Dict[Tuple[str, bool], Tuple[str, str]] = {}
        for key, (dists, fp) in body["reach"].items():
            sid, _, allow = key.partition(":")
            packed_walks[(strings[int(sid)], allow == "1")] = (dists, fp)
        deps = body["deps"]

        def _edges(section: Dict[str, str]) -> Dict[str, set]:
            return {
                strings[int(sid)]: (
                    {strings[int(tok)] for tok in csv.split(",")}
                    if csv else set()
                )
                for sid, csv in section.items()
            }

        forward = _edges(deps["forward"])
        lattice = {k: v for k, v in _edges(deps["lattice"]).items() if v}
        packed_reverse = {
            strings[int(sid)]: csv for sid, csv in deps["rclosures"].items()
        }
        partitions = {
            int(root): (
                {strings[int(tok)] for tok in csv.split(",")}
                if csv else set()
            )
            for root, csv in deps["partitions"].items()
        }
        max_depth = int(body["max_depth"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise PackCorruptError(
            "undecodable derived sections in {!r}: {}".format(path, exc),
            path=path)

    index = MethodIndex.from_snapshot(ts, buckets)
    reach = ReachabilityIndex.from_snapshot(
        ts, max_depth, packed_walks, strings)
    DependencyGraph.from_snapshot(
        ts, forward, lattice, packed_reverse, strings,
        partition_members=partitions).install()
    return index, reach


def load_pack(
    path: str,
    config: Optional[EngineConfig] = None,
    cache_enabled: Optional[bool] = None,
    expect_fingerprint: Optional[str] = None,
) -> Workspace:
    """Open a pack as a ready :class:`~repro.ide.workspace.Workspace`.

    Verifies the artifact first (checksum, then fingerprint — see the
    module docstring for which error each failure raises), then restores
    the engine around the snapshot: parameter buckets eagerly, walks and
    dependency closures lazily (decoded per entry on first use), so the
    whole call stays proportional to universe *text* size, not derived
    state size.

    ``config`` seeds the restored engine; note the pack's recorded
    ``max_depth`` wins over ``config.max_chain_depth`` for the restored
    walks (they were computed at that depth).
    """
    header, body_bytes = _read_lines(path)
    body, ts = _load_universe(header, body_bytes, path)
    _check_fingerprint(header, ts, path, expect_fingerprint)
    index, reach = _decode_derived(ts, body, path)
    engine = CompletionEngine(ts, config, index=index, reachability=reach)
    name = header.get("meta", {}).get("name") or "pack"
    return Workspace(ts, name=name, engine=engine,
                     cache_enabled=cache_enabled)
