"""Cross-query completion cache with dependency-footprint invalidation.

The paper's speed argument is per-query laziness: only the top *n*
completions are ever computed.  This module adds the *cross*-query half
of the story (the direction Prospector-style engines take — see
PAPERS.md): queries against the same universe repeat the same work — the
global chain-root pool is rescored from scratch, identical sub-streams
are re-expanded, and the same (method, argument-types) placements are
re-solved.  :class:`CompletionCache` memoises all three across queries
on one engine:

* **scored global roots** — the static fields / zero-argument static
  calls every ``?`` hole starts from.  Their scores depend only on the
  ``depth`` ranking switch (locals are scored per query; they are
  cheap), so one pool per depth flag serves every context.  The pool is
  stored as per-declaring-type *groups* so a member edit re-scores only
  the edited types' groups.
* **sub-streams** — completions of a subexpression under a given
  (context, target type, config) key, kept as re-playable
  :class:`~repro.engine.streams.Materialized` prefixes.  A second query
  asking for the same sub-stream replays the computed prefix from
  memory and only extends it past the known frontier.  Whole-query
  result streams are cached the same way under a distinct tag.
* **placements** — the cheapest injective argument placement per
  (method, argument-type tuple): position vector plus placement cost,
  independent of the concrete argument expressions once the
  abstract-type oracle is out of the picture.

**Invalidation** is two-tier.  Every public lookup compares the
:class:`~repro.codemodel.typesystem.TypeSystem` version counter against
the version the cache was filled under.  On mismatch the cache asks the
type system *which* types changed (``TypeSystem.mutations_since``):

* **fine-grained** (the default; ``fine=False`` restores the old
  behaviour): when every mutation in the window was member-level, the
  cache drops only the entries whose recorded
  :class:`~repro.analysis.deps.QueryFootprint` an edit can reach —
  either the entry's **reads** closure (the universe's shared
  :class:`~repro.analysis.deps.DependencyGraph` forward closure of its
  seed types, captured at population time) meets the mutated names, or
  its **accepting** set (unknown-call argument supertype closures)
  meets the mutated types' method parameter types
  (:func:`~repro.analysis.deps.method_param_types`) — the path by which
  a method newly added to a previously-unrelated type becomes a
  candidate.  Entries with no footprint (``None``: hole queries that
  can read the whole universe) are always dropped.  The entries to drop
  are found through an inverted index kept beside the footprints (read
  name → entries, accepting name → entries, plus the universe-wide
  entries), so a fine pass costs what it drops, not what the cache
  holds.  Root-pool groups of the mutated types are dropped and
  regenerated lazily.
* **coarse** (the documented fallback): everything is dropped when the
  mutation window contains a *structural* edit (registration,
  ``base``/``interfaces`` re-pointing — type distances move globally),
  when the mutation log has been truncated, or when fine invalidation
  is disabled.

The observable contract — a mutation landing between ``warm()`` and a
batched ``complete_many`` never lets the batch see pre-mutation
answers — is pinned in ``tests/test_cache_mutation.py`` and fuzzed on
random universes by ``repro fuzz``'s mutation mode (docs/FUZZING.md);
the fine-grained scheme keeps both green because a preserved entry's
footprint provably excludes every mutated type (docs/PERFORMANCE.md
spells out the argument).  :class:`CacheStats` attributes each
invalidation to its tier and counts the entries preserved.

The cache is deliberately **bypassed** by the engine when a query
cannot safely share state (see ``CompletionEngine._stream_cache``):

* a :class:`~repro.engine.budget.QueryBudget` is attached — budget
  ticks happen inside the stream generators, so a replayed prefix would
  truncate at different points than a cold run;
* an abstract-type oracle is supplied — scores then depend on the
  oracle, which is per-call-site;
* a fault-injection plan is armed — a cached clean result must not
  mask an injected fault (and a faulted result must not poison the
  cache).

The cache, like the engine that owns it, is used from one thread.  Its
one re-entrant lock exists only so that :meth:`CompletionCache.snapshot`
can be read from another thread (``repro serve`` reports a tenant's
cache stats from the server thread while the tenant's own thread runs
queries).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
)

from ..analysis.deps import QueryFootprint, method_param_types
from ..analysis.scope import Context
from ..codemodel.typesystem import TypeSystem
from .streams import Materialized, Scored

#: sentinel distinguishing "cached None" from "not cached"
_MISSING = object()

#: a per-entry dependency footprint (reads closure + accepting set), or
#: ``None`` for universe-wide entries
Footprint = Optional[QueryFootprint]


def context_signature(context: Context) -> Tuple:
    """A hashable key for everything in a :class:`Context` that can
    influence completion results: the locals (order matters — it is the
    tie-break order of chain roots), ``this``, and the enclosing type
    (the in-scope-static ranking term)."""
    return (
        tuple(
            (name, typedef.full_name)
            for name, typedef in context.locals.items()
        ),
        context.this_type.full_name if context.this_type else None,
        context.enclosing_type.full_name if context.enclosing_type else None,
    )


@dataclass
class CacheStats:
    """Hit/miss counters per cache kind, plus lifecycle events."""

    stream_hits: int = 0
    stream_misses: int = 0
    roots_hits: int = 0
    roots_misses: int = 0
    placement_hits: int = 0
    placement_misses: int = 0
    #: whole-cache clears triggered by a TypeSystem version change whose
    #: mutation window could not be invalidated selectively
    invalidations_coarse: int = 0
    #: version changes handled by dropping only footprint-affected entries
    invalidations_fine: int = 0
    #: entries (streams + placements + root-pool groups) kept alive across
    #: fine-grained invalidations
    entries_preserved: int = 0
    #: entries dropped by fine-grained invalidations
    entries_dropped: int = 0
    #: entries dropped by the LRU bound (streams + placements)
    evictions: int = 0

    @property
    def invalidations(self) -> int:
        """Total version-change invalidations, either tier."""
        return self.invalidations_coarse + self.invalidations_fine

    @property
    def hits(self) -> int:
        return self.stream_hits + self.roots_hits + self.placement_hits

    @property
    def misses(self) -> int:
        return self.stream_misses + self.roots_misses + self.placement_misses

    @property
    def hit_rate(self) -> float:
        """Overall hit rate in [0, 1]; 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "stream_hits": self.stream_hits,
            "stream_misses": self.stream_misses,
            "roots_hits": self.roots_hits,
            "roots_misses": self.roots_misses,
            "placement_hits": self.placement_hits,
            "placement_misses": self.placement_misses,
            "invalidations": self.invalidations,
            "invalidations_coarse": self.invalidations_coarse,
            "invalidations_fine": self.invalidations_fine,
            "entries_preserved": self.entries_preserved,
            "entries_dropped": self.entries_dropped,
            "evictions": self.evictions,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }


class _RootPool:
    """One cached global-root pool, grouped by declaring type.

    ``groups`` maps a declaring type's full name to its scored root
    expressions; ``missing`` names types whose groups must be
    regenerated before the pool can be served flat (set by fine-grained
    invalidation — a mutated type may have gained its first static
    member, so every mutated name lands here, grouped or not).  ``flat``
    memoises the concatenation in current registration order, so the
    served pool is byte-for-byte the order a cold engine would build.
    """

    __slots__ = ("groups", "missing", "flat")

    def __init__(self, groups: Dict[str, List[Scored]]) -> None:
        self.groups = groups
        self.missing: set = set()
        self.flat: Optional[List[Scored]] = None


class _FootprintIndex:
    """The recorded footprint of every entry of one LRU map, plus the
    inverted index fine-grained invalidation reads: read name → keys,
    accepting name → keys, and the keys of universe-wide (``None``)
    entries.  ``affected`` is exactly the set of keys whose footprint
    is ``None`` or :meth:`QueryFootprint.affected_by` the edit, found
    without visiting the others."""

    __slots__ = ("footprints", "reads", "accepting", "universal")

    def __init__(self) -> None:
        self.footprints: Dict[Hashable, Footprint] = {}
        self.reads: Dict[str, set] = {}
        self.accepting: Dict[str, set] = {}
        self.universal: set = set()

    def record(self, key: Hashable, footprint: Footprint) -> None:
        """Record ``key``'s footprint, replacing any earlier one."""
        self.forget(key)
        self.footprints[key] = footprint
        if footprint is None:
            self.universal.add(key)
            return
        for name in footprint.reads:
            self.reads.setdefault(name, set()).add(key)
        for name in footprint.accepting:
            self.accepting.setdefault(name, set()).add(key)

    def forget(self, key: Hashable) -> None:
        """Drop ``key`` and its postings (a no-op when it is not
        recorded)."""
        footprint = self.footprints.pop(key, _MISSING)
        if footprint is _MISSING:
            return
        if footprint is None:
            self.universal.discard(key)
            return
        for postings, names in ((self.reads, footprint.reads),
                                (self.accepting, footprint.accepting)):
            for name in names:
                keys = postings[name]
                keys.discard(key)
                if not keys:
                    del postings[name]

    def affected(
        self, mutated: FrozenSet[str], params: FrozenSet[str]
    ) -> set:
        """The keys a member-level edit of ``mutated`` (with method
        parameter types ``params``) invalidates."""
        hit = set(self.universal)
        for name in mutated:
            hit.update(self.reads.get(name, ()))
        for name in params:
            hit.update(self.accepting.get(name, ()))
        return hit

    def clear(self) -> None:
        self.footprints.clear()
        self.reads.clear()
        self.accepting.clear()
        self.universal.clear()


class CompletionCache:
    """Version-synchronised cross-query memo for one engine.

    ``max_streams`` / ``max_placements`` bound the two LRU maps; the
    root pools are at most two entries (one per depth flag) and are
    never evicted.  ``fine=False`` disables footprint tracking and
    restores unconditional clear-on-mutation (the bench harness uses
    this to measure the coarse baseline).
    """

    def __init__(
        self,
        max_streams: int = 512,
        max_placements: int = 8192,
        fine: bool = True,
    ) -> None:
        self.max_streams = max_streams
        self.max_placements = max_placements
        self.fine = fine
        self.stats = CacheStats()
        self._version: Optional[int] = None
        self._streams: "OrderedDict[Hashable, Materialized]" = OrderedDict()
        self._stream_fp = _FootprintIndex()
        self._roots: Dict[Hashable, _RootPool] = {}
        self._placements: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._placement_fp = _FootprintIndex()
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def _sync(self, ts: TypeSystem) -> None:
        """Reconcile with the type system's version.  Caller holds the
        lock.  Fine-grained when the mutation window is fully
        member-level, coarse otherwise."""
        if self._version == ts.version:
            return
        populated = bool(self._streams or self._roots or self._placements)
        mutated = (
            ts.mutations_since(self._version)
            if self.fine and self._version is not None and populated
            else None
        )
        if mutated is None:
            if self._version is not None and populated:
                self.stats.invalidations_coarse += 1
            self._streams.clear()
            self._stream_fp.clear()
            self._roots.clear()
            self._placements.clear()
            self._placement_fp.clear()
        else:
            self._invalidate_fine(ts, mutated)
        self._version = ts.version

    def _invalidate_fine(
        self, ts: TypeSystem, mutated: FrozenSet[str]
    ) -> None:
        """Drop exactly the entries a member-level mutation window can
        have affected.  Caller holds the lock.

        The accepting half of the drop test only fires for types whose
        *method list* changed inside the window: field and property
        edits cannot mint unknown-call candidates, so matching their
        declaring type's pre-existing method parameters (``Object``,
        ``string``, ... on almost any type) would needlessly gut the
        accepting entries on every edit."""
        method_mutated = ts.method_mutations_since(self._version)
        params = method_param_types(
            ts, method_mutated if method_mutated is not None else mutated
        )
        dropped = 0
        preserved = 0
        for entries, footprints in ((self._streams, self._stream_fp),
                                    (self._placements, self._placement_fp)):
            hit = footprints.affected(mutated, params)
            for key in hit:
                del entries[key]
                footprints.forget(key)
            dropped += len(hit)
            preserved += len(entries)
        for pool in self._roots.values():
            # a static root's score depends only on its declaring type
            # (one dot off a TypeLiteral), so the raw mutated set — not
            # the widened one — names every group that can change
            for name in mutated:
                if pool.groups.pop(name, None) is not None:
                    dropped += 1
            preserved += len(pool.groups)
            pool.missing |= set(mutated)
            pool.flat = None
        self.stats.invalidations_fine += 1
        self.stats.entries_dropped += dropped
        self.stats.entries_preserved += preserved

    def clear(self) -> None:
        """Forget every cached entry (stats are kept)."""
        with self._lock:
            self._streams.clear()
            self._stream_fp.clear()
            self._roots.clear()
            self._placements.clear()
            self._placement_fp.clear()
            self._version = None

    # ------------------------------------------------------------------
    # the three memo kinds
    # ------------------------------------------------------------------
    def stream(
        self,
        ts: TypeSystem,
        key: Hashable,
        make: Callable[[], Iterable[Scored]],
        footprint: Optional[Callable[[], Footprint]] = None,
    ) -> Tuple[Materialized, bool]:
        """The shared re-playable stream under ``key``, creating it from
        ``make()`` on a miss.  Returns ``(stream, was_hit)``.

        ``footprint`` is evaluated once, on the miss, to record the
        entry's dependency footprint; omitted (or returning ``None``)
        the entry is treated as universe-wide and dropped on every
        fine-grained invalidation.

        A stream whose underlying generator raised is replaced rather
        than replayed (its error would otherwise re-raise forever, even
        after the cause — say, a transient oracle failure — is gone).
        """
        with self._lock:
            self._sync(ts)
            shared = self._streams.get(key)
            if shared is not None and not shared.broken:
                self._streams.move_to_end(key)
                self.stats.stream_hits += 1
                return shared, True
            self.stats.stream_misses += 1
            shared = Materialized(make())
            self._streams[key] = shared
            self._stream_fp.record(
                key,
                footprint() if footprint is not None and self.fine else None,
            )
            while len(self._streams) > self.max_streams:
                evicted, _ = self._streams.popitem(last=False)
                self._stream_fp.forget(evicted)
                self.stats.evictions += 1
            return shared, False

    def peek(
        self, ts: TypeSystem, key: Hashable
    ) -> Optional[Materialized]:
        """The shared stream under ``key`` if present and healthy, else
        ``None`` — a read-only probe that never creates an entry.

        Traced queries use this: they may *replay* a stream some earlier
        untraced query populated (marked as a cache hit in the trace),
        but on a miss they run privately and must not publish streams
        containing tracer wrappers.
        """
        with self._lock:
            self._sync(ts)
            shared = self._streams.get(key)
            if shared is not None and not shared.broken:
                self._streams.move_to_end(key)
                self.stats.stream_hits += 1
                return shared
            self.stats.stream_misses += 1
            return None

    def global_roots(
        self,
        ts: TypeSystem,
        key: Hashable,
        make_groups: Callable[[], Dict[str, List[Scored]]],
        make_missing: Optional[
            Callable[[Iterable[str]], Dict[str, List[Scored]]]
        ] = None,
    ) -> List[Scored]:
        """The scored global chain-root pool under ``key`` (the pool is
        returned by reference; callers must not mutate it).

        ``make_groups`` builds the whole pool grouped by declaring-type
        full name; ``make_missing`` regenerates just the named groups
        after a fine-grained invalidation (falling back to a full
        rebuild when not supplied).  The flat pool is always served in
        current registration order — identical to what a cold engine
        would enumerate.
        """
        with self._lock:
            self._sync(ts)
            pool = self._roots.get(key)
            if pool is not None and pool.missing and make_missing is None:
                pool = None  # cannot patch: rebuild below
            if pool is not None:
                if pool.missing:
                    self.stats.roots_misses += 1
                    regenerated = make_missing(sorted(pool.missing))
                    for name, group in regenerated.items():
                        if group:
                            pool.groups[name] = group
                        else:
                            pool.groups.pop(name, None)
                    pool.missing.clear()
                    pool.flat = None
                else:
                    self.stats.roots_hits += 1
                if pool.flat is None:
                    pool.flat = self._flatten(ts, pool)
                return pool.flat
            self.stats.roots_misses += 1
            pool = _RootPool(make_groups())
            self._roots[key] = pool
            pool.flat = self._flatten(ts, pool)
            return pool.flat

    @staticmethod
    def _flatten(ts: TypeSystem, pool: _RootPool) -> List[Scored]:
        flat: List[Scored] = []
        for typedef in ts.all_types():
            group = pool.groups.get(typedef.full_name)
            if group:
                flat.extend(group)
        return flat

    def placement(
        self,
        ts: TypeSystem,
        key: Hashable,
        compute: Callable[[], Any],
        footprint: Optional[Callable[[], Footprint]] = None,
    ) -> Any:
        """The memoised placement result under ``key`` (which may
        legitimately be ``None`` — "no valid placement" is cached too).
        ``footprint`` works as in :meth:`stream`."""
        with self._lock:
            self._sync(ts)
            value = self._placements.get(key, _MISSING)
            if value is not _MISSING:
                self._placements.move_to_end(key)
                self.stats.placement_hits += 1
                return value
        # compute outside the lock: placement search can recurse into the
        # ranker and is the one memo whose maker does real work eagerly
        value = compute()
        with self._lock:
            if self._version == ts.version:
                self.stats.placement_misses += 1
                self._placements[key] = value
                self._placement_fp.record(
                    key,
                    footprint()
                    if footprint is not None and self.fine else None,
                )
                while len(self._placements) > self.max_placements:
                    evicted, _ = self._placements.popitem(last=False)
                    self._placement_fp.forget(evicted)
                    self.stats.evictions += 1
        return value

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def entry_footprints(self) -> List[Footprint]:
        """A snapshot of every live entry's dependency footprint —
        streams and placements as recorded (``None`` = universe-wide),
        root-pool groups as singleton reads of their declaring type.
        Feeds the RA103 blast-radius lint and ``impact()`` cache
        estimates."""
        with self._lock:
            footprints: List[Footprint] = [
                self._stream_fp.footprints[key] for key in self._streams
            ]
            footprints.extend(
                self._placement_fp.footprints[key]
                for key in self._placements
            )
            for pool in self._roots.values():
                footprints.extend(
                    QueryFootprint(reads=frozenset((name,)))
                    for name in pool.groups
                )
            return footprints

    def root_pool_groups(self) -> Dict[Hashable, int]:
        """Live group count per root pool key (test introspection)."""
        with self._lock:
            return {
                key: len(pool.groups) for key, pool in self._roots.items()
            }

    def snapshot(self) -> Dict[str, float]:
        """Stats plus current sizes, for ``:cache`` and the bench
        harness."""
        with self._lock:
            data = self.stats.to_dict()
            data["streams"] = float(len(self._streams))
            data["root_pools"] = float(len(self._roots))
            data["root_pool_groups"] = float(sum(
                len(pool.groups) for pool in self._roots.values()
            ))
            data["placements"] = float(len(self._placements))
            return data
