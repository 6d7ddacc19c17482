"""Cross-query completion cache with dependency-footprint invalidation.

The paper's speed argument is per-query laziness: only the top *n*
completions are ever computed.  This module adds the *cross*-query half
of the story (the direction Prospector-style engines take — see
PAPERS.md): queries against the same universe repeat the same work —
the global chain-root pool is rescored from scratch and identical
sub-streams are re-expanded.  :class:`CompletionCache` memoises both
across queries on one engine:

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
* **parses** — the partial expression a query's source text parses to
  in a given context (``CompletionEngine.parse``), so a repeated query
  skips the parser as well as the search.  Each entry's footprint is the
  parser's read set (:mod:`repro.lang.parser`: the types whose member
  lists name resolution read, or universe-wide for a bare method name);
  it has no accepting half, because a parse never searches for
  candidates.  Parses live in their own LRU map, bounded by the same
  ``max_streams``, and are left out of every counter: the counters
  describe the completion memo, which the parse memo only fronts.

**Invalidation** is two-tier.  Every public lookup compares the
:class:`~repro.codemodel.typesystem.TypeSystem` version counter against
the version the cache was filled under.  On mismatch the cache asks the
type system *which* types changed (``TypeSystem.mutations_since``):

* **fine-grained**: when every mutation in the window was member-level, the
  cache drops only the entries whose recorded
  :class:`~repro.analysis.deps.QueryFootprint` an edit can reach —
  either the entry's **reads** (its direct signature reads plus the
  universe's shared :class:`~repro.analysis.deps.DependencyGraph` chain
  reads of its suffix-hole seeds, captured at population time) meet the
  mutated names, or its **accepting** set (unknown-call argument
  supertype closures) meets the parameter types, receivers included,
  that the mutation log carries for the window's method edits
  (``TypeSystem.method_params_since``) — the path by which a method
  newly added to a previously-unrelated type becomes a candidate.
  Entries with no footprint (``None``: hole queries that can read the
  whole universe) are always dropped.  The entries to drop
  are found through an inverted index kept beside the footprints (read
  name → entries, accepting name → entries, plus the universe-wide
  entries), so a fine pass costs what it drops, not what the cache
  holds.  Root-pool groups of the mutated types are dropped and
  regenerated lazily.
* **coarse**: everything is dropped when the mutation window contains
  a *structural* edit (registration, ``base``/``interfaces``
  re-pointing — type distances move globally) or when the mutation log
  has been truncated.

The observable contract — a mutation landing between ``warm()`` and a
batched ``complete_many`` never lets the batch see pre-mutation
answers — is pinned in ``tests/test_cache_mutation.py`` and fuzzed on
random universes by ``repro fuzz``'s mutation mode (docs/FUZZING.md);
the fine-grained scheme keeps both green because a preserved entry's
footprint provably excludes every mutated type (docs/PERFORMANCE.md
spells out the argument).  The cache counts into its engine's
:class:`~repro.obs.metrics.Metrics` registry, one ``cache_<name>``
counter per entry of :data:`COUNTERS`: lookups by outcome, each
invalidation by tier, the entries fine passes preserve and drop, and
LRU evictions.  :meth:`CompletionCache.snapshot` is the one read-only
view of them.

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
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from ..analysis.deps import QueryFootprint
from ..analysis.scope import Context
from ..codemodel.typesystem import TypeSystem
from ..lang.ast import Expr
from ..obs.metrics import Metrics
from .streams import Materialized, Scored

#: sentinel distinguishing a recorded ``None`` footprint from no record
_MISSING = object()

#: a per-entry dependency footprint (reads closure + accepting set), or
#: ``None`` for universe-wide entries
Footprint = Optional[QueryFootprint]

#: what a cache counts, each as registry counter ``cache_<name>``:
#: sub-stream and root-pool lookups by outcome; version changes handled
#: by a whole-cache clear (coarse) or by dropping only footprint-affected
#: entries (fine); the entries (streams + root-pool groups) fine passes
#: keep alive and drop; and streams dropped by the LRU bound
COUNTERS = (
    "stream_hits", "stream_misses", "roots_hits", "roots_misses",
    "invalidations_coarse", "invalidations_fine",
    "entries_preserved", "entries_dropped", "evictions",
)


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
    """The recorded footprint of every entry of the stream map, plus the
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

    ``metrics`` is the registry the cache counts into, its engine's.
    ``max_streams`` bounds the stream LRU map; the root pools are at
    most two entries (one per depth flag) and are never evicted.
    """

    def __init__(self, metrics: Metrics, max_streams: int = 512) -> None:
        self.metrics = metrics
        self.max_streams = max_streams
        self._version: Optional[int] = None
        self._streams: "OrderedDict[Hashable, Materialized]" = OrderedDict()
        self._stream_fp = _FootprintIndex()
        self._roots: Dict[Hashable, _RootPool] = {}
        self._parses: "OrderedDict[Hashable, Expr]" = OrderedDict()
        self._parse_fp = _FootprintIndex()
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
        # the counters describe streams and root pools only: a window
        # seen by the parse memo alone is invalidated but not counted
        populated = bool(self._streams or self._roots)
        mutated = (
            ts.mutations_since(self._version)
            if self._version is not None and (populated or self._parses)
            else None
        )
        if mutated is None:
            if self._version is not None and populated:
                self.metrics.incr("cache_invalidations_coarse")
            self._clear_entries()
        else:
            for key in self._parse_fp.affected(mutated, frozenset()):
                del self._parses[key]
                self._parse_fp.forget(key)
            if populated:
                self._invalidate_fine(ts, mutated)
        self._version = ts.version

    def _clear_entries(self) -> None:
        self._streams.clear()
        self._stream_fp.clear()
        self._roots.clear()
        self._parses.clear()
        self._parse_fp.clear()

    def _invalidate_fine(
        self, ts: TypeSystem, mutated: FrozenSet[str]
    ) -> None:
        """Drop exactly the entries a member-level mutation window can
        have affected.  Caller holds the lock.

        The accepting half of the drop test matches only the parameter
        types the log carries for the window's method edits: those of an
        added method, or of every method of a type whose methods were
        reordered.  Field and property edits carry none — they cannot
        mint unknown-call candidates — and a type's other, pre-existing
        methods (taking ``Object``, ``string``, ... on almost any type)
        cannot become new candidates either, so matching them would
        needlessly gut the accepting entries on every edit."""
        params = ts.method_params_since(self._version)
        hit = self._stream_fp.affected(mutated, params)
        for key in hit:
            del self._streams[key]
            self._stream_fp.forget(key)
        dropped = len(hit)
        preserved = len(self._streams)
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
        self.metrics.record({
            "cache_invalidations_fine": 1,
            "cache_entries_dropped": dropped,
            "cache_entries_preserved": preserved,
        })

    def clear(self) -> None:
        """Forget every cached entry (the counters are kept)."""
        with self._lock:
            self._clear_entries()
            self._version = None

    # ------------------------------------------------------------------
    # the memo kinds
    # ------------------------------------------------------------------
    def parse(
        self,
        ts: TypeSystem,
        key: Hashable,
        make: Callable[[Set[Optional[str]]], Expr],
    ) -> Tuple[Expr, bool]:
        """The memoised parse under ``key``, made by ``make(reads)`` on a
        miss; ``make`` fills ``reads`` with the parser's read set
        (:func:`repro.lang.parser.parse`), which becomes the entry's
        footprint.  A ``ParseError`` from ``make`` propagates and
        nothing is stored.  Returns ``(expr, was_hit)``."""
        with self._lock:
            self._sync(ts)
            expr = self._parses.get(key)
            if expr is not None:
                self._parses.move_to_end(key)
                return expr, True
        reads: Set[Optional[str]] = set()
        expr = make(reads)
        with self._lock:
            self._sync(ts)
            self._parses[key] = expr
            self._parse_fp.record(
                key, None if None in reads
                else QueryFootprint(reads=frozenset(reads)))
            while len(self._parses) > self.max_streams:
                evicted, _ = self._parses.popitem(last=False)
                self._parse_fp.forget(evicted)
        return expr, False

    def stream(
        self,
        ts: TypeSystem,
        key: Hashable,
        make: Callable[[], Iterable[Scored]],
        footprint: Optional[Callable[[], Footprint]] = None,
    ) -> Tuple[Materialized, bool]:
        """The shared re-playable stream under ``key``, creating it from
        ``make()`` on a miss: one :meth:`peek`, then :meth:`insert` on a
        miss.  Returns ``(stream, was_hit)``."""
        shared = self.peek(ts, key)
        if shared is not None:
            return shared, True
        return self.insert(ts, key, make(), footprint), False

    def peek(
        self, ts: TypeSystem, key: Hashable
    ) -> Optional[Materialized]:
        """The shared stream under ``key`` if present and healthy, else
        ``None`` (a counted miss; nothing is created).  A stream whose
        generator raised is a miss, replaced by the next :meth:`insert`:
        its error would otherwise re-raise forever, even after the cause
        — say, a transient oracle failure — is gone."""
        with self._lock:
            self._sync(ts)
            shared = self._streams.get(key)
            if shared is not None and not shared.broken:
                self._streams.move_to_end(key)
                self.metrics.incr("cache_stream_hits")
                return shared
            self.metrics.incr("cache_stream_misses")
            return None

    def insert(
        self,
        ts: TypeSystem,
        key: Hashable,
        stream: Iterable[Scored],
        footprint: Optional[Callable[[], Footprint]] = None,
    ) -> Materialized:
        """Publish ``stream`` under ``key`` after a :meth:`peek` missed,
        evicting least recently used entries past ``max_streams``.
        ``footprint()`` is the entry's dependency footprint; omitted (or
        ``None``) the entry is universe-wide, dropped on every
        fine-grained invalidation."""
        with self._lock:
            self._sync(ts)
            shared = Materialized(stream)
            self._streams[key] = shared
            self._stream_fp.record(
                key, footprint() if footprint is not None else None
            )
            while len(self._streams) > self.max_streams:
                evicted, _ = self._streams.popitem(last=False)
                self._stream_fp.forget(evicted)
                self.metrics.incr("cache_evictions")
            return shared

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
                    self.metrics.incr("cache_roots_misses")
                    regenerated = make_missing(sorted(pool.missing))
                    for name, group in regenerated.items():
                        if group:
                            pool.groups[name] = group
                        else:
                            pool.groups.pop(name, None)
                    pool.missing.clear()
                    pool.flat = None
                else:
                    self.metrics.incr("cache_roots_hits")
                if pool.flat is None:
                    pool.flat = self._flatten(ts, pool)
                return pool.flat
            self.metrics.incr("cache_roots_misses")
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

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def entry_footprints(self) -> List[Footprint]:
        """A snapshot of every live entry's dependency footprint —
        streams as recorded (``None`` = universe-wide), root-pool groups
        as singleton reads of their declaring type.  Feeds the RA103
        blast-radius lint and ``impact()`` cache estimates."""
        with self._lock:
            footprints: List[Footprint] = [
                self._stream_fp.footprints[key] for key in self._streams
            ]
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
        """The counters, their totals and the current sizes: the one
        read-only view of the cache, read by the REPL's ``:cache``,
        ``CompletionEngine.cache_stats`` (``repro stats``, the serve
        pool's workspace stats, perfbench's cache layer) and the run-log
        manifest's cache attribution.  Hits and misses sum both lookup
        kinds; ``hit_rate`` is 0.0 before any lookup."""
        with self._lock:
            data: Dict[str, float] = {
                name: self.metrics.counter("cache_" + name)
                for name in COUNTERS
            }
            hits = data["stream_hits"] + data["roots_hits"]
            misses = data["stream_misses"] + data["roots_misses"]
            data["hits"] = hits
            data["misses"] = misses
            data["hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
            data["invalidations"] = (
                data["invalidations_coarse"] + data["invalidations_fine"])
            data["streams"] = float(len(self._streams))
            data["root_pools"] = float(len(self._roots))
            data["root_pool_groups"] = float(sum(
                len(pool.groups) for pool in self._roots.values()
            ))
            return data
