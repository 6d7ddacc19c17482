"""Indexes over the library universe.

:class:`MethodIndex` is Figure 8's structure: "An index is maintained that
maps every type to a set of methods for which at least one of the arguments
may be of that type" — organised by *exact* parameter type, with the
supertype walk performed at query time so that "each method index visited
will give progressively worse ranked results".  Given a query's argument
types, the index picks the argument whose candidate set is smallest.

:class:`ReachabilityIndex` is the optional index sketched at the end of
Sec. 4.2 ("queries for multiple field lookups could also be made more
efficient using an index that indicates for each type which types are
reachable by a ``.?*f`` or ``.?*m`` query, [and] how many lookups are
needed").  The completion engine uses it to prune chain search when a
target type is known.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..codemodel.members import Method
from ..codemodel.types import TypeDef
from ..codemodel.typesystem import TypeSystem
from ..testing import faults
from .budget import QueryBudget


class MethodIndex:
    """type -> methods with a parameter of exactly that type (Fig. 8).

    Every bucket lists its methods in whole-universe declaration order
    (declaring types by registration rank, then each type's method
    order), so ranking ties that fall back to bucket order cannot
    diverge between a patched, a restored and a cold index.
    """

    def __init__(self, ts: TypeSystem) -> None:
        self.ts = ts
        #: refreshes served by patching only the mutated types' regions
        self.patches = 0
        #: refreshes that rebuilt the whole index
        self.rebuilds = 0
        self._build()

    @classmethod
    def from_snapshot(
        cls, ts: TypeSystem, by_exact_type: Dict[str, List[Method]]
    ) -> "MethodIndex":
        """Restore an index from persisted parameter buckets
        (:mod:`repro.pack`) instead of scanning every method signature.

        ``by_exact_type`` must hold each bucket in whole-universe
        declaration order — the order :meth:`_build` produces.  The
        declaring-type map and the flat method list are rebuilt with one
        cheap pass (they are pure declaration order, no signature walk).
        """
        self = cls.__new__(cls)
        self.ts = ts
        self._by_exact_type = by_exact_type
        self._by_declaring = {}
        self._all_methods = list(ts.all_methods())
        self._rank = None
        for method in self._all_methods:
            if method.declaring_type is not None:
                self._by_declaring.setdefault(
                    method.declaring_type.full_name, []).append(method)
        self.patches = 0
        self.rebuilds = 0
        self.built_version = ts.version
        return self

    def _build(self) -> None:
        self.built_version = self.ts.version
        #: registration rank per type, built by the first patch
        self._rank: Optional[Dict[TypeDef, int]] = None
        self._by_exact_type: Dict[str, List[Method]] = {}
        self._by_declaring: Dict[str, List[Method]] = {}
        self._all_methods = list(self.ts.all_methods())
        for method in self._all_methods:
            self._index_method(method)

    def _index_method(self, method: Method) -> None:
        if method.declaring_type is not None:
            self._by_declaring.setdefault(
                method.declaring_type.full_name, []).append(method)
        for key in _param_keys(method):
            self._by_exact_type.setdefault(key, []).append(method)

    def refresh(self) -> None:
        """Reconcile the buckets when the type system has moved on.

        A cheap version compare on the hot path keeps the index honest
        against types/members registered after construction.  The index
        depends only on method lists, so it reconciles from
        ``TypeSystem.method_mutations_since``: a window of field- and
        property-only edits just restamps the version, a fully
        member-level window rewrites only the mutated types' runs, and
        anything else (structural edit, truncated log) rebuilds the
        whole index.
        """
        if self.built_version == self.ts.version:
            return
        mutated = self.ts.method_mutations_since(self.built_version)
        if mutated is None:
            self.rebuilds += 1
            self._build()
        else:
            if mutated:
                self._patch(mutated)
                self.patches += 1
            self.built_version = self.ts.version

    def _patch(self, mutated_names) -> None:
        """Replace, in place, each named type's run of methods in the
        flat list and in every bucket its old or new declarations
        touch.  A member edit never re-registers a type, so its run sits
        at the same rank as before and every other method keeps its
        position — the lists stay in whole-universe declaration order
        without a re-sort."""
        if self._rank is None:
            self._rank = {t: r for r, t in enumerate(self.ts.all_types())}
        rank = self._rank
        for name in mutated_names:
            typedef = self.ts.get(name)
            methods = list(typedef.methods)
            runs: Dict[str, List[Method]] = {}
            for method in self._by_declaring.pop(name, ()):
                for key in _param_keys(method):
                    runs[key] = []
            for method in methods:
                for key in _param_keys(method):
                    runs.setdefault(key, []).append(method)
            if methods:
                self._by_declaring[name] = methods
            here = rank[typedef]
            flat = self._all_methods
            start = _first_at_rank(flat, rank, here)
            flat[start:_first_at_rank(flat, rank, here + 1)] = methods
            for key, run in runs.items():
                bucket = self._by_exact_type.setdefault(key, [])
                start = _first_at_rank(bucket, rank, here)
                bucket[start:_first_at_rank(bucket, rank, here + 1)] = run
                if not bucket:
                    del self._by_exact_type[key]

    def methods_with_exact_param(self, typedef: TypeDef) -> List[Method]:
        """Methods having at least one parameter of exactly this type."""
        self.refresh()
        return list(self._by_exact_type.get(typedef.full_name, ()))

    def methods_accepting(
        self, typedef: TypeDef, budget: Optional[QueryBudget] = None
    ) -> List[Method]:
        """Methods with a parameter the given type implicitly converts to —
        the union over the supertype walk, nearest types first.

        A tripped ``budget`` cuts the walk short: the methods gathered so
        far (the *nearest*, best-ranked ones) are returned.
        """
        self.refresh()
        result: List[Method] = []
        seen: set = set()
        for holder in self.ts.supertype_order(typedef):
            if budget is not None and not budget.tick():
                break
            for method in self._by_exact_type.get(holder.full_name, ()):
                if id(method) not in seen:
                    seen.add(id(method))
                    result.append(method)
        return result

    def candidate_methods(
        self,
        arg_types: Sequence[Optional[TypeDef]],
        budget: Optional[QueryBudget] = None,
    ) -> List[Method]:
        """Candidate methods for an unknown call with these argument types.

        "Each of the argument types is looked up to see how many methods
        would have to be considered for that type and the smallest set is
        chosen."  ``None`` entries (wildcard ``0`` arguments) are skipped;
        when every argument is a wildcard, all methods are candidates.
        """
        faults.fire("index_lookup")
        self.refresh()
        best: Optional[List[Method]] = None
        for arg_type in arg_types:
            if arg_type is None:
                continue
            candidates = self.methods_accepting(arg_type, budget)
            if best is None or len(candidates) < len(best):
                best = candidates
        if best is None:
            return list(self._all_methods)
        return best

    def all_methods(self) -> List[Method]:
        self.refresh()
        return list(self._all_methods)

    def __len__(self) -> int:
        self.refresh()
        return len(self._all_methods)

    def stats(self) -> Dict[str, float]:
        """Index shape: how much the per-type buckets narrow the search
        relative to scanning every method."""
        sizes = [len(bucket) for bucket in self._by_exact_type.values()]
        if not sizes:
            return {"methods": float(len(self._all_methods)),
                    "indexed_types": 0.0, "largest_bucket": 0.0,
                    "mean_bucket": 0.0,
                    "patches": float(self.patches),
                    "rebuilds": float(self.rebuilds)}
        return {
            "methods": float(len(self._all_methods)),
            "indexed_types": float(len(sizes)),
            "largest_bucket": float(max(sizes)),
            "mean_bucket": sum(sizes) / len(sizes),
            "patches": float(self.patches),
            "rebuilds": float(self.rebuilds),
        }


def _param_keys(method: Method) -> List[str]:
    """The buckets a method belongs to: its distinct parameter types
    (receiver included), in parameter order."""
    keys: List[str] = []
    for param in method.all_params():
        key = param.type.full_name
        if key not in keys:
            keys.append(key)
    return keys


def _first_at_rank(methods: List[Method], rank, wanted: int) -> int:
    """Bisect a declaration-ordered list for its first method whose
    declaring type ranks at or after ``wanted``."""
    low, high = 0, len(methods)
    while low < high:
        middle = (low + high) // 2
        if rank[methods[middle].declaring_type] < wanted:
            low = middle + 1
        else:
            high = middle
    return low


class ReachabilityIndex:
    """Which types are reachable from a type by lookup chains, and in how
    many steps.  Memoised per (source, allow_methods)."""

    def __init__(self, ts: TypeSystem, max_depth: int = 4) -> None:
        self.ts = ts
        self.max_depth = max_depth
        self.built_version = ts.version
        self._cache: Dict[Tuple[str, bool], Dict[str, int]] = {}
        self._target_cache: Dict[Tuple[str, str, bool], Optional[int]] = {}
        #: per-walk footprint: every type whose member list fed the BFS
        #: (the reached types plus their supertype closures — lookups and
        #: zero-arg methods are inherited, so an edit anywhere up the
        #: lattice of a reached type can open new steps from it)
        self._walk_fp: Dict[Tuple[str, bool], frozenset] = {}
        #: pack-restored walks, still int-encoded (``(dists_csv,
        #: fp_csv)`` per key); decoded into ``_cache`` on first access so
        #: a pack load never pays for walks no query asks about
        self._packed: Dict[Tuple[str, bool], Tuple[str, str]] = {}
        self._pack_strings: List[str] = []
        #: refreshes that dropped only the walks a mutation could touch
        self.patches = 0
        #: refreshes that cleared every memoised walk
        self.rebuilds = 0

    @classmethod
    def from_snapshot(
        cls,
        ts: TypeSystem,
        max_depth: int,
        packed: Dict[Tuple[str, bool], Tuple[str, str]],
        strings: List[str],
    ) -> "ReachabilityIndex":
        """Restore an index from persisted walks (:mod:`repro.pack`).

        ``packed`` maps ``(source_name, allow_methods)`` to the walk's
        still-encoded ``(distances_csv, footprint_csv)`` pair —
        comma-joined indexes into ``strings``, distances interleaved as
        ``sid,dist,...``.  Decoding is deferred to the first
        :meth:`reachable` call per key, which keeps pack cold starts
        proportional to what queries touch rather than universe size.
        """
        self = cls(ts, max_depth=max_depth)
        self._packed = packed
        self._pack_strings = strings
        return self

    def _unpack_walk(
        self, key: Tuple[str, bool], encoded: Tuple[str, str]
    ) -> Dict[str, int]:
        strings = self._pack_strings
        dists_csv, fp_csv = encoded
        distances: Dict[str, int] = {}
        if dists_csv:
            flat = dists_csv.split(",")
            for index in range(0, len(flat), 2):
                distances[strings[int(flat[index])]] = int(flat[index + 1])
        self._cache[key] = distances
        self._walk_fp[key] = (
            frozenset(strings[int(x)] for x in fp_csv.split(","))
            if fp_csv else frozenset()
        )
        return distances

    def refresh(self) -> None:
        """Drop memoised walks when the type system has been mutated.

        Member-level mutation windows drop only the walks whose footprint
        intersects the mutated types; structural edits (or a truncated
        window) clear everything.  A walk from an untouched region is
        unaffected by a member edit elsewhere: new steps can only appear
        from types whose member lists fed the BFS, and those are exactly
        the footprint.
        """
        if self.built_version == self.ts.version:
            return
        mutated = self.ts.mutations_since(self.built_version)
        self.built_version = self.ts.version
        if mutated is None:
            self._cache.clear()
            self._target_cache.clear()
            self._walk_fp.clear()
            self._packed.clear()
            self.rebuilds += 1
            return
        dropped = set()
        for key in list(self._cache):
            fp = self._walk_fp.get(key)
            if fp is None or fp & mutated:
                del self._cache[key]
                self._walk_fp.pop(key, None)
                dropped.add(key)
        if self._packed:
            # packed walks carry their footprint in encoded form; decode
            # just the footprint to apply the same intersection test
            strings = self._pack_strings
            for key in list(self._packed):
                fp_csv = self._packed[key][1]
                fp_ids = fp_csv.split(",") if fp_csv else []
                if any(strings[int(x)] in mutated for x in fp_ids):
                    del self._packed[key]
                    dropped.add(key)
        if dropped:
            for tkey in list(self._target_cache):
                if (tkey[0], tkey[2]) in dropped:
                    del self._target_cache[tkey]
        self.patches += 1

    def reachable(
        self, source: TypeDef, allow_methods: bool
    ) -> Dict[str, int]:
        """Map from reachable type full-name to minimum number of lookups
        (0 for the source itself), bounded by ``max_depth``."""
        self.refresh()
        key = (source.full_name, allow_methods)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if self._packed:
            encoded = self._packed.pop(key, None)
            if encoded is not None:
                return self._unpack_walk(key, encoded)
        distances: Dict[str, int] = {source.full_name: 0}
        frontier = [source]
        for depth in range(1, self.max_depth + 1):
            next_frontier: List[TypeDef] = []
            for typedef in frontier:
                for step_type in self._step_types(typedef, allow_methods):
                    name = step_type.full_name
                    if name not in distances:
                        distances[name] = depth
                        next_frontier.append(step_type)
            frontier = next_frontier
        self._cache[key] = distances
        footprint = set(distances)
        for name in distances:
            reached = self.ts.try_get(name)
            if reached is not None:
                for holder in self.ts.supertype_closure(reached):
                    footprint.add(holder.full_name)
        self._walk_fp[key] = frozenset(footprint)
        return distances

    def _step_types(self, typedef: TypeDef, allow_methods: bool) -> List[TypeDef]:
        types: List[TypeDef] = []
        for member in self.ts.instance_lookups(typedef):
            types.append(member.type)
        if allow_methods:
            for method in self.ts.zero_arg_instance_methods(typedef):
                if method.return_type is not None:
                    types.append(method.return_type)
        return types

    def steps_to_target(
        self,
        source: TypeDef,
        target: TypeDef,
        allow_methods: bool,
        budget: Optional[QueryBudget] = None,
    ) -> Optional[int]:
        """Minimum lookups from ``source`` to *some type convertible to*
        ``target``, or ``None`` if unreachable within ``max_depth``.

        The budget is charged one step per query (the underlying BFS is
        memoised engine-wide, so it is never interrupted mid-build — a
        partial result must not poison the cache).
        """
        if budget is not None:
            budget.tick()
        self.refresh()
        key = (source.full_name, target.full_name, allow_methods)
        if key in self._target_cache:
            return self._target_cache[key]
        best: Optional[int] = None
        for name, steps in self.reachable(source, allow_methods).items():
            if best is not None and steps >= best:
                continue
            reached = self.ts.try_get(name)
            if reached is not None and self.ts.implicitly_converts(reached, target):
                best = steps
        self._target_cache[key] = best
        return best

    def can_reach(
        self,
        source: TypeDef,
        target: TypeDef,
        within: int,
        allow_methods: bool,
        budget: Optional[QueryBudget] = None,
    ) -> bool:
        """Can a chain from ``source`` produce a value usable as ``target``
        within the given number of lookups?"""
        faults.fire("index_lookup")
        steps = self.steps_to_target(source, target, allow_methods, budget)
        return steps is not None and steps <= within

