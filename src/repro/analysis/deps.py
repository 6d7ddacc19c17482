"""Whole-universe dependency analysis: who can an edit touch?

The engine's cross-query cache historically treated every
:class:`~repro.codemodel.typesystem.TypeSystem` mutation as global —
clear everything, re-warm from scratch.  This module computes the static
dependency structure that makes *selective* invalidation sound:

* :class:`DependencyGraph` — per-:class:`~repro.codemodel.types.TypeDef`
  forward and reverse dependency sets built from two static edge
  families plus one optional membership relation:

  - **supertype edges**: a type depends on its immediate supertypes
    (classes, interfaces, primitive widenings) — the lattice that
    ``type_distance`` and inherited-member lookup walk;
  - **member-signature edges**: a type depends on every type named in
    its declared member signatures (field/property types, method
    parameter and return types) — the reachability steps a ``.?*``
    chain can take out of it;
  - **abstract-type partition membership** (optional, when a
    :class:`~repro.corpus.program.Project` is supplied): which types
    share a union-find partition with a given type — the oracle-backed
    ranking surface of an edit.

  The *accepting* relation — an ``?({args})`` query seeded at a
  parameter type pulling in the method that accepts it — is deliberately
  **not** a static edge family: parameter types like ``string`` are
  accepted nearly everywhere, and routing closures through them would
  collapse every footprint to the whole universe.  It is tracked
  per-entry instead, as the *accepting* half of a
  :class:`QueryFootprint`, matched at invalidation time against
  :func:`method_param_types` of the mutated set — the same trade the
  paper's method index makes by bucketing on exact parameter types and
  walking supertypes at query time.

  A universe has one graph at a time, kept on its type system by
  :func:`dependency_graph` and shared by every engine, lint, ``impact``
  query and pack on it; member edits patch it, structural edits
  rebuild it.

* :meth:`DependencyGraph.footprint` — the forward closure of a seed
  set: every type a member-chain expansion rooted at those seeds can
  read.  The completion cache records one :class:`QueryFootprint` per
  entry at population time — direct signature reads, plus the closure
  of any suffix-hole chain seeds, plus the accepting set — and drops
  exactly the entries an edit intersects (:mod:`repro.engine.cache`).

* :meth:`DependencyGraph.impact` — the reverse direction, as a
  queryable :class:`ImpactReport`: "which root pools, shared streams,
  and index regions can editing these types touch?", surfaced as
  ``repro impact``, the REPL's ``:impact``, and :func:`repro.api.impact`.

* :func:`lint_dependencies` — the RA1xx diagnostics built on the graph
  (god types, dependency cycles outside the subtype lattice, cache
  blast radius, silent fingerprint drift); merged into
  ``Workspace.lint`` output (docs/ANALYSIS.md).

Soundness of footprint invalidation rests on two facts proved by the
ranking model (:mod:`repro.engine.ranking`).  First, a completion's
score depends only on the expression shape, the ranking config,
supertype distances, and the query context — so a member-level edit can
only change entries whose expansion *read* the edited type's member
lists.  The types a bounded search reads are the signatures the
expression names directly plus, for suffix-hole nodes, every type a
member chain from the receiver can step into — the ``reads`` set a
:class:`QueryFootprint` records (direct reads, plus the forward closure
of chain seeds).  Second, the one way an edit creates completions for
an entry that never read it is a new or reordered method ``m(P)``
becoming an unknown-call candidate; ``methods_accepting`` only finds
``m`` via an argument type converting to ``P``, so the entry's
``accepting`` set (argument supertype closures) contains ``P``, and
:func:`method_param_types` of the *method-mutated* set (the mutation
log flags which edits touched a method list — field and property edits
cannot mint candidates) contains ``P`` too — the intersection test
catches it.  Structural edits (registration, ``base``/``interfaces``
re-pointing) carry no origin in the mutation log and force the coarse
path.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..codemodel.types import TypeDef
from ..codemodel.typesystem import TypeSystem
from ..lang.ast import (
    Assign,
    Call,
    Compare,
    Expr,
    FieldAccess,
    Literal,
    TypeLiteral,
    Unfilled,
    Var,
)
from ..lang.partial import (
    Hole,
    KnownCall,
    PartialAssign,
    PartialCompare,
    SuffixHole,
    UnknownCall,
)
from .diagnostics import Diagnostic, diag
from .scope import global_roots_of

#: RA101: reverse closure covering more than this fraction of the
#: (non-primitive) universe marks a god type
GOD_TYPE_FRACTION = 0.5
#: RA101/RA103 need a universe/cache big enough for fractions to mean much
GOD_TYPE_MIN_UNIVERSE = 8
#: RA103: one edit invalidating more than this fraction of footprinted
#: cache entries is worth a warning
BLAST_FRACTION = 0.5
BLAST_MIN_ENTRIES = 8

#: core roots every universe depends on — never reported as god types
_CORE_TYPES = frozenset(
    ["System.Object", "System.ValueType", "System.Enum", "System.String"]
)


def method_param_types(
    ts: TypeSystem, names: Iterable[str]
) -> FrozenSet[str]:
    """The parameter types of the named types' *current* methods — the
    surface through which a member-level edit can have *introduced*
    completions into queries that never read the edited type.

    A method added to type ``T`` with a parameter of type ``P`` becomes
    a candidate only for unknown-call queries whose argument converts to
    ``P`` — and every such query's recorded *accepting* set contains
    ``P`` (accepting sets close over argument supertypes, and
    ``methods_accepting`` only finds ``m`` via a type converting to
    ``P``).  Pre-existing parameter types over-approximate harmlessly.
    """
    params: Set[str] = set()
    for name in names:
        typedef = ts.try_get(name)
        if typedef is None:
            continue
        for method in typedef.methods:
            for param in method.params:
                params.add(param.type.full_name)
    return frozenset(params)


def expand_mutations(
    ts: TypeSystem, names: Iterable[str]
) -> FrozenSet[str]:
    """A mutated-name set widened with :func:`method_param_types` — the
    full set of names an edit can reach either by being read or by
    introducing new index candidates."""
    return frozenset(names) | method_param_types(ts, names)


@dataclass(frozen=True)
class QueryFootprint:
    """What one cache entry's computation depended on.

    ``reads`` is every type whose *member lists* the bounded search can
    have read: the signatures the expression names directly, plus the
    forward dependency closure of any suffix-hole chain seeds.
    ``accepting`` is the supertype closure of the query's unknown-call
    argument types: the parameter types through which a *newly added*
    method anywhere in the universe could become a candidate for this
    entry (empty for queries without an unknown call).  The cache drops
    an entry when ``reads`` meets the raw mutated set or ``accepting``
    meets the *method-mutated* types' method parameter types
    (:func:`method_param_types`) — the two halves of the soundness
    argument in the module docstring.
    """

    reads: FrozenSet[str]
    accepting: FrozenSet[str] = frozenset()

    def affected_by(
        self, mutated: FrozenSet[str], params: FrozenSet[str]
    ) -> bool:
        """Would a member-level edit of ``mutated`` (with method
        parameter types ``params``) invalidate this entry?"""
        return (
            not mutated.isdisjoint(self.reads)
            or not params.isdisjoint(self.accepting)
        )


def footprint_seeds(
    pe: Expr,
) -> Optional[Tuple[FrozenSet[str], FrozenSet[str], FrozenSet[str]]]:
    """``(read_types, chain_seed_types, accepting_arg_types)`` for a
    partial expression, or ``None`` when its completion search is
    universe-wide.

    ``None`` — forcing the cache to drop the entry on every fine-grained
    invalidation — is returned whenever the expression contains a bare
    :class:`Hole` (its expansion enumerates every global chain root), an
    unknown call whose arguments are all wildcards (every method is a
    candidate), or a node kind this walker does not recognise
    (conservative default).

    The three sets distinguish *how* the search can depend on a type:

    * ``read_types`` — types whose declared signatures the node mentions
      directly (a variable's type, a resolved member's declaring type, a
      known candidate's signature).  Completing the node never opens
      other types' member lists through them, so they need **no**
      closure — only an edit to the named type itself matters.
    * ``chain_seed_types`` — receiver types of ``.?``/``.?*`` suffix
      holes, whose expansion *does* walk member chains outward.
      Consumers take the forward dependency closure of these (chain
      steps follow member-signature edges, inherited members follow
      supertype edges).
    * ``accepting_arg_types`` — unknown-call argument types, through
      which a newly added method anywhere becomes a candidate without
      being read.  Consumers close them over supertypes and match them
      against :func:`method_param_types` of the method-mutated set.
    """
    reads: Set[str] = set()
    chains: Set[str] = set()
    accepting: Set[str] = set()
    if _collect_seeds(pe, reads, chains, accepting):
        return frozenset(reads), frozenset(chains), frozenset(accepting)
    return None


def _collect_seeds(
    pe: Expr, reads: Set[str], chains: Set[str], accepting: Set[str]
) -> bool:
    """Accumulate seeds for one node; False = universe-wide search."""
    if isinstance(pe, Hole):
        return False
    if isinstance(pe, (Unfilled, Literal)):
        expr_type = pe.type
        if expr_type is not None:
            reads.add(expr_type.full_name)
        return True
    if isinstance(pe, Var):
        reads.add(pe.type.full_name)
        return True
    if isinstance(pe, TypeLiteral):
        reads.add(pe.typedef.full_name)
        return True
    if isinstance(pe, FieldAccess):
        member = pe.member
        if member.declaring_type is not None:
            reads.add(member.declaring_type.full_name)
        reads.add(member.type.full_name)
        return _collect_seeds(pe.base, reads, chains, accepting)
    if isinstance(pe, Call):
        _method_seeds(pe.method, reads)
        return all(
            _collect_seeds(arg, reads, chains, accepting) for arg in pe.args
        )
    if isinstance(pe, SuffixHole):
        base_type = _static_type(pe.base)
        if base_type is None:
            return False
        chains.add(base_type.full_name)
        return _collect_seeds(pe.base, reads, chains, accepting)
    if isinstance(pe, UnknownCall):
        typed = [arg.type for arg in pe.args if arg.type is not None]
        if not typed:
            # all-wildcard call: every method in the universe is a
            # candidate, so no bounded accepting set exists
            return False
        accepting.update(t.full_name for t in typed)
        return all(
            _collect_seeds(arg, reads, chains, accepting) for arg in pe.args
        )
    if isinstance(pe, KnownCall):
        # candidates are resolved at parse time and embedded in the
        # cache key, so newly added methods cannot enter this entry —
        # no accepting sensitivity
        for method in pe.candidates:
            _method_seeds(method, reads)
        return all(
            _collect_seeds(arg, reads, chains, accepting) for arg in pe.args
        )
    if isinstance(pe, (PartialAssign, PartialCompare, Assign, Compare)):
        return (
            _collect_seeds(pe.lhs, reads, chains, accepting)
            and _collect_seeds(pe.rhs, reads, chains, accepting)
        )
    return False


def _static_type(pe: Expr) -> Optional[TypeDef]:
    """The statically known result type of a concrete receiver
    expression, or ``None`` when the node cannot name one (partial
    receivers)."""
    if isinstance(pe, TypeLiteral):
        return pe.typedef
    if isinstance(pe, (Var, Literal, Unfilled)):
        return pe.type
    if isinstance(pe, FieldAccess):
        return pe.member.type
    if isinstance(pe, Call):
        return pe.method.return_type
    return None


def _method_seeds(method, seeds: Set[str]) -> None:
    if method.declaring_type is not None:
        seeds.add(method.declaring_type.full_name)
    for param in method.all_params():
        seeds.add(param.type.full_name)
    if method.return_type is not None:
        seeds.add(method.return_type.full_name)


@dataclass(frozen=True)
class ImpactReport:
    """What editing a set of types can touch (the reverse query).

    ``affected_types`` is the reverse dependency closure of the seeds —
    every type whose completion results can change.  The remaining
    fields project that closure onto the engine's caches and indexes:
    ``root_pool_types`` are the affected types contributing global
    chain roots (their root-pool groups would be re-scored),
    ``index_methods`` counts the method-index entries a patch would
    rewrite, ``partition_peers`` are types sharing an abstract-type
    union-find partition with a seed (oracle-backed rankings), and the
    ``cache_*`` fields — present only when a live cache was consulted —
    count the entries a fine-grained invalidation would actually drop.
    """

    seeds: Tuple[str, ...]
    unknown: Tuple[str, ...]
    universe_size: int
    affected_types: Tuple[str, ...]
    root_pool_types: Tuple[str, ...]
    index_methods: int
    partition_peers: Tuple[str, ...] = ()
    cache_entries: Optional[int] = None
    cache_invalidated: Optional[int] = None

    @property
    def fraction(self) -> float:
        """Affected share of the universe, in [0, 1]."""
        if not self.universe_size:
            return 0.0
        return len(self.affected_types) / self.universe_size

    def to_dict(self) -> dict:
        data = {
            "seeds": list(self.seeds),
            "unknown": list(self.unknown),
            "universe_size": self.universe_size,
            "affected_types": list(self.affected_types),
            "fraction": round(self.fraction, 4),
            "root_pool_types": list(self.root_pool_types),
            "index_methods": self.index_methods,
            "partition_peers": list(self.partition_peers),
        }
        if self.cache_entries is not None:
            data["cache_entries"] = self.cache_entries
            data["cache_invalidated"] = self.cache_invalidated
        return data

    def render(self) -> List[str]:
        """Human-readable lines for the CLI and REPL."""
        lines = [
            "impact of {} ({} affected of {} types, {:.0%})".format(
                ", ".join(self.seeds) or "(nothing)",
                len(self.affected_types),
                self.universe_size,
                self.fraction,
            )
        ]
        for name in self.unknown:
            lines.append("  unknown type: {}".format(name))
        if self.affected_types:
            lines.append("  affected: {}".format(
                _elide(self.affected_types)))
        if self.root_pool_types:
            lines.append("  root-pool groups: {}".format(
                _elide(self.root_pool_types)))
        lines.append("  method-index entries: {}".format(self.index_methods))
        if self.partition_peers:
            lines.append("  abstract-type partition peers: {}".format(
                _elide(self.partition_peers)))
        if self.cache_entries is not None:
            lines.append(
                "  live cache: {} of {} entries would be invalidated".format(
                    self.cache_invalidated, self.cache_entries))
        return lines


def _elide(names: Sequence[str], limit: int = 8) -> str:
    if len(names) <= limit:
        return ", ".join(names)
    return "{}, ... ({} more)".format(
        ", ".join(names[:limit]), len(names) - limit)


def dependency_graph(ts: TypeSystem) -> "DependencyGraph":
    """The shared :class:`DependencyGraph` of ``ts`` at its current
    version — the one graph every engine, ``impact`` query, lint and
    pack on that universe reads.

    The graph is stored on the type system (so it is collected with
    it).  When the version has moved, a window of member-level edits
    yields a patched copy (:meth:`DependencyGraph.patched`) and a
    structural edit or a truncated mutation log a full rebuild; either
    way the new graph replaces the old one, which readers already
    holding it keep using unchanged.
    """
    graph = ts._dep_graph
    if graph is not None and graph.built_version == ts.version:
        return graph
    mutated = (ts.mutations_since(graph.built_version)
               if graph is not None else None)
    if mutated is None:
        graph = DependencyGraph(ts)
    else:
        graph = graph.patched(mutated)
    return graph.install()


def _forward_edges(ts: TypeSystem, typedef: TypeDef) -> Set[str]:
    """The names ``typedef`` depends on directly: its immediate
    supertypes and every type its declared member signatures name
    (itself excluded)."""
    edges = {parent.full_name for parent in ts.immediate_supertypes(typedef)}
    for member in list(typedef.fields) + list(typedef.properties):
        edges.add(member.type.full_name)
    for method in typedef.methods:
        for param in method.params:
            edges.add(param.type.full_name)
        if method.return_type is not None:
            edges.add(method.return_type.full_name)
    edges.discard(typedef.full_name)
    return edges


class DependencyGraph:
    """The static dependency structure of one universe snapshot.

    Built from a :class:`TypeSystem` at a fixed version
    (``built_version``) and never changed afterwards, apart from
    closure memos filling in.  :func:`dependency_graph` keeps one graph
    per universe current: a member-level edit window makes a patched
    copy that recomputes only the edited types' forward edges; a
    structural edit rebuilds.  Closure queries are memoised per name,
    so repeated footprint computations over a warm engine stay cheap.
    """

    def __init__(
        self, ts: TypeSystem, project: Optional[object] = None
    ) -> None:
        self.ts = ts
        self.built_version = ts.version
        self._forward: Dict[str, Set[str]] = {}
        self._reverse: Dict[str, Set[str]] = {}
        #: supertype-lattice neighbours (both directions), for RA102
        self._lattice: Dict[str, Set[str]] = {}
        self._closure_memo: Dict[str, FrozenSet[str]] = {}
        self._reverse_memo: Dict[str, FrozenSet[str]] = {}
        self._partition_of: Dict[str, Set[int]] = {}
        self._partition_members: Dict[int, Set[str]] = {}
        #: pack-restored closures, still int-encoded (csv of indexes into
        #: ``_pack_strings``); decoded into the memo on first query
        self._packed_closures: Dict[str, str] = {}
        self._packed_reverse: Dict[str, str] = {}
        self._pack_strings: List[str] = []
        self._build()
        if project is not None:
            self._build_partitions(project)
        # stamp the fingerprint memo so later RA104 drift checks have a
        # baseline digest at this version
        ts.fingerprint()

    @classmethod
    def from_snapshot(
        cls,
        ts: TypeSystem,
        forward: Dict[str, Set[str]],
        lattice: Dict[str, Set[str]],
        packed_closures: Dict[str, str],
        packed_reverse: Dict[str, str],
        strings: List[str],
        partition_members: Optional[Dict[int, Set[str]]] = None,
    ) -> "DependencyGraph":
        """Restore a graph from a persisted snapshot (:mod:`repro.pack`)
        instead of re-walking every member signature.

        Edges and the lattice arrive decoded (they are small and every
        query touches them); the closure and reverse-closure memos stay
        int-encoded — csv indexes into ``strings`` — and materialise per
        name on first :meth:`closure` / :meth:`reverse_closure` call, so
        restoring a large universe costs edge decoding, not
        ``O(types * closure size)``.
        """
        self = cls.__new__(cls)
        self.ts = ts
        self.built_version = ts.version
        self._forward = forward
        self._reverse = {name: set() for name in forward}
        for src, dsts in forward.items():
            for dst in dsts:
                self._reverse.setdefault(dst, set()).add(src)
        self._lattice = lattice
        self._closure_memo = {}
        self._reverse_memo = {}
        self._partition_of = {}
        self._partition_members = dict(partition_members or {})
        for root, members in self._partition_members.items():
            for name in members:
                self._partition_of.setdefault(name, set()).add(root)
        self._packed_closures = packed_closures
        self._packed_reverse = packed_reverse
        self._pack_strings = strings
        ts.fingerprint()
        return self

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        ts = self.ts
        for typedef in ts.all_types():
            name = typedef.full_name
            self._reverse.setdefault(name, set())
            for parent in ts.immediate_supertypes(typedef):
                self._lattice.setdefault(name, set()).add(parent.full_name)
                self._lattice.setdefault(parent.full_name, set()).add(name)
            edges = self._forward[name] = _forward_edges(ts, typedef)
            for dst in edges:
                self._reverse.setdefault(dst, set()).add(name)

    def install(self) -> "DependencyGraph":
        """Make this graph the shared one of its universe (what
        :func:`dependency_graph` serves while the version holds)."""
        self.ts._dep_graph = self
        return self

    def patched(self, mutated: Iterable[str]) -> "DependencyGraph":
        """A copy at the current version after member-level edits of
        ``mutated`` (never structural ones: the lattice is shared).

        Only the mutated types' forward edges are recomputed.  When none
        changed, the copy shares every map and memo with this graph;
        otherwise it gets its own forward and reverse maps with only the
        changed entries replaced, keeps the closure memos that contain
        no changed type, and starts without reverse memos or
        pack-encoded closures.  This graph itself is never modified, so
        a reader holding it sees a consistent snapshot.  Partitions are
        dropped, as a rebuild without a project would.
        """
        ts = self.ts
        ts.fingerprint()  # the RA104 baseline at the new version
        changed: Dict[str, Set[str]] = {}
        for name in mutated:
            typedef = ts.try_get(name)
            if typedef is None:
                continue
            edges = _forward_edges(ts, typedef)
            if edges != self._forward.get(name, set()):
                changed[name] = edges
        graph = copy.copy(self)
        graph.built_version = ts.version
        graph._partition_of = {}
        graph._partition_members = {}
        if not changed:
            return graph
        forward = dict(self._forward)
        reverse = dict(self._reverse)
        for name, edges in changed.items():
            old = forward.get(name, set())
            forward[name] = edges
            for dst in old - edges:
                reverse[dst] = reverse[dst] - {name}
            for dst in edges - old:
                reverse[dst] = reverse.get(dst, set()) | {name}
        graph._forward = forward
        graph._reverse = reverse
        graph._closure_memo = {
            name: closure
            for name, closure in dict(self._closure_memo).items()
            if closure.isdisjoint(changed)
        }
        graph._reverse_memo = {}
        graph._packed_closures = {}
        graph._packed_reverse = {}
        graph._pack_strings = []
        return graph

    def _build_partitions(self, project) -> None:
        from .abstract_types import AbstractTypeAnalysis

        analysis = AbstractTypeAnalysis(project)
        for method in self.ts.all_methods():
            receiver = method.declaring_type
            slots = [
                (analysis.param_key(method, index, receiver), param.type)
                for index, param in enumerate(method.all_params())
            ]
            if method.return_type is not None:
                slots.append(
                    (analysis.return_key(method, receiver),
                     method.return_type))
            for key, slot_type in slots:
                root = analysis.uf.find(key)
                if root is None:
                    continue
                name = slot_type.full_name
                self._partition_of.setdefault(name, set()).add(root)
                self._partition_members.setdefault(root, set()).add(name)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def forward(self, name: str) -> FrozenSet[str]:
        """Direct dependencies of ``name`` (types it references)."""
        return frozenset(self._forward.get(name, ()))

    def reverse(self, name: str) -> FrozenSet[str]:
        """Direct dependents of ``name`` (types referencing it)."""
        return frozenset(self._reverse.get(name, ()))

    def closure(self, name: str) -> FrozenSet[str]:
        """Forward dependency closure, including ``name`` itself."""
        if name not in self._closure_memo and self._packed_closures:
            encoded = self._packed_closures.pop(name, None)
            if encoded is not None:
                return self._unpack_closure(name, encoded,
                                            self._closure_memo)
        return self._bfs(name, self._forward, self._closure_memo)

    def reverse_closure(self, name: str) -> FrozenSet[str]:
        """Reverse dependency closure, including ``name`` itself."""
        if name not in self._reverse_memo and self._packed_reverse:
            encoded = self._packed_reverse.pop(name, None)
            if encoded is not None:
                return self._unpack_closure(name, encoded,
                                            self._reverse_memo)
        return self._bfs(name, self._reverse, self._reverse_memo)

    def _unpack_closure(
        self,
        name: str,
        encoded: str,
        memo: Dict[str, FrozenSet[str]],
    ) -> FrozenSet[str]:
        """Decode one pack-restored closure (csv of string-table
        indexes) into the memo."""
        strings = self._pack_strings
        result = frozenset(
            strings[int(tok)] for tok in encoded.split(",")
        ) if encoded else frozenset()
        memo[name] = result
        return result

    def _bfs(
        self,
        name: str,
        edges: Dict[str, Set[str]],
        memo: Dict[str, FrozenSet[str]],
    ) -> FrozenSet[str]:
        cached = memo.get(name)
        if cached is not None:
            return cached
        seen: Set[str] = {name}
        frontier = [name]
        while frontier:
            next_frontier: List[str] = []
            for current in frontier:
                for neighbour in edges.get(current, ()):
                    if neighbour not in seen:
                        seen.add(neighbour)
                        next_frontier.append(neighbour)
            frontier = next_frontier
        result = frozenset(seen)
        memo[name] = result
        return result

    def footprint(self, seed_names: Iterable[str]) -> FrozenSet[str]:
        """Union of the forward closures of the seeds: everything a
        query rooted at them can read.  This is what cache entries
        record at population time."""
        result: Set[str] = set()
        for name in seed_names:
            result |= self.closure(name)
        return frozenset(result)

    def dependents_of(self, names: Iterable[str]) -> FrozenSet[str]:
        """Every type whose cached completions an edit to ``names`` can
        invalidate — the static dual of the cache's two-part drop test:
        the reverse closure of the raw names (queries that *read* the
        edited types) plus every type converting to a parameter type of
        the edited types' methods (queries whose unknown-call arguments
        could pick up a newly added method)."""
        result: Set[str] = set()
        for name in names:
            result |= self.reverse_closure(name)
        params = method_param_types(self.ts, names)
        if params:
            for typedef in self.ts.all_types():
                if typedef.full_name in result:
                    continue
                if any(
                    parent.full_name in params
                    for parent in self.ts.supertype_closure(typedef)
                ):
                    result.add(typedef.full_name)
        return frozenset(result)

    def partition_peers(self, name: str) -> FrozenSet[str]:
        """Types sharing an abstract-type partition with ``name``
        (empty without project-backed partition data)."""
        peers: Set[str] = set()
        for root in self._partition_of.get(name, ()):
            peers |= self._partition_members.get(root, set())
        peers.discard(name)
        return frozenset(peers)

    def impact(
        self,
        type_names: Iterable[str],
        cache: Optional[object] = None,
    ) -> ImpactReport:
        """Answer "what can editing these types touch?".

        ``cache`` may be a live
        :class:`~repro.engine.cache.CompletionCache`; when given, the
        report also counts how many of its current entries a
        member-level edit of the seeds would invalidate.
        """
        ts = self.ts
        seeds: List[str] = []
        unknown: List[str] = []
        for name in type_names:
            (seeds if ts.try_get(name) is not None else unknown).append(name)
        affected = set(self.dependents_of(seeds)) if seeds else set()
        root_pool_types = tuple(sorted(
            name for name in affected
            if (lambda t: t is not None and global_roots_of(ts, t))(
                ts.try_get(name))
        ))
        index_methods = 0
        for method in ts.all_methods():
            declaring = method.declaring_type
            if (declaring is not None
                    and declaring.full_name in affected) or any(
                    p.type.full_name in affected for p in method.params):
                index_methods += 1
        peers: Set[str] = set()
        for name in seeds:
            peers |= self.partition_peers(name)
        cache_entries: Optional[int] = None
        cache_invalidated: Optional[int] = None
        if cache is not None and hasattr(cache, "entry_footprints"):
            footprints = cache.entry_footprints()
            cache_entries = len(footprints)
            raw = frozenset(seeds)
            params = method_param_types(ts, seeds)
            cache_invalidated = sum(
                1 for fp in footprints
                if fp is None or fp.affected_by(raw, params)
            )
        return ImpactReport(
            seeds=tuple(seeds),
            unknown=tuple(unknown),
            universe_size=len(ts.all_types()),
            affected_types=tuple(sorted(affected)),
            root_pool_types=root_pool_types,
            index_methods=index_methods,
            partition_peers=tuple(sorted(peers)),
            cache_entries=cache_entries,
            cache_invalidated=cache_invalidated,
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        edge_count = sum(len(dsts) for dsts in self._forward.values())
        return {
            "types": float(len(self._forward)),
            "edges": float(edge_count),
            "built_version": float(self.built_version),
            "partitions": float(len(self._partition_members)),
        }


# ----------------------------------------------------------------------
# RA1xx lints
# ----------------------------------------------------------------------
def lint_dependencies(
    ts: TypeSystem,
    graph: Optional[DependencyGraph] = None,
    cache: Optional[object] = None,
) -> List[Diagnostic]:
    """Dependency-graph diagnostics (docs/ANALYSIS.md):

    * **RA104** — the fingerprint drifted at an unchanged version: some
      code mutated member lists directly, bypassing ``_invalidate()``;
      warm caches and indexes may be serving stale answers.
    * **RA101** — god type: its reverse dependency closure covers more
      than half the (non-primitive) universe, so any edit to it is
      effectively a global invalidation.
    * **RA102** — a dependency cycle between types not related by
      subtyping: mutual member-signature coupling that defeats
      selective invalidation for the whole cycle.
    * **RA103** — blast radius: editing the type would invalidate more
      than half of the live cache's footprinted entries (only checked
      when a populated cache is passed).
    """
    diagnostics: List[Diagnostic] = []
    drift = ts.check_fingerprint_drift()
    if drift is not None:
        stamped, current = drift
        diagnostics.append(diag(
            "RA104",
            "type-system fingerprint drifted at version {} without "
            "invalidation (stamped {}.., now {}..): member lists were "
            "mutated directly, bypassing _invalidate(); warm caches may "
            "be stale".format(ts.version, stamped[:12], current[:12]),
        ))
    if graph is None or graph.built_version != ts.version:
        graph = dependency_graph(ts)
    diagnostics.extend(_lint_god_types(ts, graph))
    diagnostics.extend(_lint_cycles(ts, graph))
    diagnostics.extend(_lint_blast_radius(ts, graph, cache))
    return diagnostics


def _candidate_types(ts: TypeSystem) -> List[TypeDef]:
    return [
        t for t in ts.all_types()
        if not t.is_primitive and t is not ts.void_type
    ]


def _lint_god_types(
    ts: TypeSystem, graph: DependencyGraph
) -> List[Diagnostic]:
    candidates = _candidate_types(ts)
    names = {t.full_name for t in candidates}
    if len(candidates) < GOD_TYPE_MIN_UNIVERSE:
        return []
    out: List[Diagnostic] = []
    for typedef in candidates:
        name = typedef.full_name
        if name in _CORE_TYPES:
            continue
        if not (typedef.fields or typedef.properties or typedef.methods):
            continue
        # read-coupling only: the accepting half of dependents_of would
        # flag every type with an Object-taking method, but the cache
        # only pays that cost on *method* edits — the god-type signal is
        # how much of the universe *reads* this type on every edit
        dependents = graph.reverse_closure(name) & names
        fraction = len(dependents) / len(candidates)
        if fraction > GOD_TYPE_FRACTION:
            out.append(diag(
                "RA101",
                "god type: {} of {} types ({:.0%}) transitively depend "
                "on it; any edit is effectively a global "
                "invalidation".format(
                    len(dependents), len(candidates), fraction),
                location=name,
            ))
    return out


def _lint_cycles(
    ts: TypeSystem, graph: DependencyGraph
) -> List[Diagnostic]:
    """Strongly connected components of size >= 2 in the dependency
    graph with subtype-lattice-related edges removed."""
    names = {t.full_name for t in _candidate_types(ts)}
    lattice: Dict[str, FrozenSet[str]] = {}

    def related(left: str, right: str) -> bool:
        for name in (left, right):
            if name not in lattice:
                typedef = ts.try_get(name)
                lattice[name] = frozenset(
                    t.full_name for t in ts.supertype_closure(typedef)
                ) if typedef is not None else frozenset()
        return right in lattice[left] or left in lattice[right]

    edges: Dict[str, List[str]] = {}
    for src in names:
        edges[src] = [
            dst for dst in graph.forward(src)
            if dst in names and not related(src, dst)
        ]
    out: List[Diagnostic] = []
    for component in _sccs(edges):
        if len(component) < 2:
            continue
        members = sorted(component)
        out.append(diag(
            "RA102",
            "dependency cycle outside the subtype lattice: {} — a "
            "member edit to any of them invalidates the whole "
            "cycle".format(_elide(members, 6)),
            location=members[0],
        ))
    return out


def _sccs(edges: Dict[str, List[str]]) -> List[List[str]]:
    """Iterative Tarjan strongly-connected components."""
    index_of: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    components: List[List[str]] = []
    counter = [0]

    for start in sorted(edges):
        if start in index_of:
            continue
        work: List[Tuple[str, int]] = [(start, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                index_of[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            neighbours = edges.get(node, ())
            while child_index < len(neighbours):
                neighbour = neighbours[child_index]
                child_index += 1
                if neighbour not in index_of:
                    work[-1] = (node, child_index)
                    work.append((neighbour, 0))
                    advanced = True
                    break
                if neighbour in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[neighbour])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def _lint_blast_radius(
    ts: TypeSystem,
    graph: DependencyGraph,
    cache: Optional[object],
) -> List[Diagnostic]:
    if cache is None or not hasattr(cache, "entry_footprints"):
        return []
    footprints = [
        fp for fp in cache.entry_footprints() if fp is not None
    ]
    if len(footprints) < BLAST_MIN_ENTRIES:
        return []
    reads_incidence: Dict[str, Set[int]] = {}
    accepting_incidence: Dict[str, Set[int]] = {}
    for entry_index, footprint in enumerate(footprints):
        for name in footprint.reads:
            reads_incidence.setdefault(name, set()).add(entry_index)
        for name in footprint.accepting:
            accepting_incidence.setdefault(name, set()).add(entry_index)
    out: List[Diagnostic] = []
    for typedef in _candidate_types(ts):
        name = typedef.full_name
        if name in _CORE_TYPES:
            continue
        hit: Set[int] = set(reads_incidence.get(name, ()))
        for param_name in method_param_types(ts, [name]):
            hit |= accepting_incidence.get(param_name, set())
        fraction = len(hit) / len(footprints)
        if fraction > BLAST_FRACTION:
            out.append(diag(
                "RA103",
                "editing this type would invalidate {} of {} footprinted "
                "cache entries ({:.0%})".format(
                    len(hit), len(footprints), fraction),
                location=name,
            ))
    return out
