"""The type system: registry, subtyping, implicit conversion, type distance.

``type_distance`` implements the paper's ``td(alpha, beta)``:

    td(a, b) = undefined   if there is no implicit conversion from a to b
             = 0           if a == b
             = 1 + td(s(a), b)   otherwise

where ``s(a)`` is the *declared immediate supertype* of ``a`` that minimises
``td(s(a), b)``; for primitive types the immediate supertypes are the
single-step implicit widening conversions (``int -> long``, ``float ->
double``, ...).  This makes ``td`` the shortest-path length from ``a`` to
``b`` in the declared-supertype graph, which is how we compute it: one
breadth-first walk per source type gives its distance to everything it
converts to, memoised as that source's *distance map*.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from .members import Field, Method
from .types import TypeDef, TypeKind

#: Single-step implicit numeric widening conversions, C#-style.
_PRIMITIVE_WIDENINGS: Dict[str, Tuple[str, ...]] = {
    "byte": ("short",),
    "char": ("int",),
    "short": ("int",),
    "int": ("long", "float"),
    "long": ("float", "decimal"),
    "float": ("double",),
    "double": (),
    "decimal": (),
    "bool": (),
}

#: Numeric primitives, used for comparability checks.
_NUMERIC_PRIMITIVES = frozenset(
    ["byte", "char", "short", "int", "long", "float", "double", "decimal"]
)


class TypeSystem:
    """A registry of :class:`TypeDef` plus subtyping and distance queries.

    A fresh type system is seeded with the standard primitive types and the
    roots ``System.Object``, ``System.ValueType`` and ``System.Enum``, which
    every registered type ultimately derives from.
    """

    #: how many mutation-log entries are kept; ``mutations_since`` answers
    #: ``None`` (forcing coarse invalidation) once a window is truncated
    MUTATION_LOG_LIMIT = 256

    def __init__(self) -> None:
        self._types: Dict[str, TypeDef] = {}
        self._version = 0
        #: per-source distance maps (see :meth:`distances_from`), keyed on
        #: the source ``TypeDef`` itself (types hash by identity)
        self._distance_maps: Dict[TypeDef, Dict[TypeDef, int]] = {}
        self._supertype_cache: Dict[str, Tuple[TypeDef, ...]] = {}
        #: per-type supertype walks (a distance map's keys) and their
        #: sets; dropped with ``_supertype_cache``
        self._supertype_order_cache: Dict[str, Tuple[TypeDef, ...]] = {}
        self._closure_cache: Dict[str, FrozenSet[TypeDef]] = {}
        self._lookup_cache: Dict[str, Tuple[Field, ...]] = {}
        self._method_cache: Dict[str, Tuple[Method, ...]] = {}
        #: (version, origin full name or None for structural,
        #: methods_changed) per mutation
        self._mutation_log: "deque[Tuple[int, Optional[str], bool]]" = deque(
            maxlen=self.MUTATION_LOG_LIMIT)
        self._fingerprint_memo: Optional[Tuple[int, str]] = None
        #: per-type fingerprint line bytes, keyed by full name; a member
        #: edit drops only its origin's entry, a structural one all
        self._fingerprint_lines: Dict[str, bytes] = {}
        #: the universe's shared :class:`~repro.analysis.deps.DependencyGraph`
        #: (owned and patched by :func:`repro.analysis.deps.dependency_graph`)
        self._dep_graph = None
        self._install_core()

    def __getstate__(self) -> dict:
        # the dependency graph is derived state (and refers back to this
        # type system): a copy rebuilds its own on first use
        state = self.__dict__.copy()
        state["_dep_graph"] = None
        return state

    # ------------------------------------------------------------------
    # core types
    # ------------------------------------------------------------------
    def _install_core(self) -> None:
        self.object_type = self.register(TypeDef("Object", "System"))
        self.value_type = self.register(
            TypeDef("ValueType", "System", base=self.object_type)
        )
        self.enum_type = self.register(
            TypeDef("Enum", "System", base=self.value_type)
        )
        self.void_type = self.register(
            TypeDef("void", "", kind=TypeKind.PRIMITIVE)
        )
        self._primitives: Dict[str, TypeDef] = {}
        for name in _PRIMITIVE_WIDENINGS:
            comparable = name in _NUMERIC_PRIMITIVES
            self._primitives[name] = self.register(
                TypeDef(name, "", kind=TypeKind.PRIMITIVE, comparable=comparable)
            )
        self.string_type = self.register(
            TypeDef(
                "String",
                "System",
                base=self.object_type,
                treat_as_primitive=True,
            )
        )

    def primitive(self, name: str) -> TypeDef:
        """Fetch a primitive by its C# keyword name (``"int"``, ...)."""
        return self._primitives[name]

    @property
    def primitives(self) -> Tuple[TypeDef, ...]:
        return tuple(self._primitives.values())

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------
    def register(self, typedef: TypeDef) -> TypeDef:
        """Register a type; full names must be unique.

        Registration wires the type back to this registry, so *later*
        mutations of the type (adding members, re-pointing ``base`` or
        ``interfaces``) also invalidate the memoised distance/lookup
        queries — a type system never serves stale answers.
        """
        key = typedef.full_name
        if key in self._types:
            raise ValueError("duplicate type registration: {}".format(key))
        self._types[key] = typedef
        typedef._registry = self
        self._invalidate_caches()
        return typedef

    def get(self, full_name: str) -> TypeDef:
        return self._types[full_name]

    def try_get(self, full_name: str) -> Optional[TypeDef]:
        return self._types.get(full_name)

    def all_types(self) -> List[TypeDef]:
        return list(self._types.values())

    def all_methods(self) -> Iterator[Method]:
        for typedef in self._types.values():
            yield from typedef.methods

    def _invalidate_caches(
        self,
        origin: Optional[TypeDef] = None,
        methods_changed: bool = True,
    ) -> None:
        """Bump the version and drop memoised queries.

        ``origin`` names the single mutated type for *member-level* edits
        (adding a field/property/method, reordering members); ``None``
        records a *structural* edit (registration, re-pointed ``base`` or
        ``interfaces``) for which consumers must fall back to coarse
        invalidation — structural edits move type distances globally.
        ``methods_changed`` records whether the edit may have changed the
        origin's *method list* (additions or reorders): only such edits
        can mint or re-rank unknown-call candidates, so consumers that
        track candidate sensitivity separately (the completion cache's
        *accepting* footprints, the method index) can skip field- and
        property-only edits.  ``True`` is the conservative default.
        """
        self._version += 1
        if origin is None:
            # only base, interfaces and kind feed distances and supertype
            # lists, and only structural edits move those
            self._distance_maps.clear()
            self._supertype_cache.clear()
            self._supertype_order_cache.clear()
            self._closure_cache.clear()
            self._fingerprint_lines.clear()
        else:
            self._fingerprint_lines.pop(origin.full_name, None)
        self._lookup_cache.clear()
        self._method_cache.clear()
        self._mutation_log.append(
            (self._version,
             origin.full_name if origin is not None else None,
             methods_changed)
        )

    def _mutation_window(
        self, version: int
    ) -> Optional[List[Tuple[int, Optional[str], bool]]]:
        """The log entries after ``version``, or ``None`` when the window
        cannot be answered precisely (future version, truncated log, or a
        structural edit inside the window)."""
        if version > self._version:
            return None
        entries = [entry for entry in self._mutation_log if entry[0] > version]
        if len(entries) != self._version - version:
            return None  # log truncated: some mutations are unaccounted for
        if any(name is None for _, name, _ in entries):
            return None  # structural edit in the window
        return entries

    def mutations_since(self, version: int) -> Optional[FrozenSet[str]]:
        """Full names of the types mutated after ``version``, or ``None``
        when the window cannot be answered precisely.

        ``None`` means a consumer holding state stamped at ``version`` must
        invalidate coarsely: the log was truncated past the window, or some
        edit in the window was structural (no single origin type).  An
        empty frozenset means nothing changed (``version`` is current).
        """
        if version == self._version:
            return frozenset()
        entries = self._mutation_window(version)
        if entries is None:
            return None
        return frozenset(name for _, name, _ in entries)

    def method_mutations_since(self, version: int) -> Optional[FrozenSet[str]]:
        """The subset of :meth:`mutations_since` whose edits may have
        changed a *method list* (method additions, member reorders) — the
        only member-level edits that can mint or re-rank unknown-call
        candidates.  ``None`` exactly when :meth:`mutations_since` is
        ``None``; an empty frozenset means every edit in the window was
        field- or property-only."""
        if version == self._version:
            return frozenset()
        entries = self._mutation_window(version)
        if entries is None:
            return None
        return frozenset(
            name for _, name, methods_changed in entries if methods_changed
        )

    @property
    def version(self) -> int:
        """Monotone mutation counter.

        Bumped on every registration *and* on every mutation of a
        registered type.  Derived structures (the method and reachability
        indexes) stamp the version they were built from and refresh when
        it moves, so they also never serve stale answers.
        """
        return self._version

    def fingerprint(self, fresh: bool = False) -> str:
        """Deterministic structural digest of the registered universe.

        Hashes the sorted type list with each type's kind, supertype
        edges and member signatures — but *not* registration order or
        per-type member order, which are incidental encoding choices.
        Two type systems with the same structure (however built or
        mutated into shape) share a fingerprint; fuzz repro files record
        it so a replay against a drifted universe says so explicitly.

        The digest is memoised against the version counter, and each
        type's share of the hashed bytes is memoised until an edit
        touches that type, so re-stamping after a member edit rehashes
        memoised bytes instead of re-formatting the universe.  Pass
        ``fresh=True`` to recompute every type without either memo —
        what callers that persist or pin a digest use, and how the
        RA104 drift check catches member-list mutations that bypassed
        ``_invalidate()`` and therefore did not move the version.
        """
        if not fresh:
            memo = self._fingerprint_memo
            if memo is not None and memo[0] == self._version:
                return memo[1]
        digest_hex = self._compute_fingerprint(fresh)
        self._fingerprint_memo = (self._version, digest_hex)
        return digest_hex

    def check_fingerprint_drift(self) -> Optional[Tuple[str, str]]:
        """Detect silent structural drift: mutations that bypassed the
        invalidation hooks (e.g. appending to ``TypeDef.fields`` directly).

        Compares a fresh digest against the digest memoised at the same
        version.  Returns ``(stamped, current)`` on drift — reported once;
        the memo is re-stamped (and the per-type memo refilled from the
        fresh recomputation) so repeated checks do not re-report — or
        ``None`` when the universe is clean or no stamp exists yet.
        """
        memo = self._fingerprint_memo
        if memo is None or memo[0] != self._version:
            self.fingerprint()  # stamp the current state for later checks
            return None
        current = self._compute_fingerprint(fresh=True)
        if current == memo[1]:
            return None
        self._fingerprint_memo = (self._version, current)
        return memo[1], current

    def _compute_fingerprint(self, fresh: bool) -> str:
        """The digest over every type's lines; ``fresh`` recomputes each
        type's lines and refills the per-type memo with them."""
        import hashlib

        if fresh:
            self._fingerprint_lines.clear()
        lines = self._fingerprint_lines
        digest = hashlib.sha256()
        for typedef in sorted(self._types.values(),
                              key=lambda t: t.full_name):
            data = lines.get(typedef.full_name)
            if data is None:
                data = lines[typedef.full_name] = _fingerprint_lines(typedef)
            digest.update(data)
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # supertype structure
    # ------------------------------------------------------------------
    def immediate_supertypes(self, typedef: TypeDef) -> Tuple[TypeDef, ...]:
        """Declared one-step supertypes of ``typedef``.

        Classes/structs/enums: the base class (``Object`` implicitly when no
        base is declared) plus declared interfaces.  Interfaces: extended
        interfaces, or ``Object`` when they extend nothing (so that every
        type reaches ``Object``).  Primitives: the one-step widenings.
        """
        key = typedef.full_name
        cached = self._supertype_cache.get(key)
        if cached is not None:
            return cached

        supers: List[TypeDef] = []
        if typedef.kind is TypeKind.PRIMITIVE:
            for target in _PRIMITIVE_WIDENINGS.get(typedef.name, ()):
                supers.append(self._primitives[target])
        else:
            if typedef.base is not None:
                supers.append(typedef.base)
            elif typedef is not self.object_type:
                # a class/struct/enum without a declared base derives
                # Object; interfaces are convertible to Object too
                supers.append(self.object_type)
            supers.extend(
                i for i in typedef.interfaces if i not in supers
            )
        result = tuple(supers)
        self._supertype_cache[key] = result
        return result

    def supertype_order(self, typedef: TypeDef) -> Tuple[TypeDef, ...]:
        """``typedef`` plus everything it implicitly converts to, in BFS
        order over the supertype graph (self first, nearest types next).

        The keys of :meth:`distances_from`, memoised per type until a
        structural edit or a registration; member edits keep it.  Callers
        must not mutate the result.
        """
        key = typedef.full_name
        cached = self._supertype_order_cache.get(key)
        if cached is None:
            cached = self._supertype_order_cache[key] = tuple(
                self.distances_from(typedef))
        return cached

    def supertype_closure(self, typedef: TypeDef) -> FrozenSet[TypeDef]:
        """``typedef`` plus everything it implicitly converts to, as a set
        (memoised with :meth:`supertype_order`)."""
        key = typedef.full_name
        cached = self._closure_cache.get(key)
        if cached is None:
            cached = self._closure_cache[key] = frozenset(
                self.supertype_order(typedef))
        return cached

    def implicitly_converts(self, source: TypeDef, target: TypeDef) -> bool:
        """True iff a value of ``source`` is usable where ``target`` is
        expected (identity, widening, subclassing, interface implementation).
        """
        return self.type_distance(source, target) is not None

    def is_subtype(self, source: TypeDef, target: TypeDef) -> bool:
        """Alias of :meth:`implicitly_converts` for non-primitive intuition."""
        return self.implicitly_converts(source, target)

    # ------------------------------------------------------------------
    # type distance (the paper's td)
    # ------------------------------------------------------------------
    def distances_from(self, source: TypeDef) -> Dict[TypeDef, int]:
        """``td(source, t)`` for every ``t`` that ``source`` implicitly
        converts to, in breadth-first order (``source`` first, at 0).

        One walk per source, memoised until a structural edit or a
        registration; member edits keep it.  Callers must not mutate the
        result.
        """
        distances = self._distance_maps.get(source)
        if distances is not None:
            return distances
        distances = {source: 0}
        frontier = [source]
        depth = 0
        while frontier:
            depth += 1
            next_frontier: List[TypeDef] = []
            for node in frontier:
                for parent in self.immediate_supertypes(node):
                    if parent not in distances:
                        distances[parent] = depth
                        next_frontier.append(parent)
            frontier = next_frontier
        self._distance_maps[source] = distances
        return distances

    def type_distance(self, source: TypeDef, target: TypeDef) -> Optional[int]:
        """``td(source, target)``: BFS depth in the supertype graph.

        Returns ``None`` when undefined (no implicit conversion).
        """
        distances = self._distance_maps.get(source)
        if distances is None:
            distances = self.distances_from(source)
        return distances.get(target)

    # ------------------------------------------------------------------
    # comparability (for the `<` / `>=` operator)
    # ------------------------------------------------------------------
    def join(self, left: TypeDef, right: TypeDef) -> Optional[TypeDef]:
        """The "more general type" of the two, per the paper's operator rule.

        Returns the nearest common supertype reachable from both sides, or
        ``None`` when the only common supertype is ``Object`` for reference
        types (handled by callers deciding comparability).
        """
        if left is right:
            return left
        left_closure = self.supertype_closure(left)
        if right in left_closure:
            return right
        if left in self.supertype_closure(right):
            return left
        # BFS from both; nearest common node by combined distance
        common = left_closure & self.supertype_closure(right)
        if not common:
            return None
        best: Optional[TypeDef] = None
        best_cost = None
        for candidate in common:
            left_d = self.type_distance(left, candidate)
            right_d = self.type_distance(right, candidate)
            if left_d is None or right_d is None:
                continue
            cost = left_d + right_d
            if best_cost is None or cost < best_cost or (
                cost == best_cost and candidate.full_name < best.full_name
            ):
                best = candidate
                best_cost = cost
        return best

    def comparable(self, left: TypeDef, right: TypeDef) -> bool:
        """Can ``left < right`` type-check?

        Numeric primitives compare with one another; other types compare
        only when both sides are flagged ``comparable`` and one side
        converts to the other (e.g. ``DateTime >= DateTime``, same enum).
        """
        if left.name in _NUMERIC_PRIMITIVES and right.name in _NUMERIC_PRIMITIVES:
            if left.kind is TypeKind.PRIMITIVE and right.kind is TypeKind.PRIMITIVE:
                return True
        if not (left.comparable and right.comparable):
            return False
        return self.implicitly_converts(left, right) or self.implicitly_converts(
            right, left
        )

    def comparison_distance(self, left: TypeDef, right: TypeDef) -> Optional[int]:
        """Type distance between the two operands of a comparison.

        The paper scores binary operators as methods with two parameters of
        "the more general type, so the type distance between the two
        arguments to the operator is used".
        """
        if not self.comparable(left, right):
            return None
        direct = self.type_distance(left, right)
        if direct is None:
            direct = self.type_distance(right, left)
        if direct is not None:
            return direct
        general = self.join(left, right)
        if general is None:
            return None
        left_d = self.type_distance(left, general)
        right_d = self.type_distance(right, general)
        if left_d is None or right_d is None:
            return None
        return left_d + right_d

    # ------------------------------------------------------------------
    # member lookup through the hierarchy
    # ------------------------------------------------------------------
    def instance_lookups(self, typedef: TypeDef) -> Tuple[Field, ...]:
        """All instance fields/properties visible on ``typedef`` (declared
        plus inherited through base classes and interfaces)."""
        key = typedef.full_name
        cached = self._lookup_cache.get(key)
        if cached is not None:
            return cached
        seen_names: Set[str] = set()
        result: List[Field] = []
        for holder in self._mro(typedef):
            for member in holder.declared_lookups():
                assert isinstance(member, Field)
                if member.is_static or member.name in seen_names:
                    continue
                seen_names.add(member.name)
                result.append(member)
        final = tuple(result)
        self._lookup_cache[key] = final
        return final

    def instance_methods(self, typedef: TypeDef) -> Tuple[Method, ...]:
        """All instance methods visible on ``typedef`` (incl. inherited)."""
        key = typedef.full_name
        cached = self._method_cache.get(key)
        if cached is not None:
            return cached
        seen: Set[Tuple[str, int]] = set()
        result: List[Method] = []
        for holder in self._mro(typedef):
            for method in holder.methods:
                if method.is_static:
                    continue
                sig = (method.name, len(method.params))
                if sig in seen:
                    continue
                seen.add(sig)
                result.append(method)
        final = tuple(result)
        self._method_cache[key] = final
        return final

    def zero_arg_instance_methods(self, typedef: TypeDef) -> List[Method]:
        return [m for m in self.instance_methods(typedef) if not m.params]

    def static_members(self, typedef: TypeDef) -> Tuple[List[Field], List[Method]]:
        """Static fields/properties and static methods declared on a type."""
        fields = [f for f in typedef.fields if f.is_static]
        fields += [p for p in typedef.properties if p.is_static]
        methods = [m for m in typedef.methods if m.is_static]
        return fields, methods

    def _mro(self, typedef: TypeDef) -> List[TypeDef]:
        """Deterministic linearisation: the type, base chain, then
        interfaces breadth-first."""
        order: List[TypeDef] = []
        seen: Set[TypeDef] = set()
        queue = deque([typedef])
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            order.append(current)
            if current.kind is not TypeKind.PRIMITIVE:
                if current.base is not None:
                    queue.append(current.base)
                queue.extend(current.interfaces)
                if current.base is None and current is not self.object_type:
                    queue.append(self.object_type)
        return order


def _fingerprint_lines(typedef: TypeDef) -> bytes:
    """One type's share of :meth:`TypeSystem.fingerprint`: its header
    line, then its lookups and methods in signature order, each line
    newline-terminated."""
    lines = [
        "type {} kind={} base={} interfaces={} comparable={} "
        "primitive={}".format(
            typedef.full_name,
            typedef.kind.value,
            typedef.base.full_name if typedef.base else "-",
            ",".join(sorted(i.full_name for i in typedef.interfaces)),
            typedef.comparable,
            typedef.treat_as_primitive,
        )
    ]
    for member in sorted(
            list(typedef.fields) + list(typedef.properties),
            key=lambda f: (f.name, f.type.full_name)):
        lines.append("lookup {}:{} static={} property={}".format(
            member.name, member.type.full_name, member.is_static,
            member.is_property))
    for method in sorted(
            typedef.methods,
            key=lambda m: (m.name, [p.type.full_name for p in m.params])):
        lines.append("method {}({}) -> {} static={} ctor={}".format(
            method.name,
            ",".join(p.type.full_name for p in method.params),
            method.return_type.full_name if method.return_type else "void",
            method.is_static,
            method.is_constructor,
        ))
    lines.append("")
    return "\n".join(lines).encode("utf-8")
