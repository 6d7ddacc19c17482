"""Type definitions for the C#-like code model.

The paper's algorithm consumes static metadata about a .NET-style framework:
classes, interfaces, structs, enums and primitive types arranged in
namespaces, each carrying fields, properties and methods.  ``TypeDef`` is the
single node type for all of these; the :class:`TypeKind` enum distinguishes
the flavours.

Types are created through :class:`repro.codemodel.builder.LibraryBuilder` or
directly and registered with a :class:`repro.codemodel.typesystem.TypeSystem`.
"""

from __future__ import annotations

import enum
from typing import (
    TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .members import Field, Method, Property


class TypeKind(enum.Enum):
    """The flavour of a :class:`TypeDef`."""

    CLASS = "class"
    INTERFACE = "interface"
    STRUCT = "struct"
    ENUM = "enum"
    PRIMITIVE = "primitive"


class TypeDef:
    """A named type in the code model.

    ``name`` and ``namespace`` are fixed at construction (both are
    read-only), so ``full_name`` is formatted once and stored: a
    registry keys its types and every derived index keys its memos by
    that string.  ``namespace_parts``, which the ranking's namespace term
    reads per scored call, is split once the same way.

    Parameters
    ----------
    name:
        The simple (unqualified) name, e.g. ``"Document"``.
    namespace:
        The dotted namespace, e.g. ``"PaintDotNet.Actions"``.  The empty
        string means the global namespace.
    kind:
        The :class:`TypeKind`.
    base:
        The declared base type (``None`` for ``Object``, interfaces without
        an ``Object`` edge get one implicitly in the type system).
    interfaces:
        Interfaces this type declares it implements / extends.
    comparable:
        Whether values of this type can appear on either side of a
        relational operator (``<``, ``>=``, ...).  Numeric primitives,
        ``DateTime``-style types and enums set this.
    treat_as_primitive:
        The paper's namespace feature ignores "primitive types, including
        string"; ``String`` sets this without being a ``PRIMITIVE`` kind.
    """

    __slots__ = (
        "_name",
        "_namespace",
        "_full_name",
        "_namespace_parts",
        "kind",
        "_base",
        "_interfaces",
        "comparable",
        "treat_as_primitive",
        "fields",
        "properties",
        "methods",
        "_member_cache",
        "_registry",
    )

    def __init__(
        self,
        name: str,
        namespace: str = "",
        kind: TypeKind = TypeKind.CLASS,
        base: Optional["TypeDef"] = None,
        interfaces: Tuple["TypeDef", ...] = (),
        comparable: bool = False,
        treat_as_primitive: bool = False,
    ) -> None:
        self._name = name
        self._namespace = namespace
        self._full_name = "{}.{}".format(namespace, name) if namespace \
            else name
        self._namespace_parts: Tuple[str, ...] = \
            tuple(namespace.split(".")) if namespace else ()
        self.kind = kind
        self._base = base
        self._interfaces: Tuple[TypeDef, ...] = tuple(interfaces)
        self.comparable = comparable
        self.treat_as_primitive = treat_as_primitive
        self.fields: List["Field"] = []
        self.properties: List["Property"] = []
        self.methods: List["Method"] = []
        self._member_cache: Optional[Dict[str, object]] = None
        #: the TypeSystem this type is registered with; mutating the type
        #: after registration invalidates the registry's memoised queries
        self._registry = None

    # ------------------------------------------------------------------
    # supertype edges (mutations invalidate the owning registry's caches)
    # ------------------------------------------------------------------
    @property
    def base(self) -> Optional["TypeDef"]:
        """The declared base type."""
        return self._base

    @base.setter
    def base(self, value: Optional["TypeDef"]) -> None:
        self._base = value
        self._invalidate(structural=True)

    @property
    def interfaces(self) -> Tuple["TypeDef", ...]:
        """Interfaces this type declares it implements / extends."""
        return self._interfaces

    @interfaces.setter
    def interfaces(self, value: Tuple["TypeDef", ...]) -> None:
        self._interfaces = tuple(value)
        self._invalidate(structural=True)

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The simple (unqualified) name."""
        return self._name

    @property
    def namespace(self) -> str:
        """The dotted namespace (empty for the global namespace)."""
        return self._namespace

    @property
    def full_name(self) -> str:
        """The namespace-qualified name used for registry lookups."""
        return self._full_name

    @property
    def namespace_parts(self) -> Tuple[str, ...]:
        """The namespace as a tuple of segments (empty for the global ns)."""
        return self._namespace_parts

    @property
    def is_primitive(self) -> bool:
        """True for primitive kinds *and* primitive-like types (string).

        This is the notion of "primitive" used by the ranking function's
        common-namespace feature.
        """
        return self.kind is TypeKind.PRIMITIVE or self.treat_as_primitive

    @property
    def is_interface(self) -> bool:
        return self.kind is TypeKind.INTERFACE

    @property
    def is_enum(self) -> bool:
        return self.kind is TypeKind.ENUM

    # ------------------------------------------------------------------
    # member management
    # ------------------------------------------------------------------
    def _invalidate(
        self,
        structural: bool = False,
        methods: Optional[Iterable["Method"]] = None,
    ) -> None:
        """Report a mutation to the owning registry.

        Member-level edits name this type as the mutation *origin* so the
        completion cache and indexes can invalidate only the entries whose
        dependency footprint touches it; structural edits (supertype-edge
        changes) carry no origin, forcing the coarse path — they can move
        type distances between arbitrary pairs of types.  ``methods``
        lists the methods an edit added or reordered — the only member
        edits able to mint or re-rank unknown-call candidates (field and
        property edits can only be *read*); the log records their
        parameter types, receivers included.
        """
        self._member_cache = None
        if self._registry is not None:
            params = None
            if methods is not None:
                params = frozenset(
                    param.type.full_name
                    for method in methods for param in method.all_params())
            self._registry._invalidate_caches(
                None if structural else self, params=params)

    def add_field(self, field: "Field") -> "Field":
        field.declaring_type = self
        self.fields.append(field)
        self._invalidate()
        return field

    def add_property(self, prop: "Property") -> "Property":
        prop.declaring_type = self
        self.properties.append(prop)
        self._invalidate()
        return prop

    def add_method(self, method: "Method") -> "Method":
        method.declaring_type = self
        self.methods.append(method)
        self._invalidate(methods=(method,))
        return method

    def set_member_order(
        self,
        fields: Optional[List["Field"]] = None,
        properties: Optional[List["Property"]] = None,
        methods: Optional[List["Method"]] = None,
    ) -> None:
        """Reorder declared members in place, invalidating caches.

        Mutating the member lists directly bypasses invalidation — the
        registry's memoised lookups and any warm completion cache would
        serve the old declaration order.  Such silent drift is detected
        after the fact by the RA104 fingerprint-drift lint
        (:func:`repro.analysis.deps.lint_dependencies` compares
        ``TypeSystem.fingerprint(fresh=True)`` against the digest stamped
        at the same version).  Each replacement list must be a permutation
        of the current one (same member objects, new order); ``None``
        leaves that list untouched.
        """
        for label, current, replacement in (
            ("fields", self.fields, fields),
            ("properties", self.properties, properties),
            ("methods", self.methods, methods),
        ):
            if replacement is None:
                continue
            if sorted(map(id, replacement)) != sorted(map(id, current)):
                raise ValueError(
                    "set_member_order: new {} list is not a permutation "
                    "of the declared {} of {}".format(
                        label, label, self.full_name))
            current[:] = replacement
        # a method reorder changes declaration order, the tie-break among
        # equal-scoring same-name candidates — flag it like an addition
        self._invalidate(methods=None if methods is None else self.methods)

    # ------------------------------------------------------------------
    # member lookup (declared members only; inherited lookup lives in the
    # TypeSystem which knows the full hierarchy)
    # ------------------------------------------------------------------
    def declared_lookups(self) -> Iterator[object]:
        """Fields and properties declared directly on this type."""
        yield from self.fields
        yield from self.properties

    def declared_methods_named(self, name: str) -> List["Method"]:
        return [m for m in self.methods if m.name == name]

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<TypeDef {} {}>".format(self.kind.value, self.full_name)

    def __str__(self) -> str:
        return self.full_name
