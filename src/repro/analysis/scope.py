"""Query context: what is in scope at the point of a completion query.

The paper's algorithm "has access to static information about the
surrounding code and libraries: the types of the values used in the
expression, the locals in scope, and the visible library methods and
fields".  :class:`Context` packages exactly that.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..codemodel.members import Field, Method
from ..codemodel.types import TypeDef
from ..codemodel.typesystem import TypeSystem
from ..lang.ast import Call, Expr, FieldAccess, TypeLiteral, Var


def global_roots_of(ts: TypeSystem, typedef: TypeDef) -> List[Expr]:
    """Chain-root expressions contributed by one type: its static
    fields/properties and zero-argument static methods (Sec. 4.2).

    Shared by :meth:`Context.global_roots` (whole-universe sweep) and the
    completion cache's fine-grained root-pool patching, which regenerates
    just the groups of edited types.
    """
    roots: List[Expr] = []
    static_fields, static_methods = ts.static_members(typedef)
    for field in static_fields:
        roots.append(FieldAccess(TypeLiteral(typedef), field))
    for method in static_methods:
        if (
            not method.params
            and method.return_type is not None
            and not method.is_constructor
        ):
            roots.append(Call(method, ()))
    return roots


class Context:
    """The static scope of a query.

    Parameters
    ----------
    type_system:
        The library universe to search.
    locals:
        Mapping from local-variable name to its declared type.  If
        ``this_type`` is given, a ``this`` local is added automatically.
    this_type:
        The type of ``this`` (``None`` inside a static method or at top
        level).
    enclosing_type:
        The type whose static methods are "in scope" (callable without
        qualification); defaults to ``this_type``.
    """

    def __init__(
        self,
        type_system: TypeSystem,
        locals: Optional[Dict[str, TypeDef]] = None,
        this_type: Optional[TypeDef] = None,
        enclosing_type: Optional[TypeDef] = None,
    ) -> None:
        self.ts = type_system
        self.locals: Dict[str, TypeDef] = dict(locals or {})
        self.this_type = this_type
        if this_type is not None:
            self.locals.setdefault("this", this_type)
        self.enclosing_type = enclosing_type or this_type
        # sweeps over the whole universe, memoised per TypeSystem version
        # so a Context kept across an edit sees the edited members
        self._methods_by_name: Optional[
            Tuple[int, Dict[str, List[Method]]]] = None
        self._global_roots: Optional[Tuple[int, Tuple[Expr, ...]]] = None

    # ------------------------------------------------------------------
    # variables
    # ------------------------------------------------------------------
    def has_local(self, name: str) -> bool:
        return name in self.locals

    def local_var(self, name: str) -> Var:
        return Var(name, self.locals[name])

    def local_vars(self) -> List[Var]:
        """Live locals (including ``this``), in declaration order."""
        return [Var(name, type) for name, type in self.locals.items()]

    def global_roots(self) -> Tuple[Expr, ...]:
        """Globals usable as chain roots: static fields/properties and
        zero-argument static methods of every visible type (Sec. 4.2:
        "global (static field or zero-argument static method)")."""
        version = self.ts.version
        if self._global_roots is None or self._global_roots[0] != version:
            roots: List[Expr] = []
            for typedef in self.ts.all_types():
                roots.extend(global_roots_of(self.ts, typedef))
            self._global_roots = (version, tuple(roots))
        return self._global_roots[1]

    def chain_roots(self) -> List[Expr]:
        """Everything a ``?`` hole may start from: locals then globals."""
        return list(self.local_vars()) + list(self.global_roots())

    # ------------------------------------------------------------------
    # methods
    # ------------------------------------------------------------------
    def methods_named(self, name: str) -> List[Method]:
        """Every visible method with the given simple name (used to resolve
        bare-name ``KnownCall`` queries like ``Distance(point, ?)``)."""
        version = self.ts.version
        if self._methods_by_name is None or self._methods_by_name[0] != version:
            table: Dict[str, List[Method]] = {}
            for method in self.ts.all_methods():
                table.setdefault(method.name, []).append(method)
            self._methods_by_name = (version, table)
        return list(self._methods_by_name[1].get(name, ()))

    def is_in_scope_static(self, method: Method) -> bool:
        """Static methods of the enclosing type are callable without
        qualification, "just like instance methods with this as the
        receiver" — the ranking's in-scope-static feature."""
        if not method.is_static or self.enclosing_type is None:
            return False
        if method.declaring_type is self.enclosing_type:
            return True
        declaring = method.declaring_type
        return declaring is not None and self.ts.implicitly_converts(
            self.enclosing_type, declaring
        )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def with_locals(self, locals: Dict[str, TypeDef]) -> "Context":
        """A copy of this context with a different local-variable set."""
        merged = dict(locals)
        return Context(
            self.ts,
            locals=merged,
            this_type=self.this_type,
            enclosing_type=self.enclosing_type,
        )

    def iter_visible_types(self) -> Iterator[TypeDef]:
        yield from self.ts.all_types()
