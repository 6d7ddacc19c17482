"""Client-code model: projects, implemented methods, statements.

The paper's evaluation extracts queries from method *bodies* in existing
codebases.  A :class:`Project` bundles a library universe (a
:class:`TypeSystem`) with a set of :class:`MethodImpl` — methods that have
bodies made of simple statements.  Statements are deliberately flat (the
algorithm only ever looks at one expression and the code *before* it).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..analysis.scope import Context
from ..codemodel.members import Method
from ..codemodel.types import TypeDef
from ..codemodel.typesystem import TypeSystem
from ..lang.ast import Assign, Call, Compare, Expr


class Statement:
    """Base class of body statements."""

    __slots__ = ()

    def expressions(self) -> Tuple[Expr, ...]:
        """Top-level expressions contained in the statement."""
        return ()


class LocalDecl(Statement):
    """``T name = init;`` (init optional)."""

    __slots__ = ("name", "type", "init")

    def __init__(self, name: str, type: TypeDef, init: Optional[Expr] = None) -> None:
        self.name = name
        self.type = type
        self.init = init

    def expressions(self) -> Tuple[Expr, ...]:
        return (self.init,) if self.init is not None else ()


class ExprStatement(Statement):
    """A bare expression statement — almost always a call."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr) -> None:
        self.expr = expr

    def expressions(self) -> Tuple[Expr, ...]:
        return (self.expr,)


class AssignStatement(Statement):
    """``lhs := rhs;``."""

    __slots__ = ("assign",)

    def __init__(self, assign: Assign) -> None:
        self.assign = assign

    def expressions(self) -> Tuple[Expr, ...]:
        return (self.assign,)


class IfStatement(Statement):
    """``if (lhs op rhs) ...`` — only the condition is modelled."""

    __slots__ = ("condition",)

    def __init__(self, condition: Compare) -> None:
        self.condition = condition

    def expressions(self) -> Tuple[Expr, ...]:
        return (self.condition,)


class ReturnStatement(Statement):
    """``return expr;``."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr) -> None:
        self.expr = expr

    def expressions(self) -> Tuple[Expr, ...]:
        return (self.expr,)


class MethodImpl:
    """A method with a body, belonging to a project.

    ``locals`` are every local declared anywhere in the body (the evaluation
    treats all of a method's locals as live; declaration order is preserved
    so contexts are deterministic).
    """

    def __init__(
        self,
        method: Method,
        locals: Optional[Dict[str, TypeDef]] = None,
        body: Optional[List[Statement]] = None,
    ) -> None:
        self.method = method
        self.locals: Dict[str, TypeDef] = dict(locals or {})
        self.body: List[Statement] = list(body or [])

    def all_locals(self) -> Dict[str, TypeDef]:
        """Parameters + declared locals (+ ``this`` via the context)."""
        scope: Dict[str, TypeDef] = {}
        for param in self.method.params:
            scope[param.name] = param.type
        scope.update(self.locals)
        for stmt in self.body:
            if isinstance(stmt, LocalDecl):
                scope.setdefault(stmt.name, stmt.type)
        return scope

    def context(self, ts: TypeSystem) -> Context:
        this_type = None if self.method.is_static else self.method.declaring_type
        return Context(
            ts,
            locals=self.all_locals(),
            this_type=this_type,
            enclosing_type=self.method.declaring_type,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<MethodImpl {} ({} stmts)>".format(
            self.method.full_name, len(self.body)
        )


#: A site in a project: which impl, which statement index, which expression.
Site = Tuple["MethodImpl", int, Expr]


class Project:
    """A named codebase: a library universe plus implemented methods."""

    def __init__(self, name: str, ts: TypeSystem) -> None:
        self.name = name
        self.ts = ts
        self.impls: List[MethodImpl] = []

    def add_impl(self, impl: MethodImpl) -> MethodImpl:
        self.impls.append(impl)
        return impl

    # ------------------------------------------------------------------
    # site iteration, used by both abstract-type inference and evaluation
    # ------------------------------------------------------------------
    def iter_sites(self) -> Iterator[Site]:
        """Every top-level expression with its impl and statement index."""
        for impl in self.impls:
            for index, stmt in enumerate(impl.body):
                for expr in stmt.expressions():
                    yield impl, index, expr

    def iter_calls(self) -> Iterator[Tuple[MethodImpl, int, Call]]:
        for impl, index, expr in self.iter_sites():
            if isinstance(expr, Call):
                yield impl, index, expr

    def iter_assignments(self) -> Iterator[Tuple[MethodImpl, int, Assign]]:
        for impl, index, expr in self.iter_sites():
            if isinstance(expr, Assign):
                yield impl, index, expr

    def iter_comparisons(self) -> Iterator[Tuple[MethodImpl, int, Compare]]:
        for impl, index, expr in self.iter_sites():
            if isinstance(expr, Compare):
                yield impl, index, expr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Project {} ({} impls)>".format(self.name, len(self.impls))
