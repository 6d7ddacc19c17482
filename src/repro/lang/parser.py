"""Parser for the partial-expression concrete syntax.

Parsing is context-sensitive in the same way C# name lookup is: ``img`` may
be a local, ``PaintDotNet.Document.FromFile`` starts with a type name,
``Distance(point, ?)`` is a bare method-name query.  ``parse(source,
context)`` therefore takes a :class:`repro.analysis.scope.Context` and
resolves names while parsing.

Grammar (tokens in caps)::

    query    := binary EOF
    binary   := operand ((':=' | CMPOP) operand)?
    operand  := primary postfix*
    primary  := '?' '(' '{' exprs '}' ')'     -- unknown call
              | '?' | '0' | NUMBER | STRING | 'null' | 'true' | 'false'
              | IDENT
    postfix  := SUFFIX                        -- .?f .?*f .?m .?*m
              | '.' IDENT
              | '(' exprs? ')'

**Read footprint.**  A parse depends on the universe only through the
member lists name resolution reads, so ``parse(source, context,
reads=set())`` records them, and a memo of the result stays valid for
as long as no member edit touches one of them (the engine's parse memo,
``CompletionEngine.parse``, drops entries by the same rule as cached
streams: :mod:`repro.engine.cache`).  The parser adds to ``reads``:

* the supertype closure of the base type for an instance lookup or
  call (``x.f``, ``x.M(...)``): inherited members are looked up, so a
  same-named member or an overload added anywhere between ``x``'s type
  and the declarer changes the result;
* the type itself for a static member (``T.f``, ``T.M(...)``), plus its
  closure when a call falls back to the flat qualified instance-call
  form, and the type for a constructor (``new T(...)``);
* ``None`` for a bare method name (``M(a, ?)``): every type's methods
  are read, so the parse is universe-wide.

Type names, literals' types and argument conversions are structural:
they change only with registrations and supertype edits, and those
clear every memo coarsely.  A member edit never changes a ``Method`` or
``Field`` object itself, only which ones a type lists and in what
order, so a parse whose read types were not edited resolves to the same
members in the same order.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..analysis.scope import Context

from ..codemodel.members import Field, Method
from ..codemodel.types import TypeDef
from .ast import (
    COMPARE_OPS,
    Call,
    Expr,
    FieldAccess,
    Literal,
    TypeLiteral,
    Unfilled,
    Var,
    is_complete,
)
from .partial import (
    Hole,
    KnownCall,
    PartialAssign,
    PartialCompare,
    SuffixHole,
    UnknownCall,
)


class ParseError(ValueError):
    """Raised on any lexical, syntactic or name-resolution failure.

    ``span`` is the offending ``(start, end)`` character range of the
    query string when the failure can be localised (lexical errors), or
    ``None``; ``repro lint`` forwards it in RA022 diagnostics.
    """

    def __init__(self, message: str, span: "Optional[Tuple[int, int]]" = None):
        super().__init__(message)
        self.span = span


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<suffix>\.\?\*?[fm])
  | (?P<number>\d+\.\d+|\d+)
  | (?P<string>"[^"]*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>:=|<=|>=|==|!=|[?(){},.<>=])
    """,
    re.VERBOSE,
)


def _tokenize(source: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise ParseError(
                "unexpected character {!r} at offset {}".format(source[pos], pos),
                span=(pos, pos + 1),
            )
        pos = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        tokens.append((kind, match.group()))
    tokens.append(("eof", ""))
    return tokens


class _Parser:
    def __init__(self, source: str, context: Context,
                 reads: Optional[Set[Optional[str]]] = None) -> None:
        self.source = source
        self.ctx = context
        self.reads = reads
        self.tokens = _tokenize(source)
        self.pos = 0

    def _read(self, typedef: TypeDef, inherited: bool = False) -> None:
        """Record that resolution read ``typedef``'s member lists (with
        ``inherited``, those of its whole supertype closure)."""
        if self.reads is None:
            return
        if inherited:
            self.reads.update(
                t.full_name for t in self.ctx.ts.supertype_closure(typedef))
        else:
            self.reads.add(typedef.full_name)

    # -- token helpers -------------------------------------------------
    def _peek(self) -> Tuple[str, str]:
        return self.tokens[self.pos]

    def _next(self) -> Tuple[str, str]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def _accept(self, text: str) -> bool:
        kind, value = self._peek()
        if kind == "op" and value == text:
            self.pos += 1
            return True
        return False

    def _expect(self, text: str) -> None:
        if not self._accept(text):
            kind, value = self._peek()
            raise ParseError(
                "expected {!r} but found {!r} in {!r}".format(text, value, self.source)
            )

    def _error(self, message: str) -> ParseError:
        return ParseError("{} in {!r}".format(message, self.source))

    # -- grammar ---------------------------------------------------------
    def parse_query(self) -> Expr:
        expr = self._binary()
        kind, value = self._peek()
        if kind != "eof":
            raise self._error("trailing input starting at {!r}".format(value))
        return expr

    def _binary(self) -> Expr:
        left = self._operand()
        kind, value = self._peek()
        if kind == "op" and value in (":=", "="):
            self._next()
            right = self._operand()
            return self._make_assign(left, right)
        if kind == "op" and value in COMPARE_OPS:
            self._next()
            right = self._operand()
            return self._make_compare(left, value, right)
        return left

    def _make_assign(self, left: Expr, right: Expr) -> Expr:
        if is_complete(left) and is_complete(right):
            from .ast import Assign

            return Assign(left, right)
        return PartialAssign(left, right)

    def _make_compare(self, left: Expr, op: str, right: Expr) -> Expr:
        if is_complete(left) and is_complete(right):
            from .ast import Compare

            return Compare(left, right, op)
        return PartialCompare(left, right, op)

    def _operand(self) -> Expr:
        state = self._primary()
        while True:
            kind, value = self._peek()
            if kind == "suffix":
                self._next()
                expr = self._finish(state)
                methods = value.endswith("m")
                star = "*" in value
                state = _Resolved(SuffixHole(expr, methods=methods, star=star))
            elif kind == "op" and value == ".":
                self._next()
                name_kind, name = self._next()
                if name_kind != "ident":
                    raise self._error("expected a member name after '.'")
                state = state.member(name, self)
            elif kind == "op" and value == "(":
                self._next()
                args = self._call_args()
                state = state.call(args, self)
            else:
                return self._finish(state)

    def _call_args(self) -> Tuple[Expr, ...]:
        args: List[Expr] = []
        if self._accept(")"):
            return ()
        while True:
            args.append(self._binary())
            if self._accept(")"):
                return tuple(args)
            self._expect(",")

    def _primary(self) -> "_State":
        kind, value = self._next()
        if kind == "op" and value == "?":
            if self._accept("("):
                self._expect("{")
                args: List[Expr] = [self._binary()]
                while self._accept(","):
                    args.append(self._binary())
                self._expect("}")
                self._expect(")")
                return _Resolved(UnknownCall(tuple(args)))
            return _Resolved(Hole())
        if kind == "number":
            if value == "0":
                return _Resolved(Unfilled())
            return _Resolved(self._number_literal(value))
        if kind == "string":
            return _Resolved(Literal(value[1:-1], self.ctx.ts.string_type))
        if kind == "ident":
            if value == "null":
                return _Resolved(Literal(None, self.ctx.ts.object_type))
            if value in ("true", "false"):
                return _Resolved(
                    Literal(value == "true", self.ctx.ts.primitive("bool"))
                )
            if value == "new" and not self.ctx.has_local("new"):
                name_kind, name = self._next()
                if name_kind != "ident":
                    raise self._error("expected a type name after 'new'")
                return _NewChain([name])
            return _Chain([value])
        raise self._error("unexpected token {!r}".format(value))

    def resolve_ctor(self, parts: List[str], args: Tuple[Expr, ...]) -> Expr:
        typedef, rest = self._longest_type_prefix(parts)
        if typedef is None or rest:
            raise self._error(
                "unknown type in 'new {}'".format(".".join(parts))
            )
        self._read(typedef)
        candidates = [m for m in typedef.methods if m.is_constructor]
        if not candidates:
            raise self._error(
                "type {} has no constructors".format(typedef.full_name)
            )
        return self._make_call(tuple(candidates), args)

    def _number_literal(self, text: str) -> Literal:
        if "." in text:
            return Literal(float(text), self.ctx.ts.primitive("double"))
        return Literal(int(text), self.ctx.ts.primitive("int"))

    def _finish(self, state: "_State") -> Expr:
        return state.finish(self)

    # -- name resolution -------------------------------------------------
    def resolve_chain(
        self, parts: List[str], call_args: Optional[Tuple[Expr, ...]]
    ) -> Expr:
        """Resolve a dotted identifier chain, optionally ending in a call."""
        if self.ctx.has_local(parts[0]):
            expr: Expr = self.ctx.local_var(parts[0])
            rest = parts[1:]
            return self._resolve_members(expr, rest, call_args)
        type_prefix, rest = self._longest_type_prefix(parts)
        if type_prefix is not None:
            if not rest:
                raise self._error(
                    "type name {} is not an expression".format(type_prefix.full_name)
                )
            return self._resolve_static(type_prefix, rest, call_args)
        if len(parts) == 1 and call_args is not None:
            if self.reads is not None:
                self.reads.add(None)
            candidates = self.ctx.methods_named(parts[0])
            if not candidates:
                raise self._error("unknown method name {!r}".format(parts[0]))
            return self._make_call(tuple(candidates), call_args)
        raise self._error("cannot resolve name {!r}".format(".".join(parts)))

    def _longest_type_prefix(
        self, parts: List[str]
    ) -> Tuple[Optional[TypeDef], List[str]]:
        for end in range(len(parts), 0, -1):
            candidate = ".".join(parts[:end])
            typedef = self.ctx.ts.try_get(candidate)
            if typedef is not None:
                return typedef, parts[end:]
        # unqualified unique simple name, e.g. `Math` for DynamicGeometry.Math
        matches = [
            t for t in self.ctx.ts.all_types() if t.name == parts[0] and t.namespace
        ]
        if len(matches) == 1:
            return matches[0], parts[1:]
        return None, parts

    def _resolve_static(
        self,
        typedef: TypeDef,
        parts: List[str],
        call_args: Optional[Tuple[Expr, ...]],
    ) -> Expr:
        name = parts[0]
        self._read(typedef)
        if len(parts) == 1 and call_args is not None:
            candidates = [
                m for m in typedef.methods if m.is_static and m.name == name
            ]
            if not candidates:
                # flat qualified instance-call syntax, receiver in the
                # argument list: `PaintDotNet.Document.OnDeserialization(0, s)`
                self._read(typedef, inherited=True)
                candidates = [
                    m
                    for m in self.ctx.ts.instance_methods(typedef)
                    if m.name == name
                ]
            if not candidates:
                raise self._error(
                    "no method {!r} on {}".format(name, typedef.full_name)
                )
            return self._make_call(tuple(candidates), call_args)
        member = self._find_static_field(typedef, name)
        if member is None:
            raise self._error(
                "no static member {!r} on {}".format(name, typedef.full_name)
            )
        expr = FieldAccess(TypeLiteral(typedef), member)
        return self._resolve_members(expr, parts[1:], call_args)

    def _find_static_field(self, typedef: TypeDef, name: str) -> Optional[Field]:
        for member in typedef.declared_lookups():
            if member.is_static and member.name == name:
                return member
        return None

    def _resolve_members(
        self,
        expr: Expr,
        parts: List[str],
        call_args: Optional[Tuple[Expr, ...]],
    ) -> Expr:
        """Apply instance member lookups; the last may be a method call."""
        for index, name in enumerate(parts):
            is_last = index == len(parts) - 1
            if is_last and call_args is not None:
                return self._instance_call(expr, name, call_args)
            expr = self._instance_lookup(expr, name)
        if call_args is not None and not parts:
            raise self._error("cannot call an expression without a method name")
        return expr

    def _instance_lookup(self, expr: Expr, name: str) -> Expr:
        base_type = expr.type
        if base_type is None:
            raise self._error("cannot look up {!r} on a typeless expression".format(name))
        self._read(base_type, inherited=True)
        for member in self.ctx.ts.instance_lookups(base_type):
            if member.name == name:
                return FieldAccess(expr, member)
        # zero-argument instance methods written without parens are not
        # allowed; require explicit `()`
        raise self._error(
            "no field or property {!r} on {}".format(name, base_type.full_name)
        )

    def _instance_call(
        self, receiver: Expr, name: str, args: Tuple[Expr, ...]
    ) -> Expr:
        base_type = receiver.type
        if base_type is None:
            raise self._error("cannot call {!r} on a typeless expression".format(name))
        self._read(base_type, inherited=True)
        candidates = [
            m for m in self.ctx.ts.instance_methods(base_type) if m.name == name
        ]
        if not candidates:
            raise self._error(
                "no method {!r} on {}".format(name, base_type.full_name)
            )
        return self._make_call(tuple(candidates), (receiver,) + args)

    def _make_call(
        self, candidates: Tuple[Method, ...], args: Tuple[Expr, ...]
    ) -> Expr:
        """Build a complete ``Call`` when unambiguous, else a ``KnownCall``.

        ``args`` align with ``all_params`` (receiver first when instance).
        """
        if all(is_complete(a) for a in args):
            viable = [m for m in candidates if self._args_fit(m, args)]
            if len(viable) == 1:
                return Call(viable[0], args)
        sized = [m for m in candidates if m.arity == len(args)]
        return KnownCall(tuple(sized) or candidates, args)

    def _args_fit(self, method: Method, args: Tuple[Expr, ...]) -> bool:
        params = method.all_params()
        if len(params) != len(args):
            return False
        for param, arg in zip(params, args):
            arg_type = arg.type
            if arg_type is None:
                continue  # Unfilled wildcard
            if not self.ctx.ts.implicitly_converts(arg_type, param.type):
                return False
        return True


class _State:
    """Postfix-parsing state: either a resolved expression or a pending
    dotted name chain."""

    def member(self, name: str, parser: _Parser) -> "_State":
        raise NotImplementedError

    def call(self, args: Tuple[Expr, ...], parser: _Parser) -> "_State":
        raise NotImplementedError

    def finish(self, parser: _Parser) -> Expr:
        raise NotImplementedError


class _Resolved(_State):
    def __init__(self, expr: Expr) -> None:
        self.expr = expr

    def member(self, name: str, parser: _Parser) -> _State:
        return _Member(self.expr, name)

    def call(self, args: Tuple[Expr, ...], parser: _Parser) -> _State:
        raise parser._error("cannot call a non-name expression")

    def finish(self, parser: _Parser) -> Expr:
        return self.expr


class _Member(_State):
    """A resolved expression followed by `.name` awaiting call-or-lookup."""

    def __init__(self, base: Expr, name: str) -> None:
        self.base = base
        self.name = name

    def member(self, name: str, parser: _Parser) -> _State:
        return _Member(parser._instance_lookup(self.base, self.name), name)

    def call(self, args: Tuple[Expr, ...], parser: _Parser) -> _State:
        return _Resolved(parser._instance_call(self.base, self.name, args))

    def finish(self, parser: _Parser) -> Expr:
        return parser._instance_lookup(self.base, self.name)


class _NewChain(_State):
    """A ``new``-prefixed dotted type name awaiting its argument list."""

    def __init__(self, parts: List[str]) -> None:
        self.parts = parts

    def member(self, name: str, parser: _Parser) -> _State:
        return _NewChain(self.parts + [name])

    def call(self, args: Tuple[Expr, ...], parser: _Parser) -> _State:
        return _Resolved(parser.resolve_ctor(self.parts, args))

    def finish(self, parser: _Parser) -> Expr:
        raise parser._error(
            "'new {}' needs an argument list".format(".".join(self.parts))
        )


class _Chain(_State):
    """An unresolved dotted identifier chain."""

    def __init__(self, parts: List[str]) -> None:
        self.parts = parts

    def member(self, name: str, parser: _Parser) -> _State:
        return _Chain(self.parts + [name])

    def call(self, args: Tuple[Expr, ...], parser: _Parser) -> _State:
        return _Resolved(parser.resolve_chain(self.parts, args))

    def finish(self, parser: _Parser) -> Expr:
        return parser.resolve_chain(self.parts, None)


def parse(source: str, context: Context,
          reads: Optional[Set[Optional[str]]] = None) -> Expr:
    """Parse a (partial) expression against a scope context.

    Returns a complete-expression node when the input contains no holes and
    resolves unambiguously, otherwise a partial-expression node.  Given a
    set, ``reads`` receives the full names of the types whose member
    lists resolution read, and ``None`` when it read every type's (see
    the module docstring).
    """
    return _Parser(source, context, reads).parse_query()
