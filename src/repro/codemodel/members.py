"""Members of types: fields, properties, methods and parameters.

The paper treats the receiver of an instance method as its first argument
("the receiver of a method call is considered to be its first argument"), so
:meth:`Method.all_params` exposes a uniform parameter list with the receiver
prepended for instance methods.  Properties are modelled like fields (the
paper: "Properties are syntactic sugar for writing getters and setters like
fields").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .types import TypeDef


class Parameter:
    """A formal parameter: a name and a declared type."""

    __slots__ = ("name", "type")

    def __init__(self, name: str, type: "TypeDef") -> None:
        self.name = name
        self.type = type

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Parameter {}: {}>".format(self.name, self.type.full_name)


class Member:
    """Common base for fields, properties and methods.

    ``name`` is fixed at construction (read-only) and ``declaring_type``
    is set when a type adopts the member, so ``full_name`` is formatted
    once per attachment and stored, like :attr:`TypeDef.full_name`.
    """

    __slots__ = ("_name", "_declaring_type", "is_static", "_full_name")

    def __init__(self, name: str, is_static: bool = False) -> None:
        self._name = name
        self.is_static = is_static
        self.declaring_type = None

    @property
    def name(self) -> str:
        return self._name

    @property
    def declaring_type(self) -> Optional["TypeDef"]:
        return self._declaring_type

    @declaring_type.setter
    def declaring_type(self, value: Optional["TypeDef"]) -> None:
        self._declaring_type = value
        self._full_name = self._name if value is None \
            else "{}.{}".format(value.full_name, self._name)

    @property
    def full_name(self) -> str:
        return self._full_name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<{} {}>".format(type(self).__name__, self.full_name)


class Field(Member):
    """A field: a named, typed slot on a type."""

    __slots__ = ("type",)

    def __init__(self, name: str, type: "TypeDef", is_static: bool = False) -> None:
        super().__init__(name, is_static=is_static)
        self.type = type

    @property
    def is_property(self) -> bool:
        return False


class Property(Field):
    """A property; behaves exactly like a field for completion purposes."""

    __slots__ = ()

    @property
    def is_property(self) -> bool:
        return True


class Method(Member):
    """A method.

    ``return_type`` is ``None`` for ``void``.  ``params`` holds the declared
    parameters only; :meth:`all_params` prepends a synthetic ``this``
    parameter for instance methods so that completion and ranking can treat
    every call uniformly as ``m(e1, ..., en)``.  ``params`` and
    ``is_static`` are fixed at construction, so that tuple is built once
    per attachment to a declaring type.
    """

    __slots__ = ("return_type", "params", "overrides", "is_constructor",
                 "_all_params")

    def __init__(
        self,
        name: str,
        return_type: Optional["TypeDef"],
        params: Tuple[Parameter, ...] = (),
        is_static: bool = False,
        overrides: Optional["Method"] = None,
        is_constructor: bool = False,
    ) -> None:
        self.params: Tuple[Parameter, ...] = tuple(params)
        super().__init__(name, is_static=is_static)
        self.return_type = return_type
        #: the method this one overrides, if any (used to share abstract-type
        #: slots between a virtual method and its overrides)
        self.overrides: Optional[Method] = overrides
        #: constructors are modelled as static factory methods returning the
        #: declaring type, printed/parsed as ``new T(...)``; the engine only
        #: synthesises them when ``EngineConfig.generate_constructors`` is on
        self.is_constructor = is_constructor
        if is_constructor:
            assert is_static and return_type is not None

    @Member.declaring_type.setter
    def declaring_type(self, value: Optional["TypeDef"]) -> None:
        Member.declaring_type.fset(self, value)
        if self.is_static:
            self._all_params = self.params
        elif value is None:
            self._all_params = None
        else:
            self._all_params = (Parameter("this", value),) + self.params

    @property
    def arity(self) -> int:
        """Number of arguments including the receiver for instance methods."""
        return len(self.params) + (0 if self.is_static else 1)

    def all_params(self) -> Tuple[Parameter, ...]:
        """Declared parameters, with the receiver prepended when instance.

        Callers must not mutate the result."""
        assert self._all_params is not None, "method not attached to a type"
        return self._all_params

    def root_declaration(self) -> "Method":
        """Walk the ``overrides`` chain to the original virtual declaration.

        Abstract-type inference keys formal-parameter and return terms on
        this root so that overriding methods share terms with the methods
        they override (Sec. 4.1 of the paper).
        """
        method: Method = self
        while method.overrides is not None:
            method = method.overrides
        return method

    @property
    def is_zero_arg_instance(self) -> bool:
        """True if callable as ``e.M()`` with no further arguments."""
        return not self.is_static and not self.params

    def signature(self) -> str:
        """A human-readable signature, for reports and debugging."""
        params = ", ".join(
            "{} {}".format(p.type.full_name, p.name) for p in self.params
        )
        ret = self.return_type.full_name if self.return_type else "void"
        prefix = "static " if self.is_static else ""
        return "{}{} {}({})".format(prefix, ret, self.full_name, params)
