"""The ranking function (Figure 7 of the paper).

Lower scores are better.  Every term is non-negative, so partial sums are
lower bounds usable for pruning — the property the lazy generators in
:mod:`repro.engine.completer` rely on.

Terms (Sec. 4.1), each behind a :class:`RankingConfig` switch so the Table 2
sensitivity analysis can run every ``-x`` / ``+x`` variant:

* ``type_distance`` (t): ``td(type(arg), type(param))`` per argument;
* ``abstract_types`` (a): +1 per argument whose abstract type differs from
  the parameter's (undefined counts as different);
* ``depth`` (d): 2 x the number of dots;
* ``in_scope_static`` (s): +1 per call unless it is a static method of the
  enclosing type;
* ``namespaces`` (n): ``3 - min(3, |common namespace prefix|)`` over the
  non-primitive argument types and the declaring class (similarity 0 when
  fewer than two non-primitive arguments);
* ``matching_name`` (m): +3 on comparisons whose sides do not end in
  same-named lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Set

from ..analysis.scope import Context
from ..testing import faults
from ..codemodel.members import Method
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
    final_lookup_name,
)

#: cost of one dot (a lookup or an instance-call receiver)
DOT_COST = 2
#: penalty for comparisons whose sides end in differently-named lookups
NAME_MISMATCH_COST = 3
#: cap on the namespace similarity (and hence on the namespace term)
NAMESPACE_CAP = 3


@dataclass(frozen=True)
class RankingConfig:
    """Feature switches for the ranking terms (Table 2's n/s/d/m/t/a)."""

    namespaces: bool = True
    in_scope_static: bool = True
    depth: bool = True
    matching_name: bool = True
    type_distance: bool = True
    abstract_types: bool = True

    _LETTERS = {
        "n": "namespaces",
        "s": "in_scope_static",
        "d": "depth",
        "m": "matching_name",
        "t": "type_distance",
        "a": "abstract_types",
    }

    @classmethod
    def all_features(cls) -> "RankingConfig":
        return cls()

    @classmethod
    def without(cls, letters: str) -> "RankingConfig":
        """E.g. ``RankingConfig.without("at")`` is the paper's ``-at``."""
        config = cls()
        for letter in letters:
            config = replace(config, **{cls._LETTERS[letter]: False})
        return config

    @classmethod
    def only(cls, letters: str) -> "RankingConfig":
        """E.g. ``RankingConfig.only("d")`` is the paper's ``+d``."""
        config = cls(
            namespaces=False,
            in_scope_static=False,
            depth=False,
            matching_name=False,
            type_distance=False,
            abstract_types=False,
        )
        for letter in letters:
            config = replace(config, **{cls._LETTERS[letter]: True})
        return config

    def label(self) -> str:
        """The paper's column label, e.g. ``All``, ``-at``, ``+d``."""
        off = [l for l, attr in self._LETTERS.items() if not getattr(self, attr)]
        if not off:
            return "All"
        if len(off) < 3:
            return "-" + "".join(sorted(off))
        on = [l for l, attr in self._LETTERS.items() if getattr(self, attr)]
        return "+" + "".join(sorted(on))


class AbstractTypeOracle:
    """Interface the ranker uses to ask abstract-type questions.

    The default implementation knows nothing: every abstract type is
    undefined (and undefined abstract types count as mismatching, per the
    Figure 7 caption).
    """

    def of_expr(self, expr: Expr) -> Optional[int]:
        return None

    def of_param(
        self, method: Method, index: int, receiver_type: Optional[TypeDef]
    ) -> Optional[int]:
        return None


NULL_ORACLE = AbstractTypeOracle()


class Ranker:
    """Scores complete expressions (possibly containing ``Unfilled``).

    Also exposes the incremental per-term helpers the completion engine uses
    to cost candidates without re-walking whole trees.

    The optional signals (the abstract-type oracle, the namespace term,
    the same-name term) run behind guards: when one throws — broken
    oracle, injected fault, anything — the ranker substitutes the term's
    *neutral* score (exactly what a know-nothing oracle would produce),
    records the feature name in :attr:`degraded`, and the query carries
    on.  One broken signal degrades the ranking; it never kills a query.
    """

    def __init__(
        self,
        context: Context,
        config: Optional[RankingConfig] = None,
        abstypes: Optional[AbstractTypeOracle] = None,
    ) -> None:
        self.context = context
        self.ts: TypeSystem = context.ts
        self.config = config or RankingConfig()
        self.abstypes = abstypes or NULL_ORACLE
        #: names of features that failed this query and were neutralised
        self.degraded: Set[str] = set()

    # ------------------------------------------------------------------
    # full recursive score
    # ------------------------------------------------------------------
    def score(self, expr: Expr) -> int:
        """The Figure 7 score of a complete expression."""
        if isinstance(expr, (Var, Literal, Unfilled, TypeLiteral)):
            return 0
        if isinstance(expr, FieldAccess):
            return self._score_field_access(expr)
        if isinstance(expr, Call):
            return self._score_call(expr)
        if isinstance(expr, Assign):
            base = self.score(expr.lhs) + self.score(expr.rhs)
            return base + self.assign_pair_cost(expr.lhs, expr.rhs)
        if isinstance(expr, Compare):
            base = self.score(expr.lhs) + self.score(expr.rhs)
            return base + self.compare_pair_cost(expr.lhs, expr.rhs)
        raise TypeError("cannot score {!r}".format(type(expr).__name__))

    def _score_field_access(self, expr: FieldAccess) -> int:
        cost = DOT_COST if self.config.depth else 0
        if not isinstance(expr.base, TypeLiteral):
            cost += self.score(expr.base)
            cost += self.lookup_base_distance(expr.base.type, expr.member.declaring_type)
        return cost

    def _score_call(self, expr: Call) -> int:
        # Zero-argument calls are property-like navigation steps, scored as
        # lookups (see :meth:`call_fixed_cost`): the paper counts
        # dots("this.bar.ToBaz()") = 2, treating the call as one more dot,
        # and allows zero-argument methods in chains "because they are
        # often used in place of properties".
        cost = 0
        for arg in expr.args:
            cost += self.score(arg)
        extra = self.call_cost(
            expr.method, [a.type for a in expr.args], expr.args)
        if extra is None:
            # type-incorrect expressions are not rankable; surface loudly
            raise ValueError(
                "scoring a type-incorrect call: {}".format(
                    expr.method.full_name)
            )
        return cost + extra

    # ------------------------------------------------------------------
    # incremental helpers
    # ------------------------------------------------------------------
    def lookup_step_cost(self, base_type: Optional[TypeDef], member_declaring: Optional[TypeDef]) -> int:
        """Cost of appending one lookup to a chain: a dot plus the type
        distance from the base's type to the member's declaring type."""
        cost = DOT_COST if self.config.depth else 0
        cost += self.lookup_base_distance(base_type, member_declaring)
        return cost

    def lookup_base_distance(
        self, base_type: Optional[TypeDef], declaring: Optional[TypeDef]
    ) -> int:
        if not self.config.type_distance:
            return 0
        if base_type is None or declaring is None:
            return 0
        distance = self.ts.type_distance(base_type, declaring)
        return distance or 0

    def call_cost(
        self,
        method: Method,
        arg_types: "Sequence[Optional[TypeDef]]",
        args: "Optional[Sequence[Expr]]" = None,
    ) -> Optional[int]:
        """All call-level terms given the argument types (excluding the
        arguments' own subexpression scores): :meth:`call_slot_cost` of
        every parameter slot plus :meth:`call_fixed_cost`.

        Returns ``None`` when the call does not type-check.  ``args`` (the
        actual expressions) is only needed for the abstract-type term; pass
        ``None`` to cost a call shape without abstract-type information
        about the arguments (every argument then counts as mismatching when
        the feature is on).
        """
        params = method.all_params()
        if len(params) != len(arg_types):
            return None
        receiver_type = None if method.is_static else arg_types[0]
        type_distance = self.ts.type_distance
        cost = 0
        for index, (param, arg_type) in enumerate(zip(params, arg_types)):
            if arg_type is None:
                distance: Optional[int] = 0  # Unfilled wildcard
            else:
                distance = type_distance(arg_type, param.type)
                if distance is None:
                    return None
            cost += self.call_slot_cost(
                method, index, distance, receiver_type,
                None if args is None else args[index])
        return cost + self.call_fixed_cost(method, arg_types)

    def call_slot_cost(
        self,
        method: Method,
        index: int,
        distance: int,
        receiver_type: Optional[TypeDef],
        arg: Optional[Expr] = None,
    ) -> int:
        """The terms of parameter slot ``index`` of a call: the type
        distance of its argument (``distance``, 0 for a wildcard or an
        empty slot) and the abstract-type term, which may depend on the
        receiver's type.  ``arg`` is the expression in the slot
        (``Unfilled`` when empty), or ``None`` for no abstract-type
        information about it.  The receiver of a property-like
        zero-argument call carries its type distance only."""
        cost = distance if self.config.type_distance else 0
        if not self.config.abstract_types or not method.params:
            return cost
        param_root = arg_root = None
        try:
            faults.fire("oracle")
            param_root = self.abstypes.of_param(method, index, receiver_type)
            if arg is not None:
                arg_root = self.abstypes.of_expr(arg)
        except Exception:
            # a broken oracle answers like NULL_ORACLE: undefined on both
            # sides, which counts as a mismatch below
            self.degraded.add("abstract_types")
            param_root = arg_root = None
        if param_root is None or arg_root is None or param_root != arg_root:
            cost += 1
        return cost

    def call_fixed_cost(
        self, method: Method, arg_types: "Sequence[Optional[TypeDef]]"
    ) -> int:
        """The call terms that do not depend on which slot holds which
        argument: the receiver dot, the in-scope-static term and the
        namespace term (its type list is the arguments' types, and a
        placement only reorders them).  A zero-argument call is a lookup
        (instance) or a global chain root (static): one dot and nothing
        else."""
        cost = self._receiver_scope_cost(method)
        if method.params and self.config.namespaces:
            cost += self._guarded_namespace_cost(method, arg_types)
        return cost

    def _receiver_scope_cost(self, method: Method) -> int:
        """:meth:`call_fixed_cost` without the namespace term."""
        if not method.params:
            return DOT_COST if self.config.depth else 0
        cost = 0
        if self.config.depth and not method.is_static:
            cost += DOT_COST  # the receiver dot
        if self.config.in_scope_static:
            if not method.is_static or not self.context.is_in_scope_static(method):
                cost += 1
        return cost

    def _knows_nothing(self) -> bool:
        """Is the abstract-type term a mismatch whatever the arguments?
        True under the base oracle, whose every answer is undefined; a
        subclass may know something, even one that overrides nothing."""
        return (self.config.abstract_types
                and type(self.abstypes) is AbstractTypeOracle)

    def call_floor(self, method: Method) -> int:
        """The least :meth:`call_cost` adds to its arguments' scores,
        whatever the arguments: the receiver dot, the in-scope-static
        term and, when the oracle knows nothing, one abstract-type
        mismatch per slot.  Type distances and the namespace term count
        0.  The ``merge_nested`` floor of a known call."""
        floor = self._receiver_scope_cost(method)
        if method.params and self._knows_nothing():
            floor += len(method.all_params())
        return floor

    def pair_floor(self) -> int:
        """The least :meth:`assign_pair_cost` or :meth:`compare_pair_cost`
        adds: the abstract-type mismatch when the oracle knows nothing,
        else 0.  The ``reorder_with_slack`` floor of a pair."""
        return 1 if self._knows_nothing() else 0

    def _guarded_namespace_cost(
        self, method: Method, arg_types: "Sequence[Optional[TypeDef]]"
    ) -> int:
        try:
            faults.fire("namespaces")
            return self.namespace_cost(method, arg_types)
        except Exception:
            # neutral: similarity 0, the same as < 2 non-primitive args
            self.degraded.add("namespaces")
            return NAMESPACE_CAP

    def call_completion_cost(
        self,
        method: Method,
        arg_types: "Sequence[Optional[TypeDef]]",
        args: "Optional[Sequence[Expr]]" = None,
    ) -> Optional[int]:
        """The call-node cost used by the engine: :meth:`call_cost`, except
        that a zero-argument instance call cannot be invoked on ``0``."""
        if method.is_zero_arg_instance and arg_types and arg_types[0] is None:
            return None
        return self.call_cost(method, arg_types, args)

    def _abstype_pair_mismatch(self, lhs: Expr, rhs: Expr) -> int:
        """The abstract-type term for assignment/comparison pairs, with
        the same degradation contract as :meth:`call_slot_cost`."""
        left_root = right_root = None
        try:
            faults.fire("oracle")
            left_root = self.abstypes.of_expr(lhs)
            right_root = self.abstypes.of_expr(rhs)
        except Exception:
            self.degraded.add("abstract_types")
            left_root = right_root = None
        if left_root is None or right_root is None or left_root != right_root:
            return 1
        return 0

    def namespace_cost(
        self, method: Method, arg_types: "Sequence[Optional[TypeDef]]"
    ) -> int:
        """``3 - min(3, |common namespace prefix|)``; similarity is 0 when
        fewer than two non-primitive argument types participate."""
        namespaces = [
            t.namespace_parts
            for t in arg_types
            if t is not None and not t.is_primitive
        ]
        if len(namespaces) < 2:
            return NAMESPACE_CAP
        declaring = method.declaring_type
        if declaring is not None:
            namespaces.append(declaring.namespace_parts)
        prefix_len = _common_prefix_length(namespaces)
        return NAMESPACE_CAP - min(NAMESPACE_CAP, prefix_len)

    # ------------------------------------------------------------------
    # binary operator terms
    # ------------------------------------------------------------------
    def assign_pair_cost(self, lhs: Expr, rhs: Expr) -> int:
        """Terms tying the two sides of an assignment together."""
        cost = 0
        lhs_type, rhs_type = lhs.type, rhs.type
        if self.config.type_distance and lhs_type is not None and rhs_type is not None:
            distance = self.ts.type_distance(rhs_type, lhs_type)
            if distance is None:
                raise ValueError("scoring a type-incorrect assignment")
            cost += distance
        if self.config.abstract_types:
            cost += self._abstype_pair_mismatch(lhs, rhs)
        return cost

    def compare_pair_cost(self, lhs: Expr, rhs: Expr) -> int:
        """Terms tying the two sides of a comparison together."""
        cost = 0
        lhs_type, rhs_type = lhs.type, rhs.type
        if self.config.type_distance and lhs_type is not None and rhs_type is not None:
            distance = self.ts.comparison_distance(lhs_type, rhs_type)
            if distance is None:
                raise ValueError("scoring a type-incorrect comparison")
            cost += distance
        if self.config.abstract_types:
            cost += self._abstype_pair_mismatch(lhs, rhs)
        if self.config.matching_name:
            try:
                faults.fire("matching_name")
                left_name = final_lookup_name(lhs)
                right_name = final_lookup_name(rhs)
            except Exception:
                # neutral: unknown names count as mismatching
                self.degraded.add("matching_name")
                left_name = right_name = None
            if left_name is None or left_name != right_name:
                cost += NAME_MISMATCH_COST
        return cost

    #: upper bound on the pair terms above, for reorder_with_slack
    PAIR_TERM_SLACK = NAME_MISMATCH_COST + 1 + 12

    # ------------------------------------------------------------------
    # explanation
    # ------------------------------------------------------------------
    def explain(self, expr: Expr) -> "dict[str, int]":
        """Decompose a score into its per-feature totals.

        Because every ranking term is gated by exactly one feature switch,
        scoring the expression under each single-feature configuration
        yields that feature's total contribution, and the contributions sum
        to the full score (a tested invariant).
        """
        breakdown = {}
        for letter, attr in RankingConfig._LETTERS.items():
            if not getattr(self.config, attr):
                continue
            solo = Ranker(self.context, RankingConfig.only(letter),
                          self.abstypes)
            breakdown[attr] = solo.score(expr)
        return breakdown


def _common_prefix_length(sequences: "list[tuple]") -> int:
    length = 0
    for segments in zip(*sequences):
        if segments.count(segments[0]) != len(segments):
            break
        length += 1
    return length
