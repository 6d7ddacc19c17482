"""The unknown-call placement kernel against the exhaustive search.

``_Query._methods_for_args`` scores each candidate method from one row of
type distances per argument, sums per-slot ranker terms over the
placements, and adds the placement-invariant call terms once.  The
reference here is the search it replaced: every placement in
``itertools.product`` order over the compatible positions, each scored
whole by ``Ranker.call_completion_cost``, first placement kept on ties.
Both must choose the same placement with the same score for every
candidate, under every ranking configuration, with an unfilled receiver
allowed and refused, with ``0`` wildcard arguments, for one to three
arguments, with the know-nothing oracle, the corpus project's fitted
abstract-type oracle, and an oracle whose parameter answers depend on the
receiver on every slot.
"""

from __future__ import annotations

import random
import zlib
from collections import Counter
from itertools import product

import pytest

from repro import Context, RankingConfig
from repro.analysis import AbstractTypeAnalysis
from repro.corpus import ImplAbstractTypes
from repro.corpus.projects import build_familyshow_project
from repro.engine.completer import CompletionEngine, EngineConfig, _Query
from repro.engine.index import MethodIndex
from repro.engine.ranking import AbstractTypeOracle
from repro.ide.workspace import Workspace
from repro.lang import Unfilled, Var

CONFIGS = [RankingConfig()] + [
    make(letter) for make in (RankingConfig.without, RankingConfig.only)
    for letter in RankingConfig._LETTERS
]
#: argument tuples drawn per (universe, configuration, receiver rule)
TUPLES = 10


class _Universe:
    """A type system with its method index, a context and argument pool."""

    def __init__(self, ts, context, pool, oracle=None):
        self.ts = ts
        self.index = MethodIndex(ts)
        self.context = context
        self.pool = pool
        self.oracle = oracle


class _ReceiverKeyedOracle(AbstractTypeOracle):
    """An oracle fitted to nothing that still answers: a parameter's root
    hashes its slot together with the receiver's type, an expression's
    root hashes its key (``0`` included), three roots in all.  The corpus
    oracle's answers depend on the receiver only for Object-declared
    methods; this one does on every slot."""

    def of_expr(self, expr):
        return zlib.crc32(repr(expr.key()).encode()) % 3

    def of_param(self, method, index, receiver_type):
        receiver = None if receiver_type is None else receiver_type.full_name
        return zlib.crc32(repr(
            (method.full_name, index, receiver)).encode()) % 3


def _builtin(key, oracle=None):
    """The six most common parameter types (receivers included) as
    locals, two variables each, so tuples reach several placements."""
    ts = Workspace.builtin(key).ts
    counts = Counter(param.type for method in ts.all_methods()
                     for param in method.all_params())
    common = sorted(counts, key=lambda t: (-counts[t], t.full_name))[:6]
    pool = [Var("{}{}".format(typedef.name.lower(), copy), typedef)
            for typedef in common for copy in (0, 1)]
    context = Context(ts, locals={var.name: var.type for var in pool})
    return _Universe(ts, context, pool, oracle)


def _familyshow(universes, fitted):
    """The impl with the most locals in one shared build of the project;
    with ``fitted``, the project's abstract-type analysis answers for
    it."""
    if "project" not in universes:
        universes["project"] = build_familyshow_project()
    project = universes["project"]
    impl = max(project.impls,
               key=lambda i: (len(i.all_locals()), i.method.full_name))
    pool = [Var(name, typedef)
            for name, typedef in impl.all_locals().items()]
    oracle = None
    if fitted:
        oracle = ImplAbstractTypes(AbstractTypeAnalysis(project), impl)
    return _Universe(project.ts, impl.context(project.ts), pool, oracle)


UNIVERSES = {
    "paint": lambda universes: _builtin("paint"),
    "geometry": lambda universes: _builtin("geometry"),
    "bcl": lambda universes: _builtin("bcl"),
    "bcl-receiver-keyed": lambda universes: _builtin(
        "bcl", _ReceiverKeyedOracle()),
    "familyshow": lambda universes: _familyshow(universes, fitted=False),
    "familyshow-fitted": lambda universes: _familyshow(universes,
                                                       fitted=True),
}


@pytest.fixture(scope="module")
def universes():
    return {}


def _universe(universes, name):
    if name not in universes:
        universes[name] = UNIVERSES[name](universes)
    return universes[name]


def _argument_tuples(universe, seed):
    """Seeded tuples of one to three pool variables or ``0`` wildcards,
    each argument expression distinct."""
    rng = random.Random(seed)
    tuples = []
    for _ in range(TUPLES):
        size = rng.randint(1, 3)
        args = []
        for _slot in range(size):
            if rng.random() < 0.2:
                args.append(Unfilled())
            else:
                choices = [v for v in universe.pool if v not in args]
                args.append(rng.choice(choices))
        tuples.append(tuple(args))
    return tuples


def _exhaustive_placement(query, method, args):
    """The reference search: every placement of ``args`` in product order
    over the compatible positions, scored whole; ties keep the first."""
    params = method.all_params()
    arity = len(params)
    arg_types = [arg.type for arg in args]
    compatible = []
    for arg_type in arg_types:
        positions = [
            position for position, param in enumerate(params)
            if arg_type is None
            or query.ts.type_distance(arg_type, param.type) is not None
        ]
        if not positions:
            return None
        compatible.append(positions)
    receiver_required = (
        not method.is_static and not query.config.allow_unfilled_receiver)
    best = None
    for positions in product(*compatible):
        if len(set(positions)) < len(positions):
            continue
        full_args = [Unfilled()] * arity
        types = [None] * arity
        for position, arg, arg_type in zip(positions, args, arg_types):
            full_args[position] = arg
            types[position] = arg_type
        if receiver_required and types[0] is None:
            continue
        placed = tuple(full_args)
        extra = query.ranker.call_completion_cost(method, types, placed)
        if extra is not None and (best is None or extra < best[0]):
            best = (extra, placed)
    return best


def _shape(score, method, placed):
    """A comparable record: the argument objects by identity, every
    empty slot as ``0``."""
    return (score, id(method), tuple(
        "0" if isinstance(arg, Unfilled) else id(arg) for arg in placed))


def _reference(query, args):
    results = []
    for method in query._candidate_methods([arg.type for arg in args]):
        if method.arity < len(args) or method.is_constructor:
            continue
        best = _exhaustive_placement(query, method, args)
        if best is not None:
            results.append((best[0], method.full_name,
                            _shape(best[0], method, best[1])))
    results.sort(key=lambda item: (item[0], item[1]))
    return [shape for _score, _name, shape in results]


def _kernel(query, args):
    return [_shape(score, call.method, call.args)
            for score, call in query._methods_for_args(0, args, None)]


@pytest.mark.parametrize("allow_unfilled_receiver", [True, False],
                         ids=["unfilled-receiver", "receiver-required"])
@pytest.mark.parametrize("ranking", CONFIGS, ids=lambda c: c.label())
@pytest.mark.parametrize("name", sorted(UNIVERSES))
def test_kernel_equals_exhaustive_search(universes, name, ranking,
                                         allow_unfilled_receiver):
    universe = _universe(universes, name)
    config = EngineConfig(ranking=ranking,
                          allow_unfilled_receiver=allow_unfilled_receiver)
    engine = CompletionEngine(universe.ts, config, index=universe.index)
    query = _Query(engine, universe.context, universe.oracle, None)
    scored = 0
    for args in _argument_tuples(universe,
                                 "{}:{}".format(name, ranking.label())):
        expected = _reference(query, args)
        assert _kernel(query, args) == expected, args
        scored += len(expected)
    assert scored  # the draw reaches methods with a placement
    assert not query.degraded


def test_fitted_oracle_matches_some_slots(universes):
    """The fitted oracle answers differently from the know-nothing one
    on the drawn tuples, so the fitted cases test a receiver-dependent
    abstract-type term rather than a constant one."""
    fitted = _universe(universes, "familyshow-fitted")
    blind = _universe(universes, "familyshow")
    config = EngineConfig(ranking=RankingConfig.only("a"))
    differs = False
    for args in _argument_tuples(fitted, "fitted-oracle"):
        answers = []
        for universe in (fitted, blind):
            engine = CompletionEngine(universe.ts, config,
                                      index=universe.index)
            query = _Query(engine, universe.context, universe.oracle, None)
            answers.append([
                (score, call.method.full_name) for score, call in
                query._methods_for_args(0, args, None)])
        differs = differs or answers[0] != answers[1]
    assert differs
