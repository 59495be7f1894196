"""The simple type system of SPCF (Fig. 1 / Fig. 7 of the paper).

Types are ``R`` (the reals) and arrow types ``alpha -> beta``.  The checker
implements exactly the rules of Fig. 7; both call-by-name and call-by-value
use the same simple types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.spcf.primitives import PrimitiveRegistry, default_registry
from repro.spcf.syntax import (
    App,
    Fix,
    If,
    Lam,
    Numeral,
    Prim,
    Sample,
    Score,
    Term,
    Var,
)


class SimpleType:
    """Base class of SPCF simple types."""

    __slots__ = ()


@dataclass(frozen=True)
class RealType(SimpleType):
    """The base type ``R`` of real numbers."""

    def __repr__(self) -> str:
        return "R"


@dataclass(frozen=True)
class ArrowType(SimpleType):
    """Function type ``source -> target``."""

    source: SimpleType
    target: SimpleType

    def __repr__(self) -> str:
        source = repr(self.source)
        if isinstance(self.source, ArrowType):
            source = f"({source})"
        return f"{source} -> {self.target!r}"


REAL = RealType()


class TypeError_(Exception):
    """Raised when a term is not simply typable."""


def type_of(
    term: Term,
    env: Optional[Mapping[str, SimpleType]] = None,
    registry: Optional[PrimitiveRegistry] = None,
) -> SimpleType:
    """Infer the simple type of ``term`` under ``env``.

    Lambda- and mu-bound variables without an annotation are inferred for the
    common first-order shapes used in the paper: a lambda/fix whose bound
    variable is used at base type.  For higher-order programs the caller can
    supply annotated environments; in practice every term in the paper's
    benchmark suite is inferable by this function.
    """
    registry = registry or default_registry()
    environment = dict(env) if env else {}
    return _infer(term, environment, registry)


def typecheck(
    term: Term,
    expected: Optional[SimpleType] = None,
    env: Optional[Mapping[str, SimpleType]] = None,
    registry: Optional[PrimitiveRegistry] = None,
) -> SimpleType:
    """Typecheck ``term``; raise :class:`TypeError_` if it is untypable.

    When ``expected`` is given, additionally check that the inferred type
    equals it.
    """
    inferred = type_of(term, env=env, registry=registry)
    if expected is not None and inferred != expected:
        raise TypeError_(f"expected {expected!r} but inferred {inferred!r}")
    return inferred


def _infer(term: Term, env: Mapping[str, SimpleType], registry: PrimitiveRegistry) -> SimpleType:
    if isinstance(term, Var):
        if term.name not in env:
            raise TypeError_(f"unbound variable {term.name!r}")
        return env[term.name]
    if isinstance(term, Numeral):
        return REAL
    if isinstance(term, Sample):
        return REAL
    if isinstance(term, Score):
        argument = _infer(term.arg, env, registry)
        if argument != REAL:
            raise TypeError_(f"score expects R, got {argument!r}")
        return REAL
    if isinstance(term, Prim):
        primitive = registry[term.op]
        if len(term.args) != primitive.arity:
            raise TypeError_(
                f"primitive {term.op!r} expects {primitive.arity} arguments, "
                f"got {len(term.args)}"
            )
        for argument_term in term.args:
            argument = _infer(argument_term, env, registry)
            if argument != REAL:
                raise TypeError_(f"primitive argument must be R, got {argument!r}")
        return REAL
    if isinstance(term, If):
        condition = _infer(term.cond, env, registry)
        if condition != REAL:
            raise TypeError_(f"conditional guard must be R, got {condition!r}")
        then_type = _infer(term.then, env, registry)
        else_type = _infer(term.orelse, env, registry)
        if then_type != else_type:
            raise TypeError_(
                f"branches of conditional disagree: {then_type!r} vs {else_type!r}"
            )
        return then_type
    if isinstance(term, App):
        function = _infer(term.fn, env, registry)
        if not isinstance(function, ArrowType):
            raise TypeError_(f"applying a non-function of type {function!r}")
        argument = _infer(term.arg, env, registry)
        if argument != function.source:
            raise TypeError_(
                f"argument type {argument!r} does not match parameter "
                f"type {function.source!r}"
            )
        return function.target
    if isinstance(term, Lam):
        parameter = _guess_parameter_type(term.body, term.var)
        extended = {**env, term.var: parameter}
        return ArrowType(parameter, _infer(term.body, extended, registry))
    if isinstance(term, Fix):
        if term.fvar == term.var:
            # mu phi x. M has two distinct binders; with one name the
            # unfolding M[N/x, mu phi x. M/phi] would have to pick one.
            raise TypeError_(f"fixpoint binds {term.var!r} as both function and argument")
        parameter = _guess_parameter_type(term.body, term.var)
        # The paper's benchmark programs are first-order recursions R -> R;
        # we first try result type R and fall back to a search over small
        # arrow shapes if that fails.
        for result in _candidate_result_types():
            candidate = ArrowType(parameter, result)
            extended = {**env, term.fvar: candidate, term.var: parameter}
            try:
                body = _infer(term.body, extended, registry)
            except TypeError_:
                continue
            if body == result:
                return candidate
        raise TypeError_("could not infer a simple type for fixpoint term")
    raise TypeError_(f"unknown term: {term!r}")


def _candidate_result_types():
    yield REAL
    yield ArrowType(REAL, REAL)
    yield ArrowType(REAL, ArrowType(REAL, REAL))


def _guess_parameter_type(body: Term, var: str) -> SimpleType:
    """Heuristically infer the type of a bound variable from its uses.

    A variable used in application position ``x N`` gets an arrow type
    (we only consider ``R -> R``, sufficient for the paper's programs); any
    other use is at base type ``R``.
    """
    used_as_function = _used_in_function_position(body, var)
    if used_as_function:
        return ArrowType(REAL, REAL)
    return REAL


def _used_in_function_position(term: Term, var: str) -> bool:
    if isinstance(term, App):
        if isinstance(term.fn, Var) and term.fn.name == var:
            return True
        return _used_in_function_position(term.fn, var) or _used_in_function_position(
            term.arg, var
        )
    if isinstance(term, (Var, Numeral, Sample)):
        return False
    if isinstance(term, Lam):
        if term.var == var:
            return False
        return _used_in_function_position(term.body, var)
    if isinstance(term, Fix):
        if var in (term.fvar, term.var):
            return False
        return _used_in_function_position(term.body, var)
    if isinstance(term, If):
        return (
            _used_in_function_position(term.cond, var)
            or _used_in_function_position(term.then, var)
            or _used_in_function_position(term.orelse, var)
        )
    if isinstance(term, Prim):
        return any(_used_in_function_position(arg, var) for arg in term.args)
    if isinstance(term, Score):
        return _used_in_function_position(term.arg, var)
    raise TypeError(f"unknown term: {term!r}")
