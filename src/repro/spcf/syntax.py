"""Abstract syntax of SPCF terms (Sec. 2.2 of the paper).

Terms are given by the grammar

    V ::= x | r | lambda x. M | mu phi x. M
    M ::= V | M N | if(M, N, P) | f(M_1, ..., M_|f|) | sample | score(M)

where ``r`` ranges over real numbers (we use :class:`fractions.Fraction`
whenever possible so that measures and lower bounds stay exact) and ``f``
over primitive functions from a :class:`~repro.spcf.primitives.PrimitiveRegistry`.

Terms are immutable (frozen dataclasses); all structural operations --
free variables, capture-avoiding substitution, alpha-equivalence -- are
provided as module-level functions.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Tuple, Union

Number = Union[Fraction, float, int]


def as_number(value: Number) -> Union[Fraction, float]:
    """Normalise a Python number to a ``Fraction`` (exact) or ``float``.

    Integers and fractions stay exact; floats stay floats.  This is the
    single place deciding exact-vs-approximate representation of numerals.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not SPCF numerals")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return value
    raise TypeError(f"not a number: {value!r}")


# Instance-dict key under which a compound node caches its free-variable set.
# It is not a dataclass field, so ``==``, ``hash``, ``repr`` and
# ``dataclasses.fields`` ignore it, and ``Term.__getstate__`` drops it.
_FREE = "_free_variables"
_CLOSED: FrozenSet[str] = frozenset()


class Term:
    """Base class of all SPCF terms."""

    __slots__ = ()

    def __call__(self, *args: "Term") -> "Term":
        """Left-associated application: ``f(a, b)`` builds ``App(App(f, a), b)``."""
        result: Term = self
        for arg in args:
            result = App(result, arg)
        return result

    def __getstate__(self):
        """Pickle the fields only: the cached free-variable set is derived."""
        state = dict(self.__dict__)
        state.pop(_FREE, None)
        return state or None


@dataclass(frozen=True)
class Var(Term):
    """A term variable."""

    name: str

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


@dataclass(frozen=True)
class Numeral(Term):
    """A real-valued constant ``r``."""

    value: Union[Fraction, float]

    def __init__(self, value: Number) -> None:
        object.__setattr__(self, "value", as_number(value))

    def __repr__(self) -> str:
        return f"Numeral({self.value!r})"


@dataclass(frozen=True)
class Lam(Term):
    """Lambda abstraction ``lambda x. body``."""

    var: str
    body: Term


@dataclass(frozen=True)
class Fix(Term):
    """Fixpoint constructor ``mu phi x. body``.

    ``fvar`` is bound to the recursively defined function itself, ``var`` to
    its argument; both are bound in ``body``.
    """

    fvar: str
    var: str
    body: Term


@dataclass(frozen=True)
class App(Term):
    """Application ``fn arg``."""

    fn: Term
    arg: Term


@dataclass(frozen=True)
class If(Term):
    """Conditional ``if(cond, then, orelse)``: takes ``then`` iff ``cond <= 0``."""

    cond: Term
    then: Term
    orelse: Term


@dataclass(frozen=True)
class Prim(Term):
    """Application of a primitive function ``op`` to real-typed arguments."""

    op: str
    args: Tuple[Term, ...]

    def __init__(self, op: str, args) -> None:
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", tuple(args))


@dataclass(frozen=True)
class Sample(Term):
    """A draw from the uniform distribution on [0, 1]."""


@dataclass(frozen=True)
class Score(Term):
    """Stochastic conditioning ``score(arg)``; gets stuck when ``arg < 0``."""

    arg: Term


_LEAVES = (Var, Numeral, Sample)
_COMPOUND = (Lam, Fix, App, If, Prim, Score)


def is_extension_leaf(term: Term) -> bool:
    """True for leaf-like term extensions defined outside this module.

    Other layers of the library extend the term language with new constants
    of type ``R`` (interval numerals in Sec. 3, the unknown numeral ``*`` of
    the counting semantics in Sec. 5, symbolic sample variables in App. B.5).
    These extensions are all *leaves*: dataclasses none of whose fields are
    terms.  The generic traversals below (free variables, substitution,
    alpha-equivalence, ...) treat them as closed constants.
    """
    if isinstance(term, _LEAVES) or isinstance(term, _COMPOUND):
        return False
    if not isinstance(term, Term):
        return False
    fields = getattr(term, "__dataclass_fields__", {})
    return not any(isinstance(getattr(term, name), Term) for name in fields)


def is_value(term: Term) -> bool:
    """A value is a variable, a numeral, a lambda or a fixpoint abstraction."""
    return isinstance(term, (Var, Numeral, Lam, Fix))


def _children(term: Term) -> Tuple[Term, ...]:
    """The immediate subterms of a compound (``_COMPOUND``) node, in order."""
    if isinstance(term, App):
        return (term.fn, term.arg)
    if isinstance(term, (Lam, Fix)):
        return (term.body,)
    if isinstance(term, If):
        return (term.cond, term.then, term.orelse)
    if isinstance(term, Prim):
        return term.args
    return (term.arg,)


def _binders(term: Term) -> Tuple[str, ...]:
    """The variables a ``Lam`` or ``Fix`` node binds in its body."""
    return (term.var,) if isinstance(term, Lam) else (term.fvar, term.var)


def subterms(term: Term) -> Iterator[Term]:
    """Yield every subterm of ``term`` (including ``term`` itself), pre-order."""
    stack = [term]
    while stack:
        term = stack.pop()
        yield term
        if isinstance(term, _COMPOUND):
            stack.extend(reversed(_children(term)))
        elif not (isinstance(term, _LEAVES) or is_extension_leaf(term)):
            raise TypeError(f"unknown term: {term!r}")


def term_size(term: Term) -> int:
    """Number of AST nodes in ``term``."""
    return sum(1 for _ in subterms(term))


def _known_free_variables(term: Term) -> Optional[FrozenSet[str]]:
    """The free variables of a leaf or of a node with a cached set, else None."""
    if isinstance(term, Var):
        return frozenset((term.name,))
    if isinstance(term, _COMPOUND):
        return getattr(term, _FREE, None)
    if isinstance(term, (Numeral, Sample)) or is_extension_leaf(term):
        return _CLOSED
    raise TypeError(f"unknown term: {term!r}")


def free_variables(term: Term) -> FrozenSet[str]:
    """The set of free variables of ``term``.

    Every compound node caches its set in its instance dict (under ``_FREE``,
    the shared ``_CLOSED`` for closed nodes); terms are immutable, so a cached
    set never goes stale.  The walk is an iterative post-order that stops at
    leaves and at nodes already cached, so asking again costs one lookup: the
    closed ``mu`` unfolding that every recursive call substitutes is walked
    once, not once per call, and deep bodies (e.g. the ``nested`` program at
    large rank) cannot overflow the interpreter stack.  Leaves are never
    cached, so nodes without an instance dict stay closed constants.
    """
    known = _known_free_variables(term)
    if known is not None:
        return known
    stack = [term]
    while stack:
        node = stack[-1]
        if getattr(node, _FREE, None) is not None:  # shared, reached twice
            stack.pop()
            continue
        children = _children(node)
        known_children = [_known_free_variables(child) for child in children]
        if None in known_children:
            stack.extend(
                child
                for child, known in zip(children, known_children)
                if known is None
            )
            continue
        stack.pop()
        free = _CLOSED.union(*known_children)
        if isinstance(node, (Lam, Fix)):
            free = free.difference(_binders(node))
        object.__setattr__(node, _FREE, free or _CLOSED)
    return getattr(term, _FREE)


def is_closed(term: Term) -> bool:
    """True iff ``term`` has no free variables."""
    return not free_variables(term)


_FRESH_COUNTER = itertools.count()


def fresh_variable(base: str, avoid: FrozenSet[str]) -> str:
    """Return a variable name derived from ``base`` that is not in ``avoid``."""
    if base not in avoid:
        return base
    stem = base.split("#", 1)[0]
    while True:
        candidate = f"{stem}#{next(_FRESH_COUNTER)}"
        if candidate not in avoid:
            return candidate


def substitute(term: Term, replacements: Mapping[str, Term]) -> Term:
    """Capture-avoiding simultaneous substitution ``term[replacements]``.

    Bound variables are renamed when they would capture a free variable of a
    substituted term.  Substituting the empty mapping returns ``term``.
    """
    if not replacements:
        return term
    free_of_replacements: FrozenSet[str] = frozenset()
    for replacement in replacements.values():
        free_of_replacements = free_of_replacements | free_variables(replacement)
    return _substitute(term, dict(replacements), free_of_replacements)


def _enter_binders(
    body: Term,
    binders: Tuple[str, ...],
    replacements: Dict[str, Term],
    avoid: FrozenSet[str],
) -> Optional[Tuple[Tuple[str, ...], Dict[str, Term], FrozenSet[str]]]:
    """Prepare the substitution that continues below a binder scope.

    Returns ``None`` when every replacement is shadowed (the scope is left
    untouched); otherwise the renamed binders, the combined replacement
    mapping, and the extended avoid set.  Binder renaming and the narrowed
    substitution are *one* simultaneous mapping: simultaneous substitution
    never re-traverses an inserted term, renamed binders insert only the
    fresh variable (which no replacement key matches), and occurrences of the
    old binder name free in replacement values stay free -- exactly the
    composition the capture-avoiding two-pass scheme computes.

    Only a binder in ``avoid`` (a free variable of some replacement) is
    renamed, so the names its fresh name must avoid -- including the free
    variables of ``body`` -- are collected only then.  Closed replacements
    (``mu`` unfoldings, numerals) have an empty ``avoid`` and never rename.
    """
    narrowed = {name: value for name, value in replacements.items() if name not in binders}
    if not narrowed:
        return None
    if avoid.isdisjoint(binders):
        return binders, narrowed, avoid
    new_binders = []
    taken = avoid | free_variables(body) | set(binders)
    for binder in binders:
        if binder in avoid:
            new_name = fresh_variable(binder, taken)
            taken = taken | {new_name}
            narrowed[binder] = Var(new_name)
            avoid = avoid | {new_name}
            new_binders.append(new_name)
        else:
            new_binders.append(binder)
    return tuple(new_binders), narrowed, avoid


def _substitute(
    term: Term, replacements: Dict[str, Term], avoid: FrozenSet[str]
) -> Term:
    """Iterative capture-avoiding substitution.

    A visit/assemble work stack replaces structural recursion so that very
    deep terms (the ``nested`` program at large rank produces bodies tens of
    thousands of nodes deep) cannot overflow the interpreter stack.  Visit
    items rebuild leaves directly; inner nodes push an assemble closure that
    pops its finished children (children are visited in LIFO order, so the
    *last* child pushed finishes first).
    """
    results: List[Term] = []
    work: List[Tuple] = [("visit", term, replacements, avoid)]
    while work:
        item = work.pop()
        if item[0] == "assemble":
            results.append(item[1](results))
            continue
        _, term, replacements, avoid = item
        if isinstance(term, Var):
            results.append(replacements.get(term.name, term))
        elif isinstance(term, (Lam, Fix)):
            entered = _enter_binders(term.body, _binders(term), replacements, avoid)
            if entered is None:
                results.append(term)
                continue
            binders, combined, deeper_avoid = entered
            rebuild = functools.partial(type(term), *binders)
            work.append(("assemble", lambda done, rebuild=rebuild: rebuild(done.pop())))
            work.append(("visit", term.body, combined, deeper_avoid))
        elif isinstance(term, App):
            def assemble_app(done):
                fn = done.pop()
                arg = done.pop()
                return App(fn, arg)

            work.append(("assemble", assemble_app))
            work.append(("visit", term.fn, replacements, avoid))
            work.append(("visit", term.arg, replacements, avoid))
        elif isinstance(term, If):
            def assemble_if(done):
                cond = done.pop()
                then = done.pop()
                orelse = done.pop()
                return If(cond, then, orelse)

            work.append(("assemble", assemble_if))
            work.append(("visit", term.cond, replacements, avoid))
            work.append(("visit", term.then, replacements, avoid))
            work.append(("visit", term.orelse, replacements, avoid))
        elif isinstance(term, Prim):
            def assemble_prim(done, op=term.op, count=len(term.args)):
                args = [done.pop() for _ in range(count)]  # newest-first
                args.reverse()
                return Prim(op, tuple(args))

            work.append(("assemble", assemble_prim))
            for arg in reversed(term.args):
                work.append(("visit", arg, replacements, avoid))
        elif isinstance(term, Score):
            work.append(("assemble", lambda done: Score(done.pop())))
            work.append(("visit", term.arg, replacements, avoid))
        elif isinstance(term, (Numeral, Sample)) or is_extension_leaf(term):
            results.append(term)
        else:
            raise TypeError(f"unknown term: {term!r}")
    (substituted,) = results
    return substituted


def alpha_equivalent(left: Term, right: Term) -> bool:
    """Structural equality of terms up to renaming of bound variables.

    Walks both terms in lockstep on an explicit stack of (left, right,
    left_env, right_env) items; an environment maps a bound name to the level
    of its binder pair, so deep terms cannot overflow the interpreter stack.
    """
    levels = itertools.count()
    stack = [(left, right, {}, {})]
    while stack:
        left, right, left_env, right_env = stack.pop()
        if type(left) is not type(right):
            return False
        if isinstance(left, Var):
            left_level = left_env.get(left.name)
            right_level = right_env.get(right.name)
            if left_level is None and right_level is None:
                if left.name != right.name:
                    return False
            elif left_level != right_level:
                return False
        elif isinstance(left, (Lam, Fix)):
            pair_levels = [next(levels) for _ in _binders(left)]
            stack.append(
                (
                    left.body,
                    right.body,
                    {**left_env, **dict(zip(_binders(left), pair_levels))},
                    {**right_env, **dict(zip(_binders(right), pair_levels))},
                )
            )
        elif isinstance(left, _COMPOUND):
            if isinstance(left, Prim) and (
                left.op != right.op or len(left.args) != len(right.args)
            ):
                return False
            pairs = zip(_children(left), _children(right))
            stack.extend(
                (a, b, left_env, right_env) for a, b in reversed(list(pairs))
            )
        elif isinstance(left, Numeral):
            if left.value != right.value:
                return False
        elif isinstance(left, Sample) or is_extension_leaf(left):
            if left != right:
                return False
        else:
            raise TypeError(f"unknown term: {left!r}")
    return True
