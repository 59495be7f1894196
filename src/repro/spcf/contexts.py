"""Evaluation contexts of SPCF, shared by every small-step machine.

Every reduction relation of the paper -- call-by-name (Fig. 2), call-by-value
(Fig. 8), interval traces (Fig. 9), the counting ``star`` semantics (Fig. 5)
and the symbolic/oracle semantics (Figs. 11/12) -- contracts the unique redex
``R`` of a decomposition ``M = E[R]`` over the same evaluation contexts::

    E ::= [.] | E M | if(E, N, P) | score(E)
        | f(r_1, ..., r_{k-1}, E, M_{k+1}, ..., M_|f|)
        | F E          (call-by-value only; F a function value)

The machines differ only in which terms are values, which values are the
numerals ``r`` that conditionals, primitives and ``score`` consume, which
values are functions ``F`` (``lam``/``mu``, plus the recursion marker of the
counting semantics), and in how they contract a redex.  :class:`Contexts`
is parameterised by exactly that and owns the rest:

* :meth:`Contexts.refocus` decomposes a term into an explicit frame stack
  (innermost frame last) plus its redex, and after a contraction continues
  from the held frames instead of re-descending from the root
  ("refocusing", Danvy & Nielsen 2004).  The walk is iterative, so contexts
  of any depth are fine.
* :func:`plug` rebuilds a term from frames and a hole filler.  Machines plug
  only where a term must exist: a stored or forked configuration, a
  returned result, or a suspended frontier.  A frame whose hole still holds
  the subterm it was entered through returns its original node, so a plugged
  term shares exactly the nodes a search-and-rebuild step would have kept
  (the frontier codec deduplicates nodes by identity).
* :meth:`Contexts.run` drives a machine's contraction rule to a value, a
  stuck redex or a step budget; :func:`unfold` is the beta and ``mu`` rule
  every machine shares.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional, Tuple

from repro.spcf.syntax import App, Fix, If, Lam, Prim, Score, Term, substitute, unfold_fix


class Strategy(enum.Enum):
    """Evaluation strategy: where the context may place the hole of an application."""

    CBN = "call-by-name"
    CBV = "call-by-value"


class Stuck(Exception):
    """Raised by a contraction rule when no rule applies to the redex.

    ``status`` is the machine's own stuck status (each machine has an enum of
    outcomes); ``detail`` the human-readable reason.
    """

    def __init__(self, status, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail


# Frame kinds.  A frame is a tuple whose first two entries are the kind and
# the node the hole was entered through (``None`` when no such node exists,
# e.g. after the function of a call-by-value application became a value):
#   (_FN, App node)                     E M
#   (_ARG, App node or None, function)  F E
#   (_IF, If node)                      if(E, N, P)
#   (_PRIM, Prim node or None, op, arguments, index)
#   (_SCORE, Score node)                score(E)
_FN, _ARG, _IF, _PRIM, _SCORE = range(5)

Frames = List[tuple]

STEP_LIMIT = "step-limit"
"""The stop reason :meth:`Contexts.run` reports when the budget ran out."""


def unfold(function: Term, argument: Term) -> Term:
    """Contract ``(lam x. M) N`` to ``M[N/x]`` or ``(mu phi x. M) N`` to
    ``M[N/x, mu phi x. M/phi]``."""
    if isinstance(function, Lam):
        return substitute(function.body, {function.var: argument})
    return unfold_fix(function, argument)


def plug(frames: Frames, term: Term) -> Term:
    """The term ``E[term]`` for the context ``E`` held in ``frames``."""
    for frame in reversed(frames):
        kind, node = frame[0], frame[1]
        if kind == _FN:
            term = node if node.fn is term else App(term, node.arg)
        elif kind == _ARG:
            if node is None or node.arg is not term:
                node = App(frame[2], term)
            term = node
        elif kind == _IF:
            term = node if node.cond is term else If(term, node.then, node.orelse)
        elif kind == _PRIM:
            _, node, op, args, index = frame
            if node is None or node.args[index] is not term:
                node = Prim(op, args[:index] + (term,) + args[index + 1 :])
            term = node
        else:
            term = node if node.arg is term else Score(term)
    return term


class Contexts:
    """The evaluation contexts of one machine.

    ``values`` are the classes of values (terms that are not decomposed),
    ``numerals`` the values a conditional, primitive or ``score`` consumes,
    and ``functions`` the values whose argument call-by-value evaluates
    before contracting the application.
    """

    __slots__ = ("strategy", "values", "numerals", "functions", "_cbv")

    def __init__(
        self,
        strategy: Strategy,
        values: Tuple[type, ...],
        numerals: Tuple[type, ...],
        functions: Tuple[type, ...] = (Lam, Fix),
    ) -> None:
        self.strategy = strategy
        self.values = values
        self.numerals = numerals
        self.functions = functions
        self._cbv = strategy is Strategy.CBV

    def refocus(self, frames: Frames, term: Term) -> Term:
        """Fill the hole of ``frames`` with ``term`` and find the next redex.

        Updates ``frames`` in place to the redex's context and returns the
        redex, or returns the value the whole term reduced to (``frames`` is
        then empty).  With empty ``frames`` this is the decomposition of
        ``term``.  A redex is any non-value that is not decomposed further:
        an application of a value, a conditional on a value, a primitive whose
        arguments are numerals up to a first non-numeral value, ``score`` of a
        value, or a leaf such as ``sample``.  Which of them contract and
        which are stuck is the machine's business.
        """
        values = self.values
        while True:
            if isinstance(term, values):
                if not frames:
                    return term
                frame = frames.pop()
                kind = frame[0]
                if kind == _FN:
                    argument = frame[1].arg
                    if (
                        self._cbv
                        and isinstance(term, self.functions)
                        and not isinstance(argument, values)
                    ):
                        frames.append((_ARG, None, term))
                        term = argument
                        continue
                    return App(term, argument)
                if kind == _ARG:
                    return App(frame[2], term)
                if kind == _IF:
                    node = frame[1]
                    return If(term, node.then, node.orelse)
                if kind == _SCORE:
                    return Score(term)
                _, _, op, args, index = frame
                args = args[:index] + (term,) + args[index + 1 :]
                if isinstance(term, self.numerals):
                    argument = self._enter_argument(frames, None, op, args, index + 1)
                    if argument is not None:
                        term = argument
                        continue
                return Prim(op, args)
            if isinstance(term, App):
                function = term.fn
                if not isinstance(function, values):
                    frames.append((_FN, term))
                    term = function
                    continue
                if (
                    self._cbv
                    and isinstance(function, self.functions)
                    and not isinstance(term.arg, values)
                ):
                    frames.append((_ARG, term, function))
                    term = term.arg
                    continue
                return term
            if isinstance(term, If):
                if isinstance(term.cond, values):
                    return term
                frames.append((_IF, term))
                term = term.cond
                continue
            if isinstance(term, Prim):
                argument = self._enter_argument(frames, term, term.op, term.args, 0)
                if argument is None:
                    return term
                term = argument
                continue
            if isinstance(term, Score):
                if isinstance(term.arg, values):
                    return term
                frames.append((_SCORE, term))
                term = term.arg
                continue
            return term

    def _enter_argument(
        self, frames: Frames, node: Optional[Prim], op: str, args: tuple, start: int
    ) -> Optional[Term]:
        """Enter the first non-numeral argument from ``start`` on: push its
        frame and return it.  ``None`` means the primitive is the redex: every
        argument is a numeral, or the first other one is a value (stuck)."""
        numerals = self.numerals
        for index in range(start, len(args)):
            argument = args[index]
            if isinstance(argument, numerals):
                continue
            if isinstance(argument, self.values):
                return None
            frames.append((_PRIM, node, op, args, index))
            return argument
        return None

    def step(self, contract: Callable, term: Term, state):
        """One step from the root: ``None`` on a value, else ``(term', state')``.

        ``contract(redex, state)`` returns the redex's contractum and the new
        state, or raises :class:`Stuck`.
        """
        frames: Frames = []
        redex = self.refocus(frames, term)
        if isinstance(redex, self.values):
            return None
        contractum, state = contract(redex, state)
        return plug(frames, contractum), state

    def run(
        self,
        contract: Callable,
        term: Term,
        state,
        max_steps: int,
        before: Optional[Callable] = None,
    ):
        """Reduce ``<term, state>`` to a value, a stuck redex or the budget.

        Returns ``(stop, term, state, steps)``: ``stop`` is ``None`` when
        ``term`` is the value reached, the :class:`Stuck` raised on the
        redex of ``term``, or :data:`STEP_LIMIT`.  ``before(redex, state,
        steps)``, when given, runs ahead of every contraction and returns the
        state to contract with.
        """
        refocus = self.refocus
        values = self.values
        frames: Frames = []
        steps = 0
        while steps < max_steps:
            redex = refocus(frames, term)
            if isinstance(redex, values):
                return None, redex, state, steps
            if before is not None:
                state = before(redex, state, steps)
            try:
                term, state = contract(redex, state)
            except Stuck as stuck:
                return stuck, plug(frames, redex), state, steps
            steps += 1
        return STEP_LIMIT, plug(frames, term), state, steps
