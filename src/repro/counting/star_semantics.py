"""The counting-based reduction relation of Fig. 5 (the ``star`` semantics).

To extract the counting pattern of ``mu phi x. M`` the paper analyses the term
``body(r) = M[r/x, mu/phi]``: the recursion variable is replaced by a marker
and the argument by a fixed real ``r``.  Evaluation proceeds call-by-value on
a concrete trace, except that

* applying the marker to a value counts one recursive call and returns the
  distinguished unknown numeral ``star``,
* a primitive applied to ``star`` returns ``star``,
* a conditional or a ``score`` whose scrutinee is ``star`` is stuck (the
  control flow would depend on a recursive outcome -- the progress type
  system of App. D.3 rules this out statically).

The machine is a rule set over the call-by-value evaluation contexts of
:mod:`repro.spcf.contexts`, with the marker counted among the function values
whose argument is evaluated first; like Fig. 8 it never evaluates the
argument of a non-function.  This module provides the concrete counting
machine; the exact, measure-based extraction of the counting pattern lives
in :mod:`repro.counting.pattern`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from repro.semantics.cbv import CbVMachine
from repro.semantics.machine import StuckSignal
from repro.semantics.traces import Trace
from repro.spcf.contexts import STEP_LIMIT, Contexts, Strategy, Stuck
from repro.spcf.primitives import PrimitiveRegistry, default_registry
from repro.spcf.syntax import App, Fix, If, Lam, Numeral, Prim, Score, Term, Var, substitute
from repro.symbolic.execute import RecMarker

Number = Union[Fraction, float, int]


@dataclass(frozen=True)
class StarNumeral(Term):
    """The distinguished unknown numeral ``star`` of type R."""

    def __repr__(self) -> str:
        return "StarNumeral()"


class StarRunStatus(enum.Enum):
    """Outcome of running the counting machine on a recursion body."""

    COMPLETED = "completed"
    TRACE_EXHAUSTED = "trace-exhausted"
    STUCK_ON_STAR_GUARD = "stuck-on-star-guard"
    SCORE_FAILED = "score-failed"
    STUCK = "stuck"
    STEP_LIMIT = "step-limit"


@dataclass(frozen=True)
class StarRunResult:
    """Result of one run of the counting machine."""

    status: StarRunStatus
    calls: int
    steps: int
    term: Term
    trace: Trace

    @property
    def completed(self) -> bool:
        return self.status is StarRunStatus.COMPLETED


_VALUES = (Var, Numeral, StarNumeral, Lam, Fix, RecMarker)
_CONTEXTS = Contexts(
    Strategy.CBV, _VALUES, (Numeral, StarNumeral), (Lam, Fix, RecMarker)
)


class StarMachine:
    """The call-by-value counting machine of Fig. 5.

    Its state is the pair ``(trace, calls)`` of the remaining trace and the
    number of recursive calls made so far.  Redexes without the marker or
    ``star`` contract by the concrete call-by-value rules.
    """

    def __init__(self, registry: Optional[PrimitiveRegistry] = None) -> None:
        self.registry = registry or default_registry()
        self._concrete = CbVMachine(self.registry)

    def contract(
        self, redex: Term, state: Tuple[Trace, int]
    ) -> Tuple[Term, Tuple[Trace, int]]:
        """Reduce one redex; raises :class:`Stuck` when no rule applies."""
        trace, calls = state
        if isinstance(redex, App) and isinstance(redex.fn, RecMarker):
            return StarNumeral(), (trace, calls + 1)
        if isinstance(redex, If) and isinstance(redex.cond, StarNumeral):
            raise Stuck(
                StarRunStatus.STUCK_ON_STAR_GUARD,
                "conditional guard depends on a recursive outcome",
            )
        if isinstance(redex, Score) and isinstance(redex.arg, StarNumeral):
            raise Stuck(
                StarRunStatus.STUCK_ON_STAR_GUARD,
                "score argument depends on a recursive outcome",
            )
        if isinstance(redex, Prim) and any(
            isinstance(argument, StarNumeral) for argument in redex.args
        ):
            for index, argument in enumerate(redex.args):
                if not isinstance(argument, (Numeral, StarNumeral)):
                    raise Stuck(
                        StarRunStatus.STUCK, f"primitive argument {index} is not a numeral"
                    )
            return StarNumeral(), state
        try:
            term, trace = self._concrete.contract(redex, trace)
        except StuckSignal as stuck:
            raise Stuck(StarRunStatus[stuck.status.name], stuck.detail) from None
        return term, (trace, calls)

    def step(
        self, term: Term, trace: Trace, calls: int
    ) -> Optional[Tuple[Term, Trace, int]]:
        """Perform one counting step; returns ``None`` when ``term`` is a value."""
        outcome = _CONTEXTS.step(self.contract, term, (trace, calls))
        if outcome is None:
            return None
        term, (trace, calls) = outcome
        return term, trace, calls

    def run(
        self, term: Term, trace: Trace, max_steps: int = 100_000
    ) -> StarRunResult:
        """Run the counting machine until a value, stuckness, or the step budget."""
        stop, term, (trace, calls), steps = _CONTEXTS.run(
            self.contract, term, (trace, 0), max_steps
        )
        if stop is None:
            status = StarRunStatus.COMPLETED
        elif stop is STEP_LIMIT:
            status = StarRunStatus.STEP_LIMIT
        else:
            status = stop.status
        return StarRunResult(status, calls, steps, term, trace)


def instantiate_body(fix: Fix, argument: Number) -> Term:
    """``body(argument) = M[argument/x, mu/phi]`` for the program ``mu phi x. M``."""
    return substitute(
        fix.body, {fix.var: Numeral(argument), fix.fvar: RecMarker()}
    )


def run_body(
    fix: Fix,
    argument: Number,
    trace: Trace,
    max_steps: int = 100_000,
    registry: Optional[PrimitiveRegistry] = None,
) -> StarRunResult:
    """Run one counting-semantics evaluation of the body of ``fix`` on ``argument``."""
    machine = StarMachine(registry)
    return machine.run(instantiate_body(fix, argument), trace, max_steps=max_steps)
