"""The concrete SPCF machine: one rule set for call-by-name and call-by-value.

The machine evaluates configurations ``<M, s>`` where ``M`` is a closed SPCF
term and ``s`` a trace; a run either reaches ``<V, eps>`` (termination: the
value and the entire trace were consumed -- Def. 2.1 requires the terminating
trace to be consumed exactly), runs out of the supplied trace, gets stuck on a
failing ``score``, or exceeds the step budget.

Evaluation contexts and their refocusing walk live in
:mod:`repro.spcf.contexts`; the strategy only decides whether an
application's argument is a context position.  This module contributes the
redex rules of Fig. 2 / Fig. 8: values are variables, numerals and
abstractions, and :meth:`ConcreteMachine.contract` reduces ``if``,
primitive, ``sample`` and ``score`` redexes on numerals (beta and ``mu``
unfolding are the shared :func:`~repro.spcf.contexts.unfold`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.spcf.contexts import STEP_LIMIT, Contexts, Strategy, Stuck, unfold
from repro.spcf.primitives import PrimitiveRegistry, default_registry
from repro.spcf.syntax import App, Fix, If, Lam, Numeral, Prim, Sample, Score, Term, Var
from repro.semantics.traces import Trace

VALUES = (Var, Numeral, Lam, Fix)
"""The values of the concrete machines (``is_value``)."""

CONTEXTS = {strategy: Contexts(strategy, VALUES, (Numeral,)) for strategy in Strategy}
"""The concrete machines' evaluation contexts, per strategy."""


class RunStatus(enum.Enum):
    """Outcome of running a configuration to quiescence."""

    TERMINATED = "terminated"
    """Reached a value with the whole trace consumed."""

    VALUE_WITH_LEFTOVER_TRACE = "value-with-leftover-trace"
    """Reached a value but some of the supplied trace was not consumed."""

    TRACE_EXHAUSTED = "trace-exhausted"
    """A ``sample`` redex found an empty trace: the supplied trace is too short."""

    SCORE_FAILED = "score-failed"
    """A ``score(r)`` redex with ``r < 0`` (conditioning on an impossible event)."""

    STUCK = "stuck"
    """Any other stuck non-value configuration (ill-typed or open term)."""

    STEP_LIMIT = "step-limit"
    """The step budget was exhausted before reaching a value."""


@dataclass(frozen=True)
class RunResult:
    """The result of running a term on a trace."""

    status: RunStatus
    term: Term
    trace: Trace
    steps: int
    detail: Optional[str] = None

    @property
    def terminated(self) -> bool:
        """True iff the run reached a value and consumed its whole trace."""
        return self.status is RunStatus.TERMINATED

    @property
    def reached_value(self) -> bool:
        """True iff the run reached a value (whether or not trace remains)."""
        return self.status in (
            RunStatus.TERMINATED,
            RunStatus.VALUE_WITH_LEFTOVER_TRACE,
        )


class SPCFMachineError(Exception):
    """Raised on malformed configurations (e.g. stepping an open term)."""


class StuckSignal(Stuck):
    """A stuck concrete configuration; ``status`` is a :class:`RunStatus`.

    :meth:`ConcreteMachine.run` converts this signal into a
    :class:`RunResult`; single-step drivers may catch it directly.
    """


def run_result(stop, term: Term, trace: Trace, steps: int) -> RunResult:
    """The :class:`RunResult` of a :meth:`Contexts.run` outcome."""
    if stop is None:
        if trace.is_empty():
            return RunResult(RunStatus.TERMINATED, term, trace, steps)
        return RunResult(RunStatus.VALUE_WITH_LEFTOVER_TRACE, term, trace, steps)
    if stop is STEP_LIMIT:
        return RunResult(RunStatus.STEP_LIMIT, term, trace, steps)
    return RunResult(stop.status, term, trace, steps, stop.detail)


class ConcreteMachine:
    """The SPCF machine on standard traces under a given strategy."""

    def __init__(
        self, strategy: Strategy, registry: Optional[PrimitiveRegistry] = None
    ) -> None:
        self.strategy = strategy
        self.registry = registry or default_registry()
        self.contexts = CONTEXTS[strategy]

    def contract(self, redex: Term, trace: Trace) -> Tuple[Term, Trace]:
        """Reduce one redex; raises :class:`StuckSignal` when no rule applies."""
        if isinstance(redex, App):
            if isinstance(redex.fn, (Lam, Fix)):
                return unfold(redex.fn, redex.arg), trace
            raise StuckSignal(RunStatus.STUCK, "application of a non-function value")
        if isinstance(redex, If):
            cond = redex.cond
            if isinstance(cond, Numeral):
                return (redex.then if cond.value <= 0 else redex.orelse), trace
            raise StuckSignal(RunStatus.STUCK, "conditional guard is not a numeral")
        if isinstance(redex, Prim):
            values = []
            for index, argument in enumerate(redex.args):
                if not isinstance(argument, Numeral):
                    raise StuckSignal(
                        RunStatus.STUCK, f"primitive argument {index} is not a numeral"
                    )
                values.append(argument.value)
            primitive = self.registry[redex.op]
            try:
                result = primitive(*values)
            except (ValueError, ZeroDivisionError, OverflowError) as error:
                raise StuckSignal(
                    RunStatus.STUCK, f"primitive {redex.op!r} failed: {error}"
                )
            return Numeral(result), trace
        if isinstance(redex, Sample):
            if trace.is_empty():
                raise StuckSignal(RunStatus.TRACE_EXHAUSTED, "sample on an empty trace")
            return Numeral(trace.head()), trace.rest()
        if isinstance(redex, Score):
            argument = redex.arg
            if isinstance(argument, Numeral):
                if argument.value < 0:
                    raise StuckSignal(RunStatus.SCORE_FAILED, "score of a negative value")
                return argument, trace
            raise StuckSignal(RunStatus.STUCK, "score argument is not a numeral")
        raise SPCFMachineError(f"cannot step term {redex!r}")

    def step(self, term: Term, trace: Trace) -> Optional[Tuple[Term, Trace]]:
        """Perform one reduction step; return ``None`` if ``term`` is a value.

        Raises :class:`StuckSignal` when no rule applies (callers normally use
        :meth:`run`, which converts stuckness into a :class:`RunResult`).
        """
        return self.contexts.step(self.contract, term, trace)

    def run(self, term: Term, trace: Trace, max_steps: int = 100_000) -> RunResult:
        """Run ``<term, trace>`` until a value, stuckness, or the step budget."""
        return run_result(*self.contexts.run(self.contract, term, trace, max_steps))

    def terminates_on(
        self, term: Term, trace: Trace, max_steps: int = 100_000
    ) -> bool:
        """True iff ``trace`` is a terminating trace for ``term`` (Def. 2.1)."""
        return self.run(term, trace, max_steps=max_steps).terminated
