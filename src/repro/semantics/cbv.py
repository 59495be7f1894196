"""Call-by-value small-step semantics for SPCF (Fig. 8 / App. A.3).

The CbV strategy evaluates the argument of an application before performing
the beta or fixpoint step, and the redexes require the argument to be a
value::

    R ::= (lam x. M) V | (mu phi x. M) V | if(r, N, P)
        | f(r_1, ..., r_|f|) | sample | score(r)
    E ::= [.] | E M | (lam x. M) E | (mu phi x. M) E | if(E, N, P)
        | f(r_1, ..., r_{k-1}, E, M_{k+1}, ..., M_|f|) | score(E)

The AST verification machinery of Sections 5-6 of the paper works over CbV
programs; the lower-bound machinery of Sections 3-4 uses CbN.
"""

from __future__ import annotations

from typing import Optional, Tuple

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
    is_value,
    substitute,
)
from repro.semantics.machine import RunResult, RunStatus, SPCFMachineError, StuckSignal
from repro.semantics.traces import Trace

# ``is_value`` inlined into the hot stepping loop: ``_step`` recurses once
# per evaluation-context frame on every step.
_VALUES = (Var, Numeral, Lam, Fix)


class CbVMachine:
    """The call-by-value SPCF machine."""

    def __init__(self, registry: Optional[PrimitiveRegistry] = None) -> None:
        self.registry = registry or default_registry()

    def step(self, term: Term, trace: Trace) -> Optional[Tuple[Term, Trace]]:
        """Perform one CbV reduction step; return ``None`` if ``term`` is a value."""
        if is_value(term):
            return None
        return self._step(term, trace)

    def _step(self, term: Term, trace: Trace) -> Tuple[Term, Trace]:
        if isinstance(term, App):
            fn, arg = term.fn, term.arg
            if not isinstance(fn, _VALUES):
                new_fn, new_trace = self._step(fn, trace)
                return App(new_fn, arg), new_trace
            if isinstance(fn, (Lam, Fix)) and not isinstance(arg, _VALUES):
                new_arg, new_trace = self._step(arg, trace)
                return App(fn, new_arg), new_trace
            if isinstance(fn, Lam):
                return substitute(fn.body, {fn.var: arg}), trace
            if isinstance(fn, Fix):
                return substitute(fn.body, {fn.var: arg, fn.fvar: fn}), trace
            raise StuckSignal(RunStatus.STUCK, "application of a non-function value")
        if isinstance(term, If):
            cond = term.cond
            if isinstance(cond, Numeral):
                return (term.then if cond.value <= 0 else term.orelse), trace
            if isinstance(cond, _VALUES):
                raise StuckSignal(RunStatus.STUCK, "conditional guard is not a numeral")
            new_cond, new_trace = self._step(cond, trace)
            return If(new_cond, term.then, term.orelse), new_trace
        if isinstance(term, Prim):
            for index, argument in enumerate(term.args):
                if isinstance(argument, Numeral):
                    continue
                if isinstance(argument, _VALUES):
                    raise StuckSignal(
                        RunStatus.STUCK, f"primitive argument {index} is not a numeral"
                    )
                new_argument, new_trace = self._step(argument, trace)
                new_args = term.args[:index] + (new_argument,) + term.args[index + 1 :]
                return Prim(term.op, new_args), new_trace
            primitive = self.registry[term.op]
            values = [arg.value for arg in term.args]  # type: ignore[union-attr]
            try:
                result = primitive(*values)
            except (ValueError, ZeroDivisionError, OverflowError) as error:
                raise StuckSignal(RunStatus.STUCK, f"primitive {term.op!r} failed: {error}")
            return Numeral(result), trace
        if isinstance(term, Sample):
            if trace.is_empty():
                raise StuckSignal(RunStatus.TRACE_EXHAUSTED, "sample on an empty trace")
            return Numeral(trace.head()), trace.rest()
        if isinstance(term, Score):
            argument = term.arg
            if isinstance(argument, Numeral):
                if argument.value < 0:
                    raise StuckSignal(RunStatus.SCORE_FAILED, "score of a negative value")
                return argument, trace
            if isinstance(argument, _VALUES):
                raise StuckSignal(RunStatus.STUCK, "score argument is not a numeral")
            new_argument, new_trace = self._step(argument, trace)
            return Score(new_argument), new_trace
        if isinstance(term, Var):
            raise StuckSignal(RunStatus.STUCK, f"free variable {term.name!r}")
        raise SPCFMachineError(f"cannot step term {term!r}")

    def run(self, term: Term, trace: Trace, max_steps: int = 100_000) -> RunResult:
        """Run ``<term, trace>`` until a value, stuckness, or the step budget."""
        steps = 0
        current, remaining = term, trace
        while steps < max_steps:
            try:
                outcome = self.step(current, remaining)
            except StuckSignal as stuck:
                return RunResult(stuck.status, current, remaining, steps, stuck.detail)
            except RecursionError:
                # The evaluation context is deeper than the Python stack allows
                # (a very long chain of pending calls); report the run as
                # exceeding its budget rather than crashing the caller.
                return RunResult(RunStatus.STEP_LIMIT, current, remaining, steps)
            if outcome is None:
                if remaining.is_empty():
                    return RunResult(RunStatus.TERMINATED, current, remaining, steps)
                return RunResult(
                    RunStatus.VALUE_WITH_LEFTOVER_TRACE, current, remaining, steps
                )
            current, remaining = outcome
            steps += 1
        return RunResult(RunStatus.STEP_LIMIT, current, remaining, steps)

    def terminates_on(
        self, term: Term, trace: Trace, max_steps: int = 100_000
    ) -> bool:
        """True iff ``trace`` is a terminating trace for ``term``."""
        return self.run(term, trace, max_steps=max_steps).terminated
