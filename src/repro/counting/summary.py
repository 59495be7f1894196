"""The summary semantics of App. D.1 (Fig. 16).

The summary semantics evaluates the *body* of a recursive program on a
*summary trace*: a finite sequence whose entries are either ordinary random
draws in ``[0, 1]`` or *summaries* ``box(r -> r')`` standing for a whole
recursive call that was entered with argument ``r`` and returned ``r'``.
Whenever the body reaches a recursive call applied to the numeral ``r``, the
next trace entry must be a summary for ``r`` and the call is replaced by the
summarised result.

The semantics is the bridge between the counting machine of Fig. 5 (which
forgets the results of recursive calls) and the recursion-tree decomposition
of Def. D.2 (which stitches summarised runs back together along a number
tree); :func:`decompose_run` performs exactly that stitching for a concrete
terminating run produced by :mod:`repro.counting.numbertrees`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from repro.spcf.contexts import unfold
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
    substitute,
)
from repro.symbolic.execute import RecMarker

Number = Union[Fraction, float, int]

__all__ = [
    "Summary",
    "SummaryEntry",
    "SummaryRunResult",
    "SummaryRunStatus",
    "SummaryMachine",
    "run_body_with_summaries",
]


@dataclass(frozen=True)
class Summary:
    """A summary ``box(argument -> result)`` of one whole recursive call."""

    argument: Union[Fraction, float]
    result: Union[Fraction, float]

    def __repr__(self) -> str:
        return f"Summary({self.argument} -> {self.result})"


SummaryEntry = Union[Fraction, float, int, Summary]


class SummaryRunStatus(enum.Enum):
    """Outcome of one run of the summary machine."""

    COMPLETED = "completed"
    TRACE_EXHAUSTED = "trace-exhausted"
    EXPECTED_SUMMARY = "expected-summary"
    EXPECTED_DRAW = "expected-draw"
    ARGUMENT_MISMATCH = "argument-mismatch"
    SCORE_FAILED = "score-failed"
    STUCK = "stuck"
    STEP_LIMIT = "step-limit"


@dataclass(frozen=True)
class SummaryRunResult:
    """Result of running a recursion body against a summary trace."""

    status: SummaryRunStatus
    value: Optional[Union[Fraction, float]]
    summaries_used: Tuple[Summary, ...]
    draws_used: int
    steps: int

    @property
    def completed(self) -> bool:
        return self.status is SummaryRunStatus.COMPLETED

    @property
    def calls(self) -> int:
        """The number of recursive calls the run resolved via summaries."""
        return len(self.summaries_used)


class _Stop(Exception):
    def __init__(self, status: SummaryRunStatus, detail: str) -> None:
        super().__init__(detail)
        self.status = status


class SummaryMachine:
    """The call-by-value summary machine of Fig. 16.

    The machine is a big-step evaluator over summary traces; like the other
    machines in the package it is deterministic once the trace is fixed.
    """

    def __init__(
        self,
        registry: Optional[PrimitiveRegistry] = None,
        check_arguments: bool = True,
        max_steps: int = 100_000,
    ) -> None:
        self.registry = registry or default_registry()
        self.check_arguments = check_arguments
        self.max_steps = max_steps

    def run_body(
        self, fix: Fix, argument: Number, trace: Sequence[SummaryEntry]
    ) -> SummaryRunResult:
        """Evaluate ``body(argument) = M[argument/x, mu/phi]`` on ``trace``."""
        body = substitute(
            fix.body, {fix.var: Numeral(argument), fix.fvar: RecMarker()}
        )
        return self.run(body, trace)

    def run(self, term: Term, trace: Sequence[SummaryEntry]) -> SummaryRunResult:
        """Evaluate a (marker-instrumented) term on a summary trace."""
        state = _RunState(list(trace))
        try:
            value = self._eval(term, state)
        except _Stop as stop:
            return SummaryRunResult(
                status=stop.status,
                value=None,
                summaries_used=tuple(state.summaries),
                draws_used=state.draws,
                steps=state.steps,
            )
        if not isinstance(value, Numeral):
            return SummaryRunResult(
                status=SummaryRunStatus.COMPLETED,
                value=None,
                summaries_used=tuple(state.summaries),
                draws_used=state.draws,
                steps=state.steps,
            )
        return SummaryRunResult(
            status=SummaryRunStatus.COMPLETED,
            value=value.value,
            summaries_used=tuple(state.summaries),
            draws_used=state.draws,
            steps=state.steps,
        )

    # -- evaluation --------------------------------------------------------

    def _eval(self, term: Term, state: "_RunState") -> Term:
        state.tick(self.max_steps)
        if isinstance(term, (Numeral, Lam, Fix, RecMarker)):
            return term
        if isinstance(term, Var):
            raise _Stop(SummaryRunStatus.STUCK, f"free variable {term.name!r}")
        if isinstance(term, Sample):
            entry = state.next_entry()
            if isinstance(entry, Summary):
                raise _Stop(
                    SummaryRunStatus.EXPECTED_DRAW,
                    "sample reached a summary entry in the trace",
                )
            return Numeral(entry)
        if isinstance(term, App):
            fn = self._eval(term.fn, state)
            arg = self._eval(term.arg, state)
            if isinstance(fn, RecMarker):
                if not isinstance(arg, Numeral):
                    raise _Stop(SummaryRunStatus.STUCK, "recursive call on a non-numeral")
                entry = state.next_entry()
                if not isinstance(entry, Summary):
                    raise _Stop(
                        SummaryRunStatus.EXPECTED_SUMMARY,
                        "recursive call reached a plain draw in the trace",
                    )
                if self.check_arguments and entry.argument != arg.value:
                    raise _Stop(
                        SummaryRunStatus.ARGUMENT_MISMATCH,
                        f"summary argument {entry.argument} does not match call "
                        f"argument {arg.value}",
                    )
                state.summaries.append(entry)
                return Numeral(entry.result)
            if isinstance(fn, (Lam, Fix)):
                return self._eval(unfold(fn, arg), state)
            raise _Stop(SummaryRunStatus.STUCK, "application of a non-function value")
        if isinstance(term, If):
            cond = self._eval(term.cond, state)
            if not isinstance(cond, Numeral):
                raise _Stop(SummaryRunStatus.STUCK, "conditional guard is not a numeral")
            return self._eval(term.then if cond.value <= 0 else term.orelse, state)
        if isinstance(term, Prim):
            values = []
            for argument in term.args:
                evaluated = self._eval(argument, state)
                if not isinstance(evaluated, Numeral):
                    raise _Stop(SummaryRunStatus.STUCK, "primitive argument is not a numeral")
                values.append(evaluated.value)
            primitive = self.registry[term.op]
            try:
                return Numeral(primitive(*values))
            except (ValueError, ZeroDivisionError, OverflowError) as error:
                raise _Stop(SummaryRunStatus.STUCK, f"primitive failed: {error}")
        if isinstance(term, Score):
            argument = self._eval(term.arg, state)
            if not isinstance(argument, Numeral):
                raise _Stop(SummaryRunStatus.STUCK, "score argument is not a numeral")
            if argument.value < 0:
                raise _Stop(SummaryRunStatus.SCORE_FAILED, "score of a negative value")
            return argument
        raise _Stop(SummaryRunStatus.STUCK, f"cannot evaluate {term!r}")


class _RunState:
    """Mutable bookkeeping for one summary run."""

    def __init__(self, trace: List[SummaryEntry]) -> None:
        self.trace = trace
        self.position = 0
        self.summaries: List[Summary] = []
        self.draws = 0
        self.steps = 0

    def tick(self, max_steps: int) -> None:
        self.steps += 1
        if self.steps > max_steps:
            raise _Stop(SummaryRunStatus.STEP_LIMIT, "step budget exceeded")

    def next_entry(self) -> SummaryEntry:
        if self.position >= len(self.trace):
            raise _Stop(SummaryRunStatus.TRACE_EXHAUSTED, "summary trace exhausted")
        entry = self.trace[self.position]
        self.position += 1
        if not isinstance(entry, Summary):
            self.draws += 1
        return entry


def run_body_with_summaries(
    fix: Fix,
    argument: Number,
    trace: Sequence[SummaryEntry],
    registry: Optional[PrimitiveRegistry] = None,
    check_arguments: bool = True,
    max_steps: int = 100_000,
) -> SummaryRunResult:
    """Run one summary-semantics evaluation of the body of ``fix``."""
    machine = SummaryMachine(
        registry=registry, check_arguments=check_arguments, max_steps=max_steps
    )
    return machine.run_body(fix, argument, trace)
