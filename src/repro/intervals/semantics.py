"""The interval-based small-step semantics of Fig. 9 (call-by-name).

Configurations are ``<M, p>`` where ``M`` is an interval term and ``p`` an
interval trace.  The rules mirror the standard CbN semantics except that

* ``sample`` consumes an interval from the interval trace,
* a conditional ``if([a, b], N, P)`` reduces to ``N`` only when ``b <= 0`` and
  to ``P`` only when ``a > 0``; when the interval straddles 0 the
  configuration is *ambiguous* and gets stuck (the interval is not precise
  enough to determine the branch),
* a primitive applies its interval extension ``f_hat``,
* ``score([a, b])`` requires ``a >= 0``.

A terminating interval trace certifies that *every* standard trace refining it
is terminating with the same number of steps (Lem. B.2), which is the engine
behind the soundness theorem (Thm. 3.4).

The machine is a rule set over the call-by-name evaluation contexts of
:mod:`repro.spcf.contexts`: its values are variables, abstractions and
interval numerals (a standard numeral is a stuck redex: the term was not
embedded), and :meth:`IntervalMachine.contract` holds the rules above.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.intervals.interval import Interval
from repro.intervals.terms import IntervalNumeral
from repro.intervals.trace import IntervalTrace
from repro.spcf.contexts import STEP_LIMIT, Contexts, Strategy, Stuck, unfold
from repro.spcf.primitives import PrimitiveRegistry, default_registry
from repro.spcf.syntax import App, Fix, If, Lam, Numeral, Prim, Sample, Score, Term, Var


class IntervalRunStatus(enum.Enum):
    """Outcome of running an interval configuration."""

    TERMINATED = "terminated"
    VALUE_WITH_LEFTOVER_TRACE = "value-with-leftover-trace"
    TRACE_EXHAUSTED = "trace-exhausted"
    AMBIGUOUS_BRANCH = "ambiguous-branch"
    SCORE_FAILED = "score-failed"
    STUCK = "stuck"
    STEP_LIMIT = "step-limit"


@dataclass(frozen=True)
class IntervalRunResult:
    """Result of running an interval term on an interval trace."""

    status: IntervalRunStatus
    term: Term
    trace: IntervalTrace
    steps: int
    detail: Optional[str] = None

    @property
    def terminated(self) -> bool:
        return self.status is IntervalRunStatus.TERMINATED


_VALUES = (Var, IntervalNumeral, Lam, Fix)
_CONTEXTS = Contexts(Strategy.CBN, _VALUES, (IntervalNumeral,))


class IntervalMachine:
    """The call-by-name interval-based machine of Fig. 9."""

    def __init__(self, registry: Optional[PrimitiveRegistry] = None) -> None:
        self.registry = registry or default_registry()

    def contract(
        self, redex: Term, trace: IntervalTrace
    ) -> Tuple[Term, IntervalTrace]:
        """Reduce one redex; raises :class:`Stuck` when no rule applies."""
        if isinstance(redex, Numeral):
            raise Stuck(
                IntervalRunStatus.STUCK,
                "standard numeral inside an interval term (forgot to embed?)",
            )
        if isinstance(redex, App):
            if isinstance(redex.fn, (Lam, Fix)):
                return unfold(redex.fn, redex.arg), trace
            raise Stuck(IntervalRunStatus.STUCK, "application of a non-function value")
        if isinstance(redex, If):
            cond = redex.cond
            if isinstance(cond, IntervalNumeral):
                interval = cond.interval
                if interval.hi <= 0:
                    return redex.then, trace
                if interval.lo > 0:
                    return redex.orelse, trace
                raise Stuck(
                    IntervalRunStatus.AMBIGUOUS_BRANCH,
                    f"guard interval {interval} straddles 0",
                )
            raise Stuck(
                IntervalRunStatus.STUCK, "conditional guard is not an interval numeral"
            )
        if isinstance(redex, Prim):
            for index, argument in enumerate(redex.args):
                if not isinstance(argument, IntervalNumeral):
                    raise Stuck(
                        IntervalRunStatus.STUCK,
                        f"primitive argument {index} is not an interval numeral",
                    )
            primitive = self.registry[redex.op]
            bounds = [arg.interval.as_pair() for arg in redex.args]  # type: ignore[union-attr]
            try:
                lo, hi = primitive.on_box(*bounds)
            except (ValueError, ZeroDivisionError, OverflowError) as error:
                raise Stuck(
                    IntervalRunStatus.STUCK, f"primitive {redex.op!r} failed: {error}"
                )
            return IntervalNumeral(Interval(lo, hi)), trace
        if isinstance(redex, Sample):
            if trace.is_empty():
                raise Stuck(
                    IntervalRunStatus.TRACE_EXHAUSTED, "sample on an empty interval trace"
                )
            return IntervalNumeral(trace.head()), trace.rest()
        if isinstance(redex, Score):
            argument = redex.arg
            if isinstance(argument, IntervalNumeral):
                if argument.interval.lo < 0:
                    raise Stuck(
                        IntervalRunStatus.SCORE_FAILED,
                        "score of an interval with a negative lower bound",
                    )
                return argument, trace
            raise Stuck(
                IntervalRunStatus.STUCK, "score argument is not an interval numeral"
            )
        raise TypeError(f"cannot step interval term {redex!r}")

    def step(
        self, term: Term, trace: IntervalTrace
    ) -> Optional[Tuple[Term, IntervalTrace]]:
        """Perform one reduction step; return ``None`` on an interval value."""
        return _CONTEXTS.step(self.contract, term, trace)

    def run(
        self, term: Term, trace: IntervalTrace, max_steps: int = 100_000
    ) -> IntervalRunResult:
        """Run ``<term, trace>`` until a value, stuckness, or the step budget."""
        stop, term, trace, steps = _CONTEXTS.run(self.contract, term, trace, max_steps)
        if stop is None:
            if trace.is_empty():
                return IntervalRunResult(IntervalRunStatus.TERMINATED, term, trace, steps)
            return IntervalRunResult(
                IntervalRunStatus.VALUE_WITH_LEFTOVER_TRACE, term, trace, steps
            )
        if stop is STEP_LIMIT:
            return IntervalRunResult(IntervalRunStatus.STEP_LIMIT, term, trace, steps)
        return IntervalRunResult(stop.status, term, trace, steps, stop.detail)

    def terminates_on(
        self, term: Term, trace: IntervalTrace, max_steps: int = 100_000
    ) -> bool:
        """True iff ``trace`` is a terminating interval trace for ``term``."""
        return self.run(term, trace, max_steps=max_steps).terminated
