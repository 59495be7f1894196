"""Extraction of counting patterns (Def. 5.7).

``counting_pattern_exact`` enumerates the symbolic paths of the counting
semantics for a *fixed* actual argument ``r`` and measures each path's
constraint set, yielding the exact (sub-)distribution of the number of
recursive calls ``[| mu phi x. M | r |]``.  ``counting_pattern_monte_carlo``
estimates the same distribution by running the concrete counting machine of
Fig. 5 on lazily supplied uniform draws; the two are cross-checked in the test
suite (Ex. 5.8 gives the closed form for the running example).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from repro.geometry.engine import MeasureEngine
from repro.geometry.measure import MeasureOptions
from repro.randomwalk.step_distribution import CountingDistribution
from repro.semantics.traces import Trace
from repro.spcf.contexts import Strategy, plug
from repro.spcf.primitives import PrimitiveRegistry, default_registry
from repro.spcf.syntax import Fix, Numeral, Term, substitute
from repro.symbolic.constraints import Constraint, ConstraintSet, Relation
from repro.symbolic.execute import (
    RecMarker,
    StepBranch,
    StepRecCall,
    StepScore,
    StepStuck,
    StepTerm,
    SymbolicStepper,
)
from repro.counting.star_semantics import StarRunStatus, run_body

Number = Union[Fraction, float, int]


@dataclass(frozen=True)
class CountingPath:
    """One terminating symbolic path of the counting semantics."""

    constraints: ConstraintSet
    num_variables: int
    calls: int
    steps: int


@dataclass(frozen=True)
class CountingPatternResult:
    """The exact counting pattern for one actual argument."""

    distribution: CountingDistribution
    paths: Tuple[CountingPath, ...]
    stuck_paths: int
    unfinished_paths: int
    exact: bool

    @property
    def complete(self) -> bool:
        """True iff the pattern accounts for every run (mass may still be < 1
        when some runs get stuck, e.g. on a failing score)."""
        return self.unfinished_paths == 0


def _symbolic_body(fix: Fix, argument: Number) -> Term:
    return substitute(fix.body, {fix.var: Numeral(argument), fix.fvar: RecMarker()})


def enumerate_counting_paths(
    fix: Fix,
    argument: Number,
    max_steps: int = 2_000,
    max_paths: int = 50_000,
    registry: Optional[PrimitiveRegistry] = None,
) -> Tuple[List[CountingPath], int, int]:
    """Enumerate the terminating symbolic paths of ``body(argument)``.

    Returns ``(paths, stuck, unfinished)``.
    """
    registry = registry or default_registry()
    stepper = SymbolicStepper(Strategy.CBV, registry)
    refocus = stepper.contexts.refocus
    values = stepper.contexts.values
    paths: List[CountingPath] = []
    stuck = 0
    unfinished = 0
    pending = [(_symbolic_body(fix, argument), ConstraintSet(), 0, 0, 0)]
    explored = 0
    while pending:
        if explored >= max_paths:
            unfinished += len(pending)
            break
        term, constraints, next_variable, steps, calls = pending.pop()
        explored += 1
        frames: list = []
        while True:
            if steps >= max_steps:
                unfinished += 1
                break
            redex = refocus(frames, term)
            if isinstance(redex, values):
                paths.append(CountingPath(constraints, next_variable, calls, steps))
                break
            outcome = stepper.contract(redex, next_variable)
            if isinstance(outcome, StepTerm):
                term = outcome.term
                if outcome.consumed_sample:
                    next_variable += 1
                steps += 1
                continue
            if isinstance(outcome, StepScore):
                constraints = constraints.add(Constraint(outcome.value, Relation.GE))
                term = outcome.term
                steps += 1
                continue
            if isinstance(outcome, StepRecCall):
                term = outcome.term
                calls += 1
                steps += 1
                continue
            if isinstance(outcome, StepBranch):
                if outcome.guard.contains_star():
                    stuck += 1
                    break
                # The then-branch waits as a plugged configuration; the
                # else-branch continues in the held context.
                pending.append(
                    (
                        plug(frames, outcome.then_term),
                        constraints.add(Constraint(outcome.guard, Relation.LE)),
                        next_variable,
                        steps + 1,
                        calls,
                    )
                )
                term = outcome.else_term
                constraints = constraints.add(Constraint(outcome.guard, Relation.GT))
                steps += 1
                continue
            if isinstance(outcome, StepStuck):
                stuck += 1
                break
            raise TypeError(f"unexpected step outcome {outcome!r}")
    return paths, stuck, unfinished


def counting_pattern_exact(
    fix: Fix,
    argument: Number,
    max_steps: int = 2_000,
    max_paths: int = 50_000,
    registry: Optional[PrimitiveRegistry] = None,
    measure_options: Optional[MeasureOptions] = None,
    engine: Optional[MeasureEngine] = None,
) -> CountingPatternResult:
    """The counting pattern ``[| mu phi x. M | argument |]`` by exact path measuring.

    A shared :class:`MeasureEngine` may be supplied; patterns of programs
    whose guards do not mention the argument produce the same constraint sets
    for every ``argument``, so the PAST refutation (which samples several
    arguments) then measures each set only once.  A given engine supersedes
    ``measure_options`` and ``registry`` so enumeration and measuring agree
    on primitive semantics.
    """
    engine = engine or MeasureEngine(measure_options, registry)
    registry = engine.registry
    paths, stuck, unfinished = enumerate_counting_paths(
        fix, argument, max_steps=max_steps, max_paths=max_paths, registry=registry
    )
    masses: Dict[int, Union[Fraction, float]] = {}
    exact = True
    for path in paths:
        measure = engine.measure(path.constraints, path.num_variables)
        exact = exact and measure.exact
        if measure.value == 0:
            continue
        masses[path.calls] = masses.get(path.calls, Fraction(0)) + measure.value
    distribution = CountingDistribution(masses)
    return CountingPatternResult(
        distribution=distribution,
        paths=tuple(paths),
        stuck_paths=stuck,
        unfinished_paths=unfinished,
        exact=exact,
    )


def counting_pattern_monte_carlo(
    fix: Fix,
    argument: Number,
    runs: int = 5_000,
    max_steps: int = 10_000,
    seed: Optional[int] = 0,
    registry: Optional[PrimitiveRegistry] = None,
) -> CountingDistribution:
    """Estimate the counting pattern by simulating the counting machine of Fig. 5."""
    registry = registry or default_registry()
    rng = random.Random(seed)
    counts: Dict[int, int] = {}
    completed = 0
    for _ in range(runs):
        result = _run_body_lazily(fix, argument, rng, max_steps, registry)
        if result is None:
            continue
        completed += 1
        counts[result] = counts.get(result, 0) + 1
    if runs == 0:
        return CountingDistribution({})
    return CountingDistribution(
        {calls: Fraction(count, runs) for calls, count in counts.items()}
    )


def _run_body_lazily(
    fix: Fix,
    argument: Number,
    rng: random.Random,
    max_steps: int,
    registry: PrimitiveRegistry,
) -> Optional[int]:
    """One lazily-sampled run of the counting machine; returns the call count."""
    # Supply a generous trace up front and extend on exhaustion; the body of a
    # recursion makes finitely many draws per run, so a couple of retries with
    # a longer trace always suffice.
    length = 16
    while True:
        trace = Trace(tuple(rng.random() for _ in range(length)))
        result = run_body(fix, argument, trace, max_steps=max_steps, registry=registry)
        if result.status is StarRunStatus.COMPLETED:
            return result.calls
        if result.status is StarRunStatus.TRACE_EXHAUSTED and length < 4096:
            length *= 2
            continue
        return None
