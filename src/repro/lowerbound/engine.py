"""The lower-bound engine (Sec. 3, Sec. 7.1).

``LowerBoundEngine.lower_bound(term, max_steps)`` enumerates the terminating
symbolic paths of ``term`` whose length does not exceed ``max_steps`` and sums
the measures of their constraint sets.  Distinct terminating paths differ in
at least one branch decision, so their trace sets are disjoint and the sum is
sound (this is the executable counterpart of summing the weights of pairwise
compatible interval traces in Thm. 3.4).  Completeness (Thm. 3.8) shows up
operationally: as ``max_steps`` grows the bound converges to ``Pterm`` for
programs over interval-separable primitives.

That convergence is inherently *anytime*, and the engine exposes it as such:
:meth:`LowerBoundEngine.session` opens a :class:`LowerBoundSession` whose
:meth:`~LowerBoundSession.extend` deepens the exploration incrementally -- the
suspended symbolic frontier is resumed instead of re-derived, and each
distinct terminated path is measured exactly once across the whole schedule.
Every intermediate :class:`~repro.lowerbound.result.LowerBoundResult` is
bit-identical to what a from-scratch ``lower_bound`` at the same depth would
return (the plain entry point is itself a one-extend session), so an anytime
schedule is purely a performance feature, never a numerical one.
:meth:`~LowerBoundSession.run_schedule` streams the monotone results of a
depth schedule with a ``target_gap``-driven early stop.

Invariants
----------

* **Soundness.**  Every emitted probability is a certified lower bound on
  ``Pterm``: path constraint sets of distinct terminating paths are
  disjoint, and inexact (swept) measures contribute their certified lower
  end, never an estimate.
* **Monotone anytime bounds.**  Along any non-decreasing depth schedule the
  reported bound is non-decreasing and the certified
  :meth:`~repro.lowerbound.result.LowerBoundResult.anytime_gap` is
  non-increasing; a ``target_gap`` early stop only ever stops *after* the
  guarantee is reached.
* **Bit-identity.**  Each intermediate result equals the from-scratch
  ``lower_bound`` at the same depth, byte for byte once JSON-encoded --
  sessions, shared measure engines, persistent caches and the analysis
  daemon can therefore be mixed freely without changing a single digit.
* **Session budgets are non-decreasing** (enforced, not assumed): a session
  asked to shrink its budget raises instead of silently re-exploring.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

import repro.telemetry as telemetry
from repro.geometry.engine import MeasureEngine
from repro.geometry.measure import MeasureOptions
from repro.lowerbound.result import LowerBoundResult, PathMeasure
from repro.spcf.contexts import Strategy
from repro.spcf.primitives import PrimitiveRegistry, default_registry
from repro.spcf.syntax import Term, free_variables
from repro.symbolic.execute import SymbolicExplorer

Number = Union[Fraction, float]


class LowerBoundSession:
    """A resumable anytime lower-bound computation for one closed term.

    The session pairs an :class:`~repro.symbolic.execute.ExplorationSession`
    (the suspended-path frontier) with a per-path measure memo: a terminated
    path discovered at one depth is never re-measured when deeper extends
    report it again, and never re-executed either.  ``extend(d)`` returns the
    same :class:`~repro.lowerbound.result.LowerBoundResult` -- bit for bit,
    path order included -- as a fresh ``lower_bound(term, max_steps=d)``.
    """

    def __init__(
        self,
        engine: "LowerBoundEngine",
        term: Term,
        max_paths: int = 200_000,
        exploration=None,
    ) -> None:
        if free_variables(term):
            raise ValueError("lower bounds are only defined for closed terms")
        self._engine = engine
        # ``exploration`` lets callers hand over a pre-built (typically
        # store-restored) ExplorationSession; the budget-monotonicity and
        # bit-identity invariants then hold across the hand-off, because the
        # restored session replays its history exactly.
        self._session = exploration or engine._explorer.session(
            term, max_paths=max_paths, stats=engine.measure_engine.stats
        )
        # Measures memoized per terminated path *object*: the exploration
        # session owns and retains every terminated path, so identity is a
        # sound (and allocation-free) key across extends.
        self._measured = {}

    @property
    def max_steps(self) -> int:
        """The deepest step budget reached so far."""
        return self._session.max_steps

    @property
    def exploration(self):
        """The underlying :class:`~repro.symbolic.execute.ExplorationSession`.

        Exposed so the distributed scheduler can encode, split and absorb the
        suspended frontier between extends.
        """
        return self._session

    def extend(self, max_steps: int) -> LowerBoundResult:
        """Deepen to ``max_steps`` and return the bound at that depth.

        Budgets are non-decreasing across extends.  The result equals a
        from-scratch :meth:`LowerBoundEngine.lower_bound` at the same depth;
        only the work differs (suspended paths resume, known paths replay
        their memoized measure).
        """
        exploration = self._session.extend(max_steps)
        measure_engine = self._engine.measure_engine
        measured = []
        probability: Number = Fraction(0)
        expected_steps: Number = Fraction(0)
        measure_gap: Number = Fraction(0)
        exact = True
        for path in exploration.terminated:
            measure = self._measured.get(id(path))
            if measure is None:
                measure = measure_engine.measure(path.constraints, path.num_variables)
                self._measured[id(path)] = measure
            if measure.upper is not None:
                # The sweep's undecided volume for this path: certified mass
                # the budget could not decide.  Measures without a recorded
                # bracket (e.g. float polytope approximations) contribute
                # nothing -- their slack is float-level, not budget-level.
                measure_gap = measure_gap + (measure.upper - measure.value)
            if measure.value == 0:
                continue
            measured.append(PathMeasure(path, measure))
            probability = probability + measure.value
            expected_steps = expected_steps + measure.value * path.steps
            exact = exact and measure.exact
        result = LowerBoundResult(
            probability=probability,
            expected_steps=expected_steps,
            paths=tuple(measured),
            max_steps=max_steps,
            exhaustive=exploration.complete,
            exact_measures=exact,
            measure_gap=measure_gap,
        )
        if telemetry.enabled():
            # One event per scheduled depth makes the anytime convergence
            # replayable: [lower, gap] as of this budget, per program.
            telemetry.emit(
                "anytime-bound",
                depth=max_steps,
                lower=float(probability),
                gap=float(result.anytime_gap()),
                paths=len(measured),
                exhaustive=exploration.complete,
            )
        return result

    def run_schedule(
        self,
        schedule: Iterable[int],
        target_gap: Optional[Number] = None,
    ) -> Iterator[LowerBoundResult]:
        """Stream the bounds of a non-decreasing depth schedule.

        One :class:`LowerBoundResult` is yielded per scheduled depth; the
        bounds are monotone in the schedule (deeper budgets only add path
        mass).  With a ``target_gap``, the schedule stops early as soon as
        :meth:`LowerBoundResult.anytime_gap` -- the certified slack deeper
        budgets could still close -- drops to the target.
        """
        for depth in schedule:
            result = self.extend(depth)
            yield result
            if target_gap is not None and result.anytime_gap() <= target_gap:
                return


class LowerBoundEngine:
    """Computes certified lower bounds on ``Pterm`` and ``Eterm``."""

    def __init__(
        self,
        strategy: Strategy = Strategy.CBN,
        registry: Optional[PrimitiveRegistry] = None,
        measure_options: Optional[MeasureOptions] = None,
        measure_engine: Optional[MeasureEngine] = None,
    ) -> None:
        self.strategy = strategy
        # A shared memoizing engine may be supplied so repeated or nested
        # analyses (e.g. the PAST classification) measure each distinct path
        # constraint set only once; by default every LowerBoundEngine owns a
        # private cache.  A given engine supersedes ``registry`` so that
        # exploration and measuring agree on primitive semantics.
        self.measure_engine = measure_engine or MeasureEngine(
            measure_options, registry or default_registry()
        )
        self.registry = self.measure_engine.registry
        self.measure_options = self.measure_engine.options
        self._explorer = SymbolicExplorer(
            strategy, self.registry, stats=self.measure_engine.stats
        )

    def session(
        self, term: Term, max_paths: int = 200_000, exploration=None
    ) -> LowerBoundSession:
        """Open a resumable anytime computation (see :class:`LowerBoundSession`).

        ``max_paths`` is fixed for the session's lifetime: the safety valve
        must mean the same thing at every depth of a schedule, and a capped
        session keeps (never drops) the paths beyond the cap, so every
        subsequent extend keeps reporting ``exhaustive=False``.  A
        store-restored ``exploration`` session may be handed over in place of
        a fresh frontier (see :class:`LowerBoundSession`).
        """
        return LowerBoundSession(
            self, term, max_paths=max_paths, exploration=exploration
        )

    def lower_bound(
        self,
        term: Term,
        max_steps: int = 100,
        max_paths: int = 200_000,
    ) -> LowerBoundResult:
        """Compute a lower bound on ``Pterm(term)`` by depth-bounded exploration.

        ``max_steps`` is the per-path reduction-step budget (the ``d`` column
        of Table 1); ``max_paths`` caps the total number of explored paths as
        a safety valve for very wide programs.
        """
        return self.session(term, max_paths=max_paths).extend(max_steps)

    def lower_bound_schedule(
        self,
        term: Term,
        schedule: Iterable[int],
        max_paths: int = 200_000,
        target_gap: Optional[Number] = None,
    ) -> Iterator[LowerBoundResult]:
        """Stream anytime bounds over a depth schedule (one incremental job).

        Convenience for :meth:`session` + :meth:`LowerBoundSession.run_schedule`;
        the per-depth results are bit-identical to independent
        :meth:`lower_bound` calls at the same depths, computed in a fraction
        of the exploration steps.
        """
        session = self.session(term, max_paths=max_paths)
        return session.run_schedule(schedule, target_gap=target_gap)


def lower_bound(
    term: Term,
    max_steps: int = 100,
    max_paths: int = 200_000,
    strategy: Strategy = Strategy.CBN,
    registry: Optional[PrimitiveRegistry] = None,
    measure_options: Optional[MeasureOptions] = None,
    measure_engine: Optional[MeasureEngine] = None,
) -> LowerBoundResult:
    """Convenience wrapper around :class:`LowerBoundEngine`."""
    engine = LowerBoundEngine(strategy, registry, measure_options, measure_engine)
    return engine.lower_bound(term, max_steps=max_steps, max_paths=max_paths)
