"""Symbolic small-step execution and path exploration (App. B.5, Sec. 7.1).

The executor evaluates a closed SPCF term on a trace of *sample variables*:
every ``sample`` redex is resolved by a fresh variable ``a_i`` and every
conditional whose guard still mentions sample variables *forks* the execution,
recording the guard constraint (``guard <= 0`` on the left branch, ``guard >
0`` on the right branch) -- this is precisely the conditional-oracle semantics
of Fig. 11/12.  A terminating path therefore consists of

* the constraint set over the sample variables it introduced,
* the number of sample variables and of reduction steps,
* the branch choices taken (the conditional oracle ``kappa``).

Exploration enumerates terminating paths up to a per-path step budget (and an
optional bound on the number of explored paths); the measures of their
constraint sets sum to a lower bound on ``Pterm`` (Thm. 3.4 + Prop. B.8),
which is what :mod:`repro.lowerbound` computes.

Exploration is *resumable*: an :class:`ExplorationSession` keeps every
configuration ever created -- terminated, stuck, branched, or suspended on
the step budget -- ordered by its position in the breadth-first traversal,
so :meth:`ExplorationSession.extend` deepens the exploration by resuming the
suspended frontier instead of re-deriving every shallow path from the root.
The completeness result (Thm. 3.8) is inherently anytime -- the bound only
improves with the budget -- and the session makes that operational: each
``extend`` returns an :class:`ExplorationResult` *bit-identical* to a fresh
:meth:`SymbolicExplorer.explore` at the same budget, while executing each
reduction step at most once across the whole schedule.

:class:`SymbolicStepper` is the symbolic rule set over the evaluation
contexts of :mod:`repro.spcf.contexts`, for either strategy and with a
distinguished *recursion marker*; the AST verifier (Sec. 6) uses those to
build symbolic execution trees of recursion bodies.  Exploration holds each
path's context between steps and plugs a term only into a forked child or a
suspended configuration.

Invariants
----------

* **Bit-identity of resumption.**  For every budget ``d`` and every schedule
  of extends reaching it, ``session.extend(d)`` returns an
  :class:`ExplorationResult` equal -- path list, path order, constraint
  sets, statistics included -- to ``SymbolicExplorer.explore(term, d)`` from
  scratch.  The frontier is ordered by breadth-first discovery index, so
  resumption changes *when* a configuration is stepped, never *whether* or
  *in which output position*.
* **Monotone budgets.**  Budgets within a session are non-decreasing and
  path sets only grow with them; every terminated path reported at depth
  ``d`` is reported at every depth ``d' >= d``.  This is what makes the
  anytime lower bound monotone.
* **Each step once.**  Across a whole schedule, each small-step reduction is
  executed at most once; deepening costs only the new frontier work.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple, Union

import repro.telemetry as telemetry
from repro.spcf.contexts import Contexts, Strategy, plug, unfold
from repro.spcf.primitives import PrimitiveRegistry, default_registry
from repro.spcf.syntax import App, Fix, If, Lam, Numeral, Prim, Sample, Score, Term, Var
from repro.symbolic.constraints import Constraint, ConstraintSet, Relation
from repro.symbolic.values import (
    ConstVal,
    SampleVar,
    StarVal,
    SymNumeral,
    SymVal,
    simplify_prim,
)


@dataclass(frozen=True)
class RecMarker(Term):
    """The distinguished symbol ``mu`` standing for the recursive function.

    The counting semantics of Sec. 5.2 analyses ``body(r) = M[r/x, mu/phi]``:
    the recursive function is replaced by this marker, and applying the marker
    to a value is recorded as a recursive call whose outcome is the unknown
    numeral ``star``.
    """


def as_symbolic_value(term: Term) -> Optional[SymVal]:
    """View a term-level constant of type R as a symbolic value, if it is one."""
    if isinstance(term, Numeral):
        return ConstVal(term.value)
    if isinstance(term, SymNumeral):
        return term.value
    return None


_VALUES = (Var, Numeral, SymNumeral, Lam, Fix, RecMarker)
_CONTEXTS = {
    strategy: Contexts(strategy, _VALUES, (Numeral, SymNumeral), (Lam, Fix, RecMarker))
    for strategy in Strategy
}


# ---------------------------------------------------------------------------
# One symbolic step.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepValue:
    """The term is already a value."""


@dataclass(frozen=True)
class StepTerm:
    """A deterministic step to ``term``; ``consumed_sample`` reports whether a
    fresh sample variable was introduced."""

    term: Term
    consumed_sample: bool = False


@dataclass(frozen=True)
class StepBranch:
    """A conditional on a non-constant symbolic guard: the execution forks."""

    guard: SymVal
    then_term: Term
    else_term: Term


@dataclass(frozen=True)
class StepScore:
    """A ``score`` on a non-constant symbolic value: records ``value >= 0``."""

    value: SymVal
    term: Term


@dataclass(frozen=True)
class StepRecCall:
    """An application of the recursion marker to a value (CbV counting mode)."""

    argument: SymVal
    term: Term


@dataclass(frozen=True)
class StepStuck:
    """No rule applies."""

    reason: str


StepOutcome = Union[StepValue, StepTerm, StepBranch, StepScore, StepRecCall, StepStuck]


class SymbolicStepper:
    """The symbolic rule set: single symbolic reduction steps under a strategy.

    Values are variables, abstractions, the recursion marker and constants
    of type R -- numerals and :class:`SymNumeral` symbolic values.
    :meth:`contract` reduces one redex of the shared evaluation contexts
    (:attr:`contexts`) to a redex-local :data:`StepOutcome`; drivers that
    keep the context between steps plug its terms only where a term must
    exist.
    """

    def __init__(
        self,
        strategy: Strategy = Strategy.CBN,
        registry: Optional[PrimitiveRegistry] = None,
    ) -> None:
        self.strategy = strategy
        self.registry = registry or default_registry()
        self.contexts = _CONTEXTS[strategy]

    def step(self, term: Term, next_variable: int) -> StepOutcome:
        """Reduce the unique redex of ``term``; fresh samples use ``next_variable``."""
        frames: list = []
        redex = self.contexts.refocus(frames, term)
        if isinstance(redex, _VALUES):
            return StepValue()
        outcome = self.contract(redex, next_variable)
        # Plug every continuation term of the outcome into the context.
        terms = {
            name: plug(frames, value)
            for name, value in vars(outcome).items()
            if isinstance(value, Term)
        }
        return replace(outcome, **terms) if terms else outcome

    def contract(self, redex: Term, next_variable: int) -> StepOutcome:
        """The outcome of one redex, its continuation terms redex-local."""
        if isinstance(redex, App):
            return self._contract_app(redex)
        if isinstance(redex, If):
            guard = as_symbolic_value(redex.cond)
            if guard is None:
                return StepStuck("conditional guard is not of type R")
            if isinstance(guard, ConstVal):
                return StepTerm(redex.then if guard.value <= 0 else redex.orelse)
            return StepBranch(guard, redex.then, redex.orelse)
        if isinstance(redex, Prim):
            return self._contract_prim(redex)
        if isinstance(redex, Sample):
            return StepTerm(SymNumeral(SampleVar(next_variable)), consumed_sample=True)
        if isinstance(redex, Score):
            value = as_symbolic_value(redex.arg)
            if value is None:
                return StepStuck("score argument is not of type R")
            if isinstance(value, ConstVal):
                if value.value < 0:
                    return StepStuck("score of a negative constant")
                return StepTerm(SymNumeral(value))
            return StepScore(value, SymNumeral(value))
        return StepStuck(f"cannot step term {redex!r}")

    def _contract_app(self, redex: App) -> StepOutcome:
        fn = redex.fn
        if isinstance(fn, RecMarker):
            argument = as_symbolic_value(redex.arg)
            if argument is None and self.strategy is Strategy.CBV:
                return StepStuck("recursion marker applied to a non-numeric value")
            # The outcome of the recursive call is the unknown numeral ``star``
            # (Fig. 5); the continuation resumes with it in redex position.
            return StepRecCall(
                argument if argument is not None else ConstVal(0),
                SymNumeral(StarVal()),
            )
        if isinstance(fn, (Lam, Fix)):
            return StepTerm(unfold(fn, redex.arg))
        return StepStuck("application of a non-function value")

    def _contract_prim(self, redex: Prim) -> StepOutcome:
        values = []
        for index, argument in enumerate(redex.args):
            value = as_symbolic_value(argument)
            if value is None:
                return StepStuck(f"primitive argument {index} is not of type R")
            values.append(value)
        if any(value.contains_star() for value in values):
            # f(..., star, ...) reduces to star (Fig. 5).
            return StepTerm(SymNumeral(StarVal()))
        try:
            result = simplify_prim(redex.op, values, self.registry)
        except (ValueError, ZeroDivisionError, OverflowError) as error:
            return StepStuck(f"primitive {redex.op!r} failed: {error}")
        return StepTerm(SymNumeral(result))


# ---------------------------------------------------------------------------
# Path exploration.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolicPath:
    """A terminating symbolic execution path.

    ``constraints`` characterise exactly the standard traces of length
    ``num_variables`` that follow this path; ``steps`` is the number of
    reduction steps to the value ``result`` and ``branches`` the conditional
    oracle (``True`` = left/then branch).
    """

    constraints: ConstraintSet
    num_variables: int
    steps: int
    result: Term
    branches: Tuple[bool, ...]


@dataclass(frozen=True)
class ExplorationResult:
    """Outcome of a bounded exploration of the symbolic execution tree."""

    terminated: Tuple[SymbolicPath, ...]
    unfinished: int
    stuck: int
    exhausted_path_budget: bool

    @property
    def complete(self) -> bool:
        """True iff every path reached a value within the budgets."""
        return self.unfinished == 0 and not self.exhausted_path_budget


@dataclass
class _Configuration:
    term: Term
    constraints: ConstraintSet
    next_variable: int
    steps: int
    branches: Tuple[bool, ...]


# Session-node states: a node is the lifetime record of one configuration of
# the breadth-first traversal.  SUSPENDED nodes carry a live configuration
# that a deeper budget can resume; the other states are final.
_SUSPENDED = 0
_TERMINATED = 1
_STUCK = 2
_BRANCHED = 3

_NodeKey = Tuple[int, Tuple[int, ...]]


class _StepCounter:
    """Session-local symbolic-step count.

    Every extend routes :meth:`SymbolicExplorer._run_to_event` through this
    holder and mirrors the delta into the shared stats sink, so the session
    always knows how much stepping *it* performed -- the frontier codec
    persists these counters, which is what lets a restored process report
    the same ``PerfStats`` as an uninterrupted run.
    """

    __slots__ = ("symbolic_steps",)

    def __init__(self) -> None:
        self.symbolic_steps = 0


class _SessionNode:
    """One configuration of the branching tree, across every budget.

    ``key`` is the node's position in the breadth-first pop order: level
    first, then the branch string (with the then-branch before the
    else-branch, matching the push order of the historical deque traversal).
    The key is budget-independent, which is what lets a resumed session
    interleave newly discovered children into exactly the positions a fresh
    exploration would pop them at.
    """

    __slots__ = ("key", "state", "configuration", "path", "reason", "started")

    def __init__(self, key: _NodeKey, configuration: _Configuration) -> None:
        self.key = key
        self.state = _SUSPENDED
        self.configuration: Optional[_Configuration] = configuration
        self.path: Optional[SymbolicPath] = None
        self.reason: Optional[str] = None
        self.started = False  # whether any extend has stepped this node yet


def _node_key(branches: Tuple[bool, ...]) -> _NodeKey:
    return (len(branches), tuple(0 if branch else 1 for branch in branches))


class ExplorationSession:
    """A resumable, anytime exploration of one closed term's branching tree.

    The session owns every node of the traversal.  :meth:`extend` replays the
    breadth-first pop order under a (non-decreasing) per-path step budget:
    already-resolved nodes replay their recorded outcome in O(1), suspended
    nodes resume stepping from exactly where the previous budget stopped, and
    nodes that fork enqueue their children at the breadth-first position a
    fresh exploration would give them.  Consequently

    * ``session.extend(d)`` returns an :class:`ExplorationResult` equal --
      terminated tuple, order, counts, budget flag -- to
      ``SymbolicExplorer.explore(term, d, max_paths)`` on a fresh explorer,
    * no reduction step is ever executed twice across a schedule of extends,
    * a ``max_paths`` cap is stable under resumption: nodes beyond the cap
      stay queued (never silently dropped) and every subsequent result keeps
      reporting ``exhausted_path_budget=True`` until the budget admits them.
    """

    def __init__(
        self,
        explorer: "SymbolicExplorer",
        term: Term,
        max_paths: int = 100_000,
        stats=None,
    ) -> None:
        self._explorer = explorer
        self.max_paths = max_paths
        self.stats = stats if stats is not None else explorer.stats
        root = _SessionNode(_node_key(()), _Configuration(term, ConstraintSet(), 0, 0, ()))
        self._nodes: List[Tuple[_NodeKey, _SessionNode]] = [(root.key, root)]
        self._max_steps = 0
        self._last_result: Optional[ExplorationResult] = None
        # Session-local counters, mirrored into ``self.stats`` as they grow.
        # The frontier codec persists them (see :mod:`repro.symbolic.codec`).
        self._step_counter = _StepCounter()
        self._counter_resumed = 0
        self._counter_peak = 0

    @classmethod
    def _restore(
        cls,
        explorer: "SymbolicExplorer",
        *,
        max_paths: int,
        max_steps: int,
        nodes: List[Tuple[_NodeKey, _SessionNode]],
        counters: Tuple[int, int, int],
        stats=None,
        credit_stats: bool = True,
    ) -> "ExplorationSession":
        """Rebuild a session from decoded state (used by the frontier codec).

        ``counters`` is the persisted ``(symbolic_steps, paths_resumed,
        frontier_peak)`` triple; with ``credit_stats`` (the default) it is
        credited to the stats sink so the restored process reports the same
        totals an uninterrupted run would.  Pass ``credit_stats=False`` when
        the sink already counted that work -- a same-process restore, e.g. a
        daemon re-hydrating a session it evicted earlier.
        """
        session = cls.__new__(cls)
        session._explorer = explorer
        session.max_paths = max_paths
        session.stats = stats if stats is not None else explorer.stats
        session._nodes = nodes
        session._max_steps = max_steps
        session._last_result = None
        session._step_counter = _StepCounter()
        steps, resumed, peak = counters
        session._step_counter.symbolic_steps = steps
        session._counter_resumed = resumed
        session._counter_peak = peak
        sink = session.stats
        if sink is not None:
            if credit_stats:
                sink.symbolic_steps += steps
                sink.paths_resumed += resumed
                if hasattr(sink, "frontier_restores"):
                    sink.frontier_restores += 1
            if peak > sink.frontier_peak:
                sink.frontier_peak = peak
        return session

    @property
    def max_steps(self) -> int:
        """The deepest per-path step budget any extend has reached."""
        return self._max_steps

    @property
    def result(self) -> Optional[ExplorationResult]:
        """The most recent :class:`ExplorationResult` (``None`` before any extend)."""
        return self._last_result

    @property
    def frontier_size(self) -> int:
        """Configurations a deeper budget could still advance (suspended or queued)."""
        return sum(1 for _, node in self._nodes if node.state == _SUSPENDED)

    def extend(self, max_steps: int) -> ExplorationResult:
        """Deepen the exploration to a per-path budget of ``max_steps``.

        Budgets must be non-decreasing across extends (resolved outcomes
        cannot be un-resolved); re-extending to the current budget replays
        the recorded result without stepping.
        """
        if max_steps < self._max_steps:
            raise ValueError(
                f"exploration budgets are non-decreasing: asked for {max_steps} "
                f"after {self._max_steps}"
            )
        self._max_steps = max_steps
        writer = telemetry.active()
        token = (
            writer.begin("explore", budget=max_steps) if writer is not None else None
        )
        stats = self.stats
        counter = self._step_counter
        steps_before = counter.symbolic_steps
        heap = self._nodes
        heapq.heapify(heap)  # kept sorted between extends; heapify is then O(n)
        processed: List[Tuple[_NodeKey, _SessionNode]] = []
        terminated: List[SymbolicPath] = []
        unfinished = 0
        stuck = 0
        explored = 0
        exhausted = False
        # The live frontier: configurations a deeper budget could still
        # advance (suspended nodes, processed or queued) -- the same set
        # :attr:`frontier_size` reports between extends.
        live = sum(1 for _, node in heap if node.state == _SUSPENDED)
        peak = live
        try:
            while heap:
                if explored >= self.max_paths:
                    exhausted = True
                    break
                key, node = heapq.heappop(heap)
                processed.append((key, node))
                explored += 1
                state = node.state
                if state == _TERMINATED:
                    terminated.append(node.path)
                    continue
                if state == _STUCK:
                    stuck += 1
                    continue
                if state == _BRANCHED:
                    continue
                # Suspended: resume (or start) stepping under the new budget.
                # Only resumes with actual headroom count -- each one stands
                # for a re-execution from the root the session avoided.
                if node.started and node.configuration.steps < max_steps:
                    self._counter_resumed += 1
                    if stats is not None:
                        stats.paths_resumed += 1
                node.started = True
                kind, payload = self._explorer._run_to_event(
                    node.configuration, max_steps, stats=counter
                )
                if kind == "terminated":
                    node.state = _TERMINATED
                    node.path = payload
                    node.configuration = None
                    terminated.append(payload)
                    live -= 1
                elif kind == "stuck":
                    node.state = _STUCK
                    node.reason = payload
                    node.configuration = None
                    stuck += 1
                    live -= 1
                elif kind == "branch":
                    node.state = _BRANCHED
                    node.configuration = None
                    for configuration in payload:
                        child = _SessionNode(
                            _node_key(configuration.branches), configuration
                        )
                        heapq.heappush(heap, (child.key, child))
                    live += 1  # the node resolved, its two children are live
                    if live > peak:
                        peak = live
                else:  # unfinished: the budget ran out mid-path; stays suspended
                    unfinished += 1
        finally:
            # Stepping goes through the session-local counter; mirror the
            # delta into the shared sink even if an extend is interrupted.
            if stats is not None:
                stats.symbolic_steps += counter.symbolic_steps - steps_before
        # Nodes beyond the path cap stay queued for the next extend; their
        # keys all exceed every processed key, so the node list stays sorted.
        self._nodes = processed + sorted(heap)
        if peak > self._counter_peak:
            self._counter_peak = peak
        if stats is not None and peak > stats.frontier_peak:
            stats.frontier_peak = peak
        result = ExplorationResult(tuple(terminated), unfinished, stuck, exhausted)
        self._last_result = result
        if token is not None:
            writer.end(token, terminated=len(terminated), frontier=live)
        return result

    def extend_until(
        self,
        gap=None,
        target_gap=0,
        max_paths: Optional[int] = None,
        step_increment: int = 50,
        max_steps: int = 10_000,
    ) -> ExplorationResult:
        """Deepen in ``step_increment`` strides until a stop rule fires.

        Stops as soon as the exploration is complete, ``gap(result)`` (an
        arbitrary caller-supplied metric -- the lower-bound engine passes its
        certified measure slack) drops to ``target_gap``, at least
        ``max_paths`` terminated paths have been found, or the per-path
        budget reaches ``max_steps``.  Returns the last result.
        """
        if step_increment < 1:
            raise ValueError("step_increment must be at least 1")
        budget = self._max_steps
        if budget >= max_steps:
            # Already past the ceiling: replay the current budget's result
            # (budgets are non-decreasing, so it cannot shrink back).
            return self.extend(budget)
        while True:
            budget = min(budget + step_increment, max_steps)
            result = self.extend(budget)
            if result.complete:
                return result
            if gap is not None and gap(result) <= target_gap:
                return result
            if max_paths is not None and len(result.terminated) >= max_paths:
                return result
            if budget >= max_steps:
                return result


class SymbolicExplorer:
    """Enumerates terminating symbolic paths of a closed SPCF term."""

    def __init__(
        self,
        strategy: Strategy = Strategy.CBN,
        registry: Optional[PrimitiveRegistry] = None,
        stats=None,
    ) -> None:
        self.registry = registry or default_registry()
        self.stepper = SymbolicStepper(strategy, self.registry)
        # Optional counter sink: any object with ``symbolic_steps`` /
        # ``paths_resumed`` / ``frontier_peak`` attributes (in practice the
        # measure engine's PerfStats; kept duck-typed to avoid a geometry
        # import from the symbolic layer).
        self.stats = stats

    def session(
        self, term: Term, max_paths: int = 100_000, stats=None
    ) -> ExplorationSession:
        """A resumable exploration of ``term`` (see :class:`ExplorationSession`)."""
        return ExplorationSession(
            self, term, max_paths=max_paths, stats=stats if stats is not None else self.stats
        )

    def explore(
        self,
        term: Term,
        max_steps_per_path: int = 500,
        max_paths: int = 100_000,
    ) -> ExplorationResult:
        """Enumerate terminating paths with at most ``max_steps_per_path`` steps each.

        The exploration is a breadth-first traversal of the (binary) branching
        tree, so when the ``max_paths`` budget is exhausted the paths already
        returned are exactly those with the fewest branch decisions -- the
        bound is an anytime result that only improves with a larger budget.
        Paths still running when their step budget is exhausted are counted in
        ``unfinished`` so that callers know whether the returned set of paths
        is exhaustive up to that depth.

        A one-shot convenience around :class:`ExplorationSession`: callers
        that deepen repeatedly should hold a session instead and ``extend``
        it -- the results are bit-identical either way.
        """
        return self.session(term, max_paths=max_paths).extend(max_steps_per_path)

    def _run_to_event(
        self, configuration: _Configuration, max_steps: int, stats=None
    ) -> Tuple[str, object]:
        """Step ``configuration`` to its next event, holding its context.

        Events are a value, a stuck redex, a fork (both children stored as
        plugged configurations) or the budget, which stores the plugged term
        back into ``configuration`` so a deeper budget resumes there.
        """
        constraints = configuration.constraints
        next_variable = configuration.next_variable
        steps = configuration.steps
        branches = configuration.branches
        refocus = self.stepper.contexts.refocus
        contract = self.stepper.contract
        frames: list = []
        term = configuration.term
        executed = 0
        try:
            while steps < max_steps:
                redex = refocus(frames, term)
                if isinstance(redex, _VALUES):
                    return (
                        "terminated",
                        SymbolicPath(constraints, next_variable, steps, redex, branches),
                    )
                outcome = contract(redex, next_variable)
                if isinstance(outcome, StepTerm):
                    term = outcome.term
                    if outcome.consumed_sample:
                        next_variable += 1
                    steps += 1
                    executed += 1
                    continue
                if isinstance(outcome, StepScore):
                    constraints = constraints.add(Constraint(outcome.value, Relation.GE))
                    term = outcome.term
                    steps += 1
                    executed += 1
                    continue
                if isinstance(outcome, StepBranch):
                    executed += 1  # the step into the branches
                    left = _Configuration(
                        plug(frames, outcome.then_term),
                        constraints.add(Constraint(outcome.guard, Relation.LE)),
                        next_variable,
                        steps + 1,
                        branches + (True,),
                    )
                    right = _Configuration(
                        plug(frames, outcome.else_term),
                        constraints.add(Constraint(outcome.guard, Relation.GT)),
                        next_variable,
                        steps + 1,
                        branches + (False,),
                    )
                    return ("branch", [left, right])
                if isinstance(outcome, StepRecCall):
                    return ("stuck", "unexpected recursion marker during exploration")
                if isinstance(outcome, StepStuck):
                    return ("stuck", outcome.reason)
                raise TypeError(f"unexpected step outcome {outcome!r}")
            # Budget exhausted mid-path: record the progress in place so a
            # deeper budget resumes here instead of re-deriving the prefix.
            configuration.term = plug(frames, term)
            configuration.constraints = constraints
            configuration.next_variable = next_variable
            configuration.steps = steps
            return ("unfinished", None)
        finally:
            if stats is None:
                stats = self.stats
            if stats is not None:
                stats.symbolic_steps += executed
