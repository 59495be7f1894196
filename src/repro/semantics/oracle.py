"""Conditional oracles and the branching-behaviour partition (App. B.4, Fig. 11).

The completeness proof of the interval-based semantics partitions the
terminating traces of a term by their *branching behaviour*: the sequence of
left/right decisions the run makes at conditionals.  The oracle-annotated
reduction ``<M, s, kappa> -> <M', s', kappa'>`` consumes one direction from
``kappa`` at every conditional redex and is stuck when the direction does not
match the sign of the guard; ``T^(kappa)_{M, term}`` collects the traces whose
run follows ``kappa`` exactly (Lem. B.5: the partition is well defined because
every terminating trace determines a unique oracle).

This module provides

* :func:`record_branching` -- run the standard machine and record the
  directions actually taken (the unique ``kappa`` of Lem. B.5),
* :class:`OracleMachine` -- the annotated reduction of Fig. 11, reporting a
  dedicated status when the supplied oracle disagrees with the run,
* :func:`in_branching_class` -- membership in ``T^(kappa)_{M, term}``,
* :func:`branching_classes` -- an empirical view of the partition obtained by
  sampling traces, used by the tests to check that the classes are disjoint
  and exhaust the terminating traces.

All of them drive the concrete machine of :mod:`repro.semantics.machine`
over the shared evaluation contexts of :mod:`repro.spcf.contexts`: the
oracle is consulted on each redex the refocusing run reaches, and
:func:`find_redex` is that run's decomposition.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.semantics.cbn import CbNMachine
from repro.semantics.cbv import CbVMachine
from repro.semantics.machine import (
    CONTEXTS,
    VALUES,
    ConcreteMachine,
    RunResult,
    RunStatus,
    run_result,
)
from repro.semantics.traces import Trace
from repro.spcf.contexts import Strategy
from repro.spcf.primitives import PrimitiveRegistry, default_registry
from repro.spcf.syntax import If, Numeral, Term

__all__ = [
    "Direction",
    "ConditionalOracle",
    "OracleRunStatus",
    "OracleRunResult",
    "OracleMachine",
    "branching_classes",
    "find_redex",
    "in_branching_class",
    "record_branching",
]


class Direction(enum.Enum):
    """One conditional decision: the left (``<= 0``) or right (``> 0``) branch."""

    LEFT = "l"
    RIGHT = "r"

    def __repr__(self) -> str:
        return f"Direction.{self.name}"


ConditionalOracle = Tuple[Direction, ...]
"""A conditional oracle ``kappa``: the sequence of directions of a run."""


class OracleRunStatus(enum.Enum):
    """Outcome of the oracle-annotated reduction."""

    TERMINATED = "terminated"
    """Reached a value with the trace and the oracle both fully consumed."""

    ORACLE_MISMATCH = "oracle-mismatch"
    """A conditional guard disagreed with the direction supplied by the oracle."""

    ORACLE_EXHAUSTED = "oracle-exhausted"
    """A conditional redex was reached but the oracle was already empty."""

    ORACLE_LEFTOVER = "oracle-leftover"
    """The run terminated but some oracle directions were never consumed."""

    MACHINE_STOPPED = "machine-stopped"
    """The underlying machine stopped for its own reasons (stuck, trace, budget)."""


@dataclass(frozen=True)
class OracleRunResult:
    """The result of running a term against a trace and a conditional oracle."""

    status: OracleRunStatus
    machine_result: Optional[RunResult]
    directions_consumed: int
    steps: int

    @property
    def terminated(self) -> bool:
        return self.status is OracleRunStatus.TERMINATED


def _machine_for(strategy: Strategy, registry: PrimitiveRegistry) -> ConcreteMachine:
    if strategy is Strategy.CBV:
        return CbVMachine(registry)
    return CbNMachine(registry)


def find_redex(term: Term, strategy: Strategy = Strategy.CBN) -> Optional[Term]:
    """The redex of the unique decomposition ``term = E[R]`` (or ``None`` for values).

    The decomposition of the machines' own evaluation contexts, so the
    returned subterm is exactly the one the next :meth:`step` call will
    contract.
    """
    redex = CONTEXTS[strategy].refocus([], term)
    return None if isinstance(redex, VALUES) else redex


def _direction(redex: Term) -> Optional[Direction]:
    """The direction a conditional redex with a numeral guard takes."""
    if isinstance(redex, If) and isinstance(redex.cond, Numeral):
        return Direction.LEFT if redex.cond.value <= 0 else Direction.RIGHT
    return None


def record_branching(
    term: Term,
    trace: Trace,
    strategy: Strategy = Strategy.CBN,
    max_steps: int = 100_000,
    registry: Optional[PrimitiveRegistry] = None,
) -> Tuple[RunResult, ConditionalOracle]:
    """Run the standard machine and record the conditional directions taken.

    For a terminating trace this returns the unique oracle ``kappa`` with
    ``s  in  T^(kappa)_{M, term}`` (Lem. B.5).
    """
    machine = _machine_for(strategy, registry or default_registry())
    directions = []

    def record(redex: Term, trace: Trace, steps: int) -> Trace:
        direction = _direction(redex)
        if direction is not None:
            directions.append(direction)
        return trace

    outcome = machine.contexts.run(machine.contract, term, trace, max_steps, record)
    return run_result(*outcome), tuple(directions)


class _OracleHalt(Exception):
    """The oracle disagreed with (or ran out before) a conditional redex."""

    def __init__(self, status: "OracleRunStatus", steps: int) -> None:
        super().__init__(status.value)
        self.status = status
        self.steps = steps


class OracleMachine:
    """The oracle-annotated reduction of Fig. 11.

    The machine follows the standard strategy but, at every conditional whose
    guard is a numeral, requires the next oracle direction to agree with the
    sign of the guard; disagreement or exhaustion stops the run with a
    dedicated status.
    """

    def __init__(
        self,
        strategy: Strategy = Strategy.CBN,
        registry: Optional[PrimitiveRegistry] = None,
    ) -> None:
        self.strategy = strategy
        self.registry = registry or default_registry()
        self._machine = _machine_for(strategy, self.registry)

    def run(
        self,
        term: Term,
        trace: Trace,
        oracle: ConditionalOracle,
        max_steps: int = 100_000,
    ) -> OracleRunResult:
        """Run ``<term, trace, oracle>`` per Fig. 11."""
        position = 0

        def follow(redex: Term, trace: Trace, steps: int) -> Trace:
            nonlocal position
            direction = _direction(redex)
            if direction is not None:
                if position >= len(oracle):
                    raise _OracleHalt(OracleRunStatus.ORACLE_EXHAUSTED, steps)
                if oracle[position] is not direction:
                    raise _OracleHalt(OracleRunStatus.ORACLE_MISMATCH, steps)
                position += 1
            return trace

        machine = self._machine
        try:
            outcome = machine.contexts.run(
                machine.contract, term, trace, max_steps, follow
            )
        except _OracleHalt as halt:
            return OracleRunResult(halt.status, None, position, halt.steps)
        result = run_result(*outcome)
        if result.status is not RunStatus.TERMINATED:
            return OracleRunResult(
                OracleRunStatus.MACHINE_STOPPED, result, position, result.steps
            )
        if position != len(oracle):
            return OracleRunResult(
                OracleRunStatus.ORACLE_LEFTOVER, result, position, result.steps
            )
        return OracleRunResult(OracleRunStatus.TERMINATED, result, position, result.steps)


def in_branching_class(
    term: Term,
    trace: Trace,
    oracle: ConditionalOracle,
    strategy: Strategy = Strategy.CBN,
    max_steps: int = 100_000,
    registry: Optional[PrimitiveRegistry] = None,
) -> bool:
    """Membership of ``trace`` in ``T^(oracle)_{term, term}`` (App. B.4)."""
    machine = OracleMachine(strategy, registry)
    return machine.run(term, trace, oracle, max_steps=max_steps).terminated


def branching_classes(
    term: Term,
    runs: int = 500,
    trace_length: int = 64,
    strategy: Strategy = Strategy.CBN,
    max_steps: int = 50_000,
    seed: int = 0,
    registry: Optional[PrimitiveRegistry] = None,
) -> Dict[ConditionalOracle, int]:
    """Sample traces and histogram the branching behaviours of terminating runs.

    Non-terminating samples (trace exhausted or budget reached) are dropped;
    the result is an empirical view of the countable partition
    ``{T^(kappa)}_kappa`` of ``T_{term, term}``.
    """
    registry = registry or default_registry()
    rng = random.Random(seed)
    histogram: Dict[ConditionalOracle, int] = {}
    for _ in range(runs):
        trace = Trace(tuple(rng.random() for _ in range(trace_length)))
        result, oracle = record_branching(
            term, trace, strategy=strategy, max_steps=max_steps, registry=registry
        )
        if result.status not in (
            RunStatus.TERMINATED,
            RunStatus.VALUE_WITH_LEFTOVER_TRACE,
        ):
            continue
        histogram[oracle] = histogram.get(oracle, 0) + 1
    return histogram
