"""Tests for conditional oracles and the branching-behaviour partition (App. B.4).

The oracle-annotated machine of Fig. 11 is checked against the standard
machines: the oracle recorded from a terminating run reproduces the run, any
other oracle of the same length is rejected, and the branching classes of a
term partition its terminating traces.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.semantics import CbNMachine, Trace
from repro.semantics.oracle import (
    Direction,
    OracleMachine,
    OracleRunStatus,
    branching_classes,
    find_redex,
    in_branching_class,
    record_branching,
)
from repro.semantics.machine import RunStatus
from repro.spcf.sugar import add, sub
from repro.spcf.syntax import App, Fix, If, Lam, Numeral, Sample, Var
from repro.programs.library import geometric, printer_nonaffine
from repro.symbolic.execute import Strategy


def flip(direction: Direction) -> Direction:
    return Direction.RIGHT if direction is Direction.LEFT else Direction.LEFT


# ---------------------------------------------------------------------------
# Redex finding.
# ---------------------------------------------------------------------------


class TestFindRedex:
    def test_value_has_no_redex(self):
        assert find_redex(Numeral(3)) is None
        assert find_redex(Lam("x", Var("x"))) is None

    def test_sample_is_its_own_redex(self):
        assert isinstance(find_redex(Sample()), Sample)

    def test_redex_inside_guard(self):
        term = If(sub(Sample(), Fraction(1, 2)), Numeral(0), Numeral(1))
        redex = find_redex(term)
        assert isinstance(redex, Sample)

    def test_conditional_with_numeral_guard_is_the_redex(self):
        term = If(Numeral(-1), Numeral(0), Numeral(1))
        assert find_redex(term) is term

    def test_cbn_contracts_beta_before_argument(self):
        term = App(Lam("x", Numeral(0)), Sample())
        assert isinstance(find_redex(term, Strategy.CBN), App)

    def test_cbv_evaluates_argument_first(self):
        term = App(Lam("x", Numeral(0)), Sample())
        assert isinstance(find_redex(term, Strategy.CBV), Sample)

    def test_cbv_never_enters_the_argument_of_a_non_function(self):
        # Fig. 8 has no context ``r E``: applying a numeral is the redex
        # (stuck), its argument's conditional is never reached.
        term = App(Numeral(1), If(Numeral(0), Numeral(1), Numeral(2)))
        assert find_redex(term, Strategy.CBV) is term

    def test_redex_matches_machine_step(self):
        # Stepping the machine contracts exactly the redex found here: check
        # on a couple of configurations of the geometric program.
        program = geometric(Fraction(1, 2))
        machine = CbNMachine()
        term = program.applied
        trace = Trace((Fraction(3, 4), Fraction(1, 4)))
        for _ in range(20):
            redex = find_redex(term)
            if redex is None:
                break
            outcome = machine.step(term, trace)
            assert outcome is not None
            term, trace = outcome


# ---------------------------------------------------------------------------
# Recording branching behaviour.
# ---------------------------------------------------------------------------


class TestRecordBranching:
    def test_no_conditionals_empty_oracle(self):
        term = add(Sample(), Sample())
        result, oracle = record_branching(term, Trace((Fraction(1, 4), Fraction(1, 2))))
        assert result.status is RunStatus.TERMINATED
        assert oracle == ()

    def test_single_left_branch(self):
        program = geometric(Fraction(1, 2))
        result, oracle = record_branching(program.applied, Trace((Fraction(1, 4),)))
        assert result.terminated
        assert oracle == (Direction.LEFT,)

    def test_retry_records_right_then_left(self):
        program = geometric(Fraction(1, 2))
        result, oracle = record_branching(
            program.applied, Trace((Fraction(3, 4), Fraction(1, 4)))
        )
        assert result.terminated
        assert oracle == (Direction.RIGHT, Direction.LEFT)

    def test_oracle_length_counts_conditionals(self):
        program = printer_nonaffine(Fraction(1, 2))
        trace = Trace((Fraction(3, 4), Fraction(1, 4), Fraction(1, 4)))
        result, oracle = record_branching(program.applied, trace)
        assert result.terminated
        assert len(oracle) == 3

    def test_nonterminating_run_reports_status(self):
        diverge = Fix("phi", "x", App(Var("phi"), Var("x")))
        result, oracle = record_branching(
            App(diverge, Numeral(0)), Trace(()), max_steps=50
        )
        assert result.status is RunStatus.STEP_LIMIT
        assert oracle == ()


# ---------------------------------------------------------------------------
# The oracle machine of Fig. 11.
# ---------------------------------------------------------------------------


class TestOracleMachine:
    def test_recorded_oracle_reproduces_run(self):
        program = geometric(Fraction(1, 2))
        trace = Trace((Fraction(3, 4), Fraction(1, 4)))
        _, oracle = record_branching(program.applied, trace)
        outcome = OracleMachine().run(program.applied, trace, oracle)
        assert outcome.status is OracleRunStatus.TERMINATED
        assert outcome.directions_consumed == len(oracle)

    def test_flipped_direction_is_a_mismatch(self):
        program = geometric(Fraction(1, 2))
        trace = Trace((Fraction(3, 4), Fraction(1, 4)))
        _, oracle = record_branching(program.applied, trace)
        perturbed = (flip(oracle[0]),) + oracle[1:]
        outcome = OracleMachine().run(program.applied, trace, perturbed)
        assert outcome.status is OracleRunStatus.ORACLE_MISMATCH

    def test_short_oracle_is_exhausted(self):
        program = geometric(Fraction(1, 2))
        trace = Trace((Fraction(3, 4), Fraction(1, 4)))
        _, oracle = record_branching(program.applied, trace)
        outcome = OracleMachine().run(program.applied, trace, oracle[:-1])
        assert outcome.status is OracleRunStatus.ORACLE_EXHAUSTED

    def test_long_oracle_is_leftover(self):
        program = geometric(Fraction(1, 2))
        trace = Trace((Fraction(1, 4),))
        _, oracle = record_branching(program.applied, trace)
        outcome = OracleMachine().run(
            program.applied, trace, oracle + (Direction.LEFT,)
        )
        assert outcome.status is OracleRunStatus.ORACLE_LEFTOVER

    def test_trace_exhaustion_is_machine_stopped(self):
        program = geometric(Fraction(1, 2))
        outcome = OracleMachine().run(
            program.applied, Trace(()), (Direction.LEFT,)
        )
        assert outcome.status is OracleRunStatus.MACHINE_STOPPED
        assert outcome.machine_result is not None
        assert outcome.machine_result.status is RunStatus.TRACE_EXHAUSTED

    def test_ill_typed_cbv_application_stops_the_machine(self):
        term = App(Numeral(1), If(Numeral(0), Numeral(1), Numeral(2)))
        outcome = OracleMachine(Strategy.CBV).run(term, Trace([]), ())
        assert outcome.status is OracleRunStatus.MACHINE_STOPPED
        assert outcome.machine_result.status is RunStatus.STUCK
        assert outcome.machine_result.detail == "application of a non-function value"
        assert (outcome.steps, outcome.directions_consumed) == (0, 0)

    def test_membership_predicate(self):
        program = geometric(Fraction(1, 2))
        trace = Trace((Fraction(3, 4), Fraction(1, 4)))
        assert in_branching_class(
            program.applied, trace, (Direction.RIGHT, Direction.LEFT)
        )
        assert not in_branching_class(
            program.applied, trace, (Direction.LEFT, Direction.LEFT)
        )

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_lemma_b5_unique_oracle(self, draws):
        # Lem. B.5: a terminating trace follows exactly one oracle -- the
        # recorded one succeeds and every single-position flip fails.
        program = geometric(Fraction(1, 2))
        trace = Trace(tuple(draws))
        result, oracle = record_branching(program.applied, trace)
        if not result.terminated:
            return
        machine = OracleMachine()
        assert machine.run(program.applied, trace, oracle).terminated
        for position in range(len(oracle)):
            perturbed = (
                oracle[:position] + (flip(oracle[position]),) + oracle[position + 1 :]
            )
            assert not machine.run(program.applied, trace, perturbed).terminated


# ---------------------------------------------------------------------------
# The partition of terminating traces.
# ---------------------------------------------------------------------------


class TestBranchingClasses:
    def test_geometric_classes_are_prefix_shaped(self):
        program = geometric(Fraction(1, 2))
        classes = branching_classes(program.applied, runs=300, trace_length=40, seed=3)
        assert classes
        for oracle in classes:
            # Every terminating run of geo is RIGHT^k LEFT.
            assert oracle[-1] is Direction.LEFT
            assert all(direction is Direction.RIGHT for direction in oracle[:-1])

    def test_class_weights_match_geometric_law(self):
        program = geometric(Fraction(1, 2))
        runs = 2000
        classes = branching_classes(
            program.applied, runs=runs, trace_length=60, seed=11
        )
        total = sum(classes.values())
        assert total >= runs * 0.99
        immediate = classes.get((Direction.LEFT,), 0)
        assert immediate / runs == pytest.approx(0.5, abs=0.05)

    def test_classes_partition_terminating_traces(self):
        # Disjointness: a trace terminating in one class is rejected by the
        # machine run with any other observed class's oracle.
        program = printer_nonaffine(Fraction(3, 5))
        classes = branching_classes(program.applied, runs=200, trace_length=40, seed=5)
        oracles = list(classes)
        assert len(oracles) >= 2
        rng = random.Random(1)
        machine = OracleMachine()
        checked = 0
        while checked < 10:
            trace = Trace(tuple(rng.random() for _ in range(40)))
            result, recorded = record_branching(program.applied, trace)
            if result.status is not RunStatus.VALUE_WITH_LEFTOVER_TRACE and not result.terminated:
                continue
            checked += 1
            for oracle in oracles:
                if oracle == recorded:
                    continue
                exact_trace = Trace(tuple(trace)[: _draws_used(program, trace)])
                outcome = machine.run(program.applied, exact_trace, oracle)
                assert outcome.status is not OracleRunStatus.TERMINATED


def _draws_used(program, trace) -> int:
    """The number of draws a run of ``program.applied`` on ``trace`` consumes."""
    result, _ = record_branching(program.applied, trace)
    return len(trace) - len(result.trace)
