"""Differential tests of the refocusing evaluation-context core.

The reference below is the search-and-rebuild stepper the concrete machines
used before they shared :mod:`repro.spcf.contexts`: every step re-descends
from the root to the redex and rebuilds the context on the way out.  On
random closed terms and traces, under both strategies, the machines must
produce the same per-step configurations and the same final result.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.semantics import CbNMachine, CbVMachine, RunStatus, Trace
from repro.semantics.machine import SPCFMachineError, StuckSignal
from repro.spcf.contexts import Strategy, plug
from repro.spcf.primitives import default_registry
from repro.spcf.syntax import (
    App,
    Fix,
    If,
    Lam,
    Numeral,
    Prim,
    Sample,
    Score,
    Var,
    free_variables,
    is_value,
    substitute,
)
from test_syntax import _terms

REGISTRY = default_registry()


def reference_step(term, trace, strategy):
    """One search-and-rebuild step of a non-value ``term``."""
    if isinstance(term, App):
        fn, arg = term.fn, term.arg
        if strategy is Strategy.CBV:
            if not is_value(fn):
                new_fn, new_trace = reference_step(fn, trace, strategy)
                return App(new_fn, arg), new_trace
            if isinstance(fn, (Lam, Fix)) and not is_value(arg):
                new_arg, new_trace = reference_step(arg, trace, strategy)
                return App(fn, new_arg), new_trace
        if isinstance(fn, Lam):
            return substitute(fn.body, {fn.var: arg}), trace
        if isinstance(fn, Fix):
            return substitute(fn.body, {fn.var: arg, fn.fvar: fn}), trace
        if is_value(fn):
            raise StuckSignal(RunStatus.STUCK, "application of a non-function value")
        new_fn, new_trace = reference_step(fn, trace, strategy)
        return App(new_fn, arg), new_trace
    if isinstance(term, If):
        cond = term.cond
        if isinstance(cond, Numeral):
            return (term.then if cond.value <= 0 else term.orelse), trace
        if is_value(cond):
            raise StuckSignal(RunStatus.STUCK, "conditional guard is not a numeral")
        new_cond, new_trace = reference_step(cond, trace, strategy)
        return If(new_cond, term.then, term.orelse), new_trace
    if isinstance(term, Prim):
        for index, argument in enumerate(term.args):
            if isinstance(argument, Numeral):
                continue
            if is_value(argument):
                raise StuckSignal(
                    RunStatus.STUCK, f"primitive argument {index} is not a numeral"
                )
            new_argument, new_trace = reference_step(argument, trace, strategy)
            new_args = term.args[:index] + (new_argument,) + term.args[index + 1 :]
            return Prim(term.op, new_args), new_trace
        primitive = REGISTRY[term.op]
        try:
            result = primitive(*[arg.value for arg in term.args])
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
        if is_value(argument):
            raise StuckSignal(RunStatus.STUCK, "score argument is not a numeral")
        new_argument, new_trace = reference_step(argument, trace, strategy)
        return Score(new_argument), new_trace
    raise SPCFMachineError(f"cannot step term {term!r}")


def reference_run(term, trace, strategy, max_steps):
    """The configurations of a run and its final ``(status, detail, steps)``."""
    configurations = [(term, trace)]
    while len(configurations) <= max_steps:
        term, trace = configurations[-1]
        if is_value(term):
            status = RunStatus.TERMINATED
            if not trace.is_empty():
                status = RunStatus.VALUE_WITH_LEFTOVER_TRACE
            return configurations, (status, None, len(configurations) - 1)
        try:
            configurations.append(reference_step(term, trace, strategy))
        except StuckSignal as stuck:
            return configurations, (stuck.status, stuck.detail, len(configurations) - 1)
    return configurations, (RunStatus.STEP_LIMIT, None, max_steps)


# Free variables are closed over with a negative numeral, a positive one and
# a function, so conditionals go both ways and applications can succeed.
CLOSING = {"x": Numeral(-1), "y": Numeral(2), "z": Lam("x", Var("x"))}
closed_terms = _terms(3).map(lambda term: substitute(term, CLOSING))
traces = st.lists(
    st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1), 0.75]),
    max_size=4,
).map(Trace)
MAX_STEPS = 30


@settings(max_examples=300, deadline=None)
@given(closed_terms, traces, st.sampled_from([Strategy.CBN, Strategy.CBV]))
def test_machines_match_the_search_and_rebuild_reference(term, trace, strategy):
    assert not free_variables(term)
    machine = CbNMachine() if strategy is Strategy.CBN else CbVMachine()
    configurations, (status, detail, steps) = reference_run(
        term, trace, strategy, MAX_STEPS
    )
    # The configuration after k steps, as the refocusing run holds it.
    for k, configuration in enumerate(configurations):
        stopped = machine.run(term, trace, max_steps=k)
        assert (stopped.term, stopped.trace) == configuration
        if k + 1 < len(configurations):
            assert machine.step(*configuration) == configurations[k + 1]
    result = machine.run(term, trace, max_steps=MAX_STEPS)
    assert (result.status, result.detail, result.steps) == (status, detail, steps)
    assert (result.term, result.trace) == configurations[-1]


@given(closed_terms, st.sampled_from([Strategy.CBN, Strategy.CBV]))
def test_plugging_a_decomposition_returns_the_term_itself(term, strategy):
    # Untouched frames give back their original nodes: no rebuild, no copy.
    machine = CbNMachine() if strategy is Strategy.CBN else CbVMachine()
    frames = []
    redex = machine.contexts.refocus(frames, term)
    assert plug(frames, redex) is term
