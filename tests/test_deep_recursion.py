"""Deep-term regression tests: the explicit-work-stack tree and term walks.

``astcheck/exectree._build``, ``spcf.syntax.substitute``,
``spcf.syntax.free_variables``, ``spcf.syntax.subterms`` (and so
``term_size``), ``spcf.syntax.alpha_equivalent``, the ``==``, ``hash`` and
``repr`` of compound terms, and the evaluation-context walk of
``spcf.contexts`` run on explicit stacks, so recursion bodies far deeper than
the interpreter's recursion limit (e.g. the ``nested`` program at large rank)
and redexes buried under thousands of context frames must neither overflow
nor change results.  The equivalence tests compare the iterative
substitution against a direct recursive reference implementation on
binder-heavy terms.
"""

import sys
from fractions import Fraction

import pytest

from repro.astcheck.exectree import build_execution_tree, render_tree
from repro.counting.star_semantics import StarMachine, StarRunStatus
from repro.intervals import Interval, IntervalMachine, IntervalNumeral, IntervalRunStatus
from repro.intervals.trace import IntervalTrace
from repro.semantics import CbNMachine, CbVMachine, RunStatus, Trace
from repro.symbolic import SymbolicExplorer
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
    alpha_equivalent,
    free_variables,
    substitute,
    subterms,
    term_size,
)


def deep_application_chain(depth: int, leaf=None):
    term = leaf if leaf is not None else Var("x")
    for _ in range(depth):
        term = App(Var("phi"), term)
    return term


def deep_branch_body(depth: int):
    """A body whose execution tree is a ``depth``-high tower of branches."""
    body = Var("x")
    for _ in range(depth):
        body = If(
            Prim("-", (Sample(), Numeral(Fraction(1, 2)))),
            body,
            App(Var("phi"), Var("x")),
        )
    return body


def deep_context(levels: int, zero, one):
    """``score(score(... score(zero + one) ... + one) + one)``: the innermost
    redex ``zero + one`` sits under ``2 * levels - 1`` context frames."""
    term = zero
    for _ in range(levels):
        term = Score(Prim("add", (term, one)))
    return term


class LowRecursionLimit:
    """Temporarily lower the recursion limit so regressions fail loudly."""

    def __init__(self, limit: int = 1_000) -> None:
        self.limit = limit

    def __enter__(self):
        self.previous = sys.getrecursionlimit()
        sys.setrecursionlimit(self.limit)

    def __exit__(self, *exc_info):
        sys.setrecursionlimit(self.previous)


class TestDeepTerms:
    def test_substitute_handles_terms_deeper_than_the_recursion_limit(self):
        term = deep_application_chain(20_000)
        with LowRecursionLimit():
            result = substitute(term, {"x": Numeral(Fraction(1))})
        # walk down iteratively to the replaced leaf
        node = result
        while isinstance(node, App):
            node = node.arg
        assert node == Numeral(Fraction(1))

    def test_free_variables_handles_deep_terms(self):
        term = Lam("y", deep_application_chain(20_000))
        with LowRecursionLimit():
            names = free_variables(term)
        assert names == frozenset({"phi", "x"})

    def test_term_size_and_subterms_handle_deep_terms(self):
        term = Lam("y", deep_application_chain(5_000))
        with LowRecursionLimit():
            size = term_size(term)
            walk = subterms(term)
            first = [next(walk) for _ in range(3)]
        assert size == 1 + 2 * 5_000 + 1
        assert first[0] is term and first[1] is term.body
        assert first[2] is term.body.fn  # pre-order: function before argument

    def test_alpha_equivalence_handles_deep_terms(self):
        def deep(var, leaf_var):
            return Fix("phi", var, deep_application_chain(5_000, Var(leaf_var)))

        with LowRecursionLimit():
            assert alpha_equivalent(deep("x", "x"), deep("z", "z"))
            assert not alpha_equivalent(deep("x", "x"), deep("z", "x"))

    def test_equality_hash_and_repr_handle_deep_terms(self):
        left = Lam("y", deep_application_chain(5_000))
        right = Lam("y", deep_application_chain(5_000))
        other = Lam("y", deep_application_chain(5_000, Var("z")))
        with LowRecursionLimit():
            assert left == right and left != other
            assert hash(left) == hash(right)
            text = repr(left)
        assert text.startswith("Lam(var='y', body=App(fn=Var('phi'), arg=App(")
        assert text.endswith("arg=Var('x'))" + ")" * 5_000)
        assert text.count("App(fn=Var('phi'), arg=") == 5_000

    def test_execution_tree_deeper_than_the_recursion_limit(self):
        fix = Fix("phi", "x", deep_branch_body(5_000))
        with LowRecursionLimit():
            tree = build_execution_tree(fix, max_steps=200_000)
            rendering = render_tree(tree)
        assert tree.prob_node_count == 5_000
        assert tree.max_recursive_calls == 1
        assert rendering.count("branch[") == 5_000


class TestSubstituteEquivalence:
    """The iterative substitution agrees with the recursive definition."""

    def reference(self, term, replacements):
        """The direct structural-recursion definition (small terms only)."""
        from repro.spcf.syntax import fresh_variable, is_extension_leaf

        def go(term, repl, avoid):
            if isinstance(term, Var):
                return repl.get(term.name, term)
            if isinstance(term, (Numeral, Sample)) or is_extension_leaf(term):
                return term
            if isinstance(term, (Lam, Fix)):
                binders = (
                    (term.var,) if isinstance(term, Lam) else (term.fvar, term.var)
                )
                narrowed = {n: v for n, v in repl.items() if n not in binders}
                if not narrowed:
                    return term
                taken = avoid | free_variables(term.body) | set(binders)
                renaming, new_binders = {}, []
                for binder in binders:
                    if binder in avoid:
                        fresh = fresh_variable(binder, taken)
                        taken = taken | {fresh}
                        renaming[binder] = Var(fresh)
                        new_binders.append(fresh)
                    else:
                        new_binders.append(binder)
                body = term.body
                if renaming:
                    body = go(body, renaming, frozenset(renaming))
                body = go(body, narrowed, avoid)
                if isinstance(term, Lam):
                    return Lam(new_binders[0], body)
                return Fix(new_binders[0], new_binders[1], body)
            if isinstance(term, App):
                return App(go(term.fn, repl, avoid), go(term.arg, repl, avoid))
            if isinstance(term, If):
                return If(
                    go(term.cond, repl, avoid),
                    go(term.then, repl, avoid),
                    go(term.orelse, repl, avoid),
                )
            if isinstance(term, Prim):
                return Prim(term.op, tuple(go(a, repl, avoid) for a in term.args))
            if isinstance(term, Score):
                return Score(go(term.arg, repl, avoid))
            raise TypeError(term)

        avoid = frozenset()
        for value in replacements.values():
            avoid = avoid | free_variables(value)
        return go(term, dict(replacements), avoid)

    CASES = [
        # simple replacement
        (App(Var("f"), Var("x")), {"x": Numeral(Fraction(2))}),
        # shadowing: the bound x must not be replaced
        (Lam("x", App(Var("x"), Var("y"))), {"x": Numeral(Fraction(1)),
                                             "y": Var("z")}),
        # capture: lambda x must be renamed before inserting the free x
        (Lam("x", App(Var("f"), Var("y"))), {"y": Var("x")}),
        # capture under a Fix binder pair
        (Fix("phi", "x", App(Var("phi"), Var("y"))), {"y": Var("x")}),
        (Fix("phi", "x", App(Var("phi"), Var("y"))), {"y": Var("phi")}),
        # nested binders with mixed shadowing and capture
        (
            Lam("x", Lam("y", Prim("+", (Var("x"), Var("y"), Var("z"))))),
            {"z": Prim("*", (Var("x"), Var("y")))},
        ),
        # replacement value mentioning the binder, inside score and if
        (
            Lam("x", If(Var("c"), Score(Var("u")), Var("x"))),
            {"u": Var("x"), "c": Var("x")},
        ),
    ]

    @pytest.mark.parametrize("term, replacements", CASES)
    def test_matches_reference(self, term, replacements):
        expected = self.reference(term, replacements)
        actual = substitute(term, replacements)
        assert alpha_equivalent(actual, expected)

    def test_free_variables_after_capture_avoiding_substitution(self):
        # substituting y := x under Lam x must keep the inserted x free
        term = Lam("x", App(Var("f"), Var("y")))
        result = substitute(term, {"y": Var("x")})
        assert "x" in free_variables(result)
        assert isinstance(result, Lam) and result.var != "x"

    def test_empty_substitution_is_identity(self):
        term = Lam("x", App(Var("x"), Var("y")))
        assert substitute(term, {}) is term

    def test_nested_program_still_verifies(self):
        # the satellite's motivating program keeps its analysis verdicts
        from repro.astcheck import verify_ast
        from repro.programs import resolve_program

        program = resolve_program("nested(1/2)")
        result = verify_ast(program)
        assert result.rank >= 1

    def test_nested_program_tree_overrun_is_a_clean_budget_error(self):
        # unrolling the inner fixpoint builds symbolic values thousands of
        # nodes deep; the walk must reach the step budget and report the
        # designed error, not die of RecursionError first
        from repro.astcheck.exectree import ExecutionTreeError
        from repro.batch import JobSpec, run_job
        from repro.programs import resolve_program

        program = resolve_program("nested(1/2)")
        with LowRecursionLimit():
            with pytest.raises(ExecutionTreeError):
                build_execution_tree(program.fix, max_steps=5_000)
        result = run_job(JobSpec(program="nested(1/2)", analysis="papprox"))
        assert result.status == "error"
        assert "ExecutionTreeError" in result.error


DEEP_LEVELS = 1_500  # 3_000 frames: three times the lowered recursion limit


def _run_concrete(machine):
    result = machine.run(deep_context(DEEP_LEVELS, Numeral(0), Numeral(1)), Trace([]))
    assert result.status is RunStatus.TERMINATED
    assert result.steps == 2 * DEEP_LEVELS
    assert result.term == Numeral(DEEP_LEVELS)


def _run_interval():
    def point(value):
        return IntervalNumeral(Interval.point(value))

    result = IntervalMachine().run(
        deep_context(DEEP_LEVELS, point(0), point(1)), IntervalTrace([])
    )
    assert result.status is IntervalRunStatus.TERMINATED
    assert result.steps == 2 * DEEP_LEVELS
    assert result.term == point(DEEP_LEVELS)


def _run_star():
    result = StarMachine().run(
        deep_context(DEEP_LEVELS, Numeral(0), Numeral(1)), Trace([])
    )
    assert result.status is StarRunStatus.COMPLETED
    assert (result.steps, result.calls) == (2 * DEEP_LEVELS, 0)
    assert result.term == Numeral(DEEP_LEVELS)


def _run_symbolic():
    explored = SymbolicExplorer().explore(
        deep_context(DEEP_LEVELS, Numeral(0), Numeral(1)),
        max_steps_per_path=10 * DEEP_LEVELS,
    )
    assert explored.complete and explored.stuck == 0
    (path,) = explored.terminated
    assert path.steps == 2 * DEEP_LEVELS


@pytest.mark.parametrize(
    "run",
    [
        lambda: _run_concrete(CbNMachine()),
        lambda: _run_concrete(CbVMachine()),
        _run_interval,
        _run_star,
        _run_symbolic,
    ],
    ids=["cbn", "cbv", "interval", "star", "symbolic"],
)
def test_machines_reduce_under_contexts_deeper_than_the_recursion_limit(run):
    # Each machine reaches the value: no RecursionError and no step-limit
    # report at step 0 for a context the interpreter stack cannot hold.
    with LowRecursionLimit():
        run()
