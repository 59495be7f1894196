"""Tests for the counting semantics, counting patterns, rank, progress, Cor. 5.13."""

from fractions import Fraction

import pytest

from repro.counting import (
    StarRunStatus,
    counting_pattern_exact,
    counting_pattern_monte_carlo,
    epsilon_recursion_avoidance,
    guards_independent_of_recursion,
    recursive_rank_bound,
    run_body,
    verify_ast_by_corollary,
)
from repro.programs import (
    bin_walk,
    geometric,
    golden_ratio,
    one_dim_random_walk,
    printer_nonaffine,
    running_example,
    running_example_first_class,
    three_print,
)
from repro.counting.star_semantics import StarMachine
from repro.semantics.traces import Trace
from repro.spcf import parse
from repro.spcf.syntax import App, Fix, If, Numeral, Prim, Sample, Score, Var


class TestStarSemantics:
    def test_counting_the_nonaffine_printer(self):
        program = printer_nonaffine(Fraction(1, 2))
        # Accepting draw: no recursive calls.
        result = run_body(program.fix, 1, Trace([Fraction(1, 4)]))
        assert result.completed
        assert result.calls == 0
        # Failing draw: two recursive call sites.
        result = run_body(program.fix, 1, Trace([Fraction(3, 4)]))
        assert result.completed
        assert result.calls == 2

    def test_counting_three_print(self):
        program = three_print(Fraction(2, 3))
        result = run_body(program.fix, 1, Trace([Fraction(9, 10)]))
        assert result.completed
        assert result.calls == 3

    def test_star_in_guard_is_reported(self):
        # mu phi x. if phi x then 0 else 1 -- the recursive outcome decides the branch.
        fix = Fix("phi", "x", If(App(Var("phi"), Var("x")), Numeral(0), Numeral(1)))
        result = run_body(fix, 1, Trace([]))
        assert result.status is StarRunStatus.STUCK_ON_STAR_GUARD

    def test_primitives_absorb_star(self):
        fix = Fix("phi", "x", Prim("add", (App(Var("phi"), Var("x")), Numeral(1))))
        result = run_body(fix, 1, Trace([]))
        assert result.completed
        assert result.calls == 1

    def test_argument_of_a_non_function_is_not_evaluated(self):
        # Fig. 8 has no context ``r E``: ``1 sample`` is stuck before the
        # sample consumes a draw.
        result = StarMachine().run(App(Numeral(1), Sample()), Trace([Fraction(1, 2)]))
        assert result.status is StarRunStatus.STUCK
        assert result.steps == 0
        assert result.term == App(Numeral(1), Sample())
        assert result.trace == Trace([Fraction(1, 2)])

    def test_trace_exhaustion(self):
        program = printer_nonaffine(Fraction(1, 2))
        result = run_body(program.fix, 1, Trace([]))
        assert result.status is StarRunStatus.TRACE_EXHAUSTED


class TestCountingPattern:
    def test_nonaffine_printer_pattern(self):
        program = printer_nonaffine(Fraction(1, 2))
        pattern = counting_pattern_exact(program.fix, 1)
        assert pattern.exact
        assert pattern.distribution.as_dict() == {0: Fraction(1, 2), 2: Fraction(1, 2)}

    def test_running_example_pattern_matches_ex_5_8(self):
        # Ex. 5.8: <0> = p, <2> = (1-p)/2 (2 - sig r), <3> = (1-p)/2 sig r.
        program = running_example(Fraction(3, 5))
        argument = 1
        pattern = counting_pattern_exact(program.fix, argument).distribution
        import math

        sig = 1 / (1 + math.exp(-argument))
        assert float(pattern(0)) == pytest.approx(0.6)
        assert float(pattern(2)) == pytest.approx(0.4 * 0.5 * (2 - sig), abs=1e-9)
        assert float(pattern(3)) == pytest.approx(0.4 * 0.5 * sig, abs=1e-9)
        assert float(pattern.total_mass) == pytest.approx(1.0, abs=1e-9)

    def test_first_class_example_pattern_matches_appendix_d5(self):
        # App. D.5: <2> = (1-p)(1 - (1+p)/2 sig r), <3> = sig r (1-p^2)/2.
        program = running_example_first_class(Fraction(13, 20))
        argument = 2
        pattern = counting_pattern_exact(program.fix, argument).distribution
        import math

        p = 0.65
        sig = 1 / (1 + math.exp(-argument))
        assert float(pattern(0)) == pytest.approx(p)
        assert float(pattern(2)) == pytest.approx((1 - p) * (1 - (1 + p) / 2 * sig), abs=1e-9)
        assert float(pattern(3)) == pytest.approx(sig * (1 - p * p) / 2, abs=1e-9)

    def test_pattern_depends_on_the_argument_for_ex_5_1(self):
        program = running_example(Fraction(3, 5))
        small = counting_pattern_exact(program.fix, 0).distribution
        large = counting_pattern_exact(program.fix, 10).distribution
        assert small(3) < large(3)

    def test_monte_carlo_agrees_with_exact(self):
        program = printer_nonaffine(Fraction(1, 2))
        estimate = counting_pattern_monte_carlo(program.fix, 1, runs=2500)
        assert float(estimate(0)) == pytest.approx(0.5, abs=0.05)
        assert float(estimate(2)) == pytest.approx(0.5, abs=0.05)
        assert estimate(1) == 0

    def test_affine_programs_have_rank_one_patterns(self):
        for program in (geometric(Fraction(1, 3)), bin_walk(Fraction(1, 2), 2)):
            pattern = counting_pattern_exact(program.fix, 3).distribution
            assert pattern.rank <= 1


class TestRankAndProgress:
    def test_rank_bounds(self):
        assert recursive_rank_bound(geometric(Fraction(1, 2)).fix) == 1
        assert recursive_rank_bound(printer_nonaffine(Fraction(1, 2)).fix) == 2
        assert recursive_rank_bound(three_print(Fraction(1, 2)).fix) == 3
        assert recursive_rank_bound(golden_ratio().fix) == 3
        assert recursive_rank_bound(one_dim_random_walk(Fraction(1, 2), 1).fix) == 1
        assert recursive_rank_bound(running_example(Fraction(3, 5)).fix) == 3

    def test_rank_takes_the_max_over_branches(self):
        fix = Fix(
            "phi",
            "x",
            If(
                Sample(),
                App(Var("phi"), Var("x")),
                App(Var("phi"), App(Var("phi"), Var("x"))),
            ),
        )
        assert recursive_rank_bound(fix) == 2

    def test_progress_check_accepts_the_benchmarks(self):
        for program in (
            geometric(Fraction(1, 2)),
            printer_nonaffine(Fraction(1, 2)),
            running_example(Fraction(3, 5)),
            running_example_first_class(Fraction(13, 20)),
            one_dim_random_walk(Fraction(1, 2), 1),
        ):
            assert guards_independent_of_recursion(program.fix).ok

    def test_progress_check_rejects_recursive_guards(self):
        fix = Fix("phi", "x", If(App(Var("phi"), Var("x")), Numeral(0), Numeral(1)))
        result = guards_independent_of_recursion(fix)
        assert not result.ok
        assert "guard" in result.reason

    def test_progress_check_rejects_recursive_scores(self):
        fix = Fix("phi", "x", Score(App(Var("phi"), Var("x"))))
        assert not guards_independent_of_recursion(fix).ok

    def test_progress_check_tracks_let_bound_values(self):
        # let y = phi x in if y then 0 else 1  -- rejected.
        fix = Fix(
            "phi",
            "x",
            App(
                parse("lam y. if y then 0 else 1"),
                App(Var("phi"), Var("x")),
            ),
        )
        assert not guards_independent_of_recursion(fix).ok
        # let y = sample in if y then 0 else 1  -- accepted.
        fix = Fix("phi", "x", App(parse("lam y. if y then 0 else 1"), Sample()))
        assert guards_independent_of_recursion(fix).ok


class TestCorollary513:
    def test_nonaffine_printer_threshold(self):
        assert verify_ast_by_corollary(printer_nonaffine(Fraction(1, 2)).fix).verified
        assert not verify_ast_by_corollary(printer_nonaffine(Fraction(2, 5)).fix).verified

    def test_affine_zero_one_law(self):
        # Rank 1: any positive stopping probability suffices.
        result = verify_ast_by_corollary(geometric(Fraction(1, 100)).fix)
        assert result.verified
        assert result.rank == 1

    def test_running_example_needs_two_thirds_for_the_corollary(self):
        # Cor. 5.13 is weaker than Thm. 5.9: it applies only for p >= 2/3 (Ex. 5.14).
        assert verify_ast_by_corollary(
            running_example(Fraction(2, 3)).fix, arguments=(0, 1, 5)
        ).verified
        assert not verify_ast_by_corollary(
            running_example(Fraction(3, 5)).fix, arguments=(0, 1, 5)
        ).verified

    def test_epsilon_recursion_avoidance(self):
        epsilon = epsilon_recursion_avoidance(
            printer_nonaffine(Fraction(1, 3)).fix, arguments=(0, 2)
        )
        assert epsilon == Fraction(1, 3)
