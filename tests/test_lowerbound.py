"""Tests for the lower-bound engine (Sec. 3 / Sec. 7.1, Table 1)."""

from fractions import Fraction

import pytest

from repro.geometry.measure import MeasureOptions
from repro.lowerbound import LowerBoundEngine, lower_bound
from repro.programs.extra import nonaffine_programs
from repro.programs import (
    geometric,
    golden_ratio,
    one_dim_random_walk,
    pedestrian,
    printer_nonaffine,
    three_print,
)
from repro.semantics import CbNMachine, estimate_termination
from repro.spcf import parse
from repro.spcf.syntax import Var
from repro.symbolic.execute import Strategy


class TestGeometricProgram:
    def test_lower_bound_has_the_closed_form_of_a_geometric_series(self):
        # With k completed retries allowed, the bound is 1 - 2^-k; at depth 100
        # the engine finds 20 paths, matching Table 1's 0.9999990463.
        result = lower_bound(geometric(Fraction(1, 2)).applied, max_steps=100)
        assert result.probability == 1 - Fraction(1, 2) ** result.path_count
        assert result.path_count == 20
        assert float(result.probability) == pytest.approx(0.9999990463, abs=1e-9)

    def test_bound_is_monotone_in_depth(self):
        term = geometric(Fraction(1, 2)).applied
        engine = LowerBoundEngine()
        bounds = [
            engine.lower_bound(term, max_steps=depth).probability
            for depth in (20, 40, 80)
        ]
        assert bounds[0] < bounds[1] < bounds[2] < 1

    def test_expected_steps_lower_bound_is_positive_and_finite(self):
        result = lower_bound(geometric(Fraction(1, 2)).applied, max_steps=80)
        assert 0 < result.expected_steps < 100

    def test_exactness_flag(self):
        result = lower_bound(geometric(Fraction(1, 2)).applied, max_steps=40)
        assert result.exact_measures
        assert not result.exhaustive  # deeper paths were cut off


class TestAgainstKnownProbabilities:
    def test_nonaffine_printer_below_one_half_converges_to_p_over_one_minus_p(self):
        # Pterm = 1/3 for p = 1/4; the bound approaches it from below.
        program = printer_nonaffine(Fraction(1, 4))
        result = lower_bound(program.applied, max_steps=70)
        assert Fraction(3, 10) < result.probability < Fraction(1, 3)

    def test_golden_ratio_bound_stays_below_the_inverse_golden_ratio(self):
        import math

        result = lower_bound(golden_ratio().applied, max_steps=60)
        limit = (math.sqrt(5) - 1) / 2
        assert 0.55 < float(result.probability) < limit

    def test_bounds_never_exceed_the_monte_carlo_estimate_significantly(self):
        # Depths, run counts and step caps are kept moderate so the cross
        # check stays cheap: the critical printer's CbN runs are heavy-tailed
        # and its pending-call chains make late steps expensive.  Truncating
        # the Monte-Carlo runs only lowers the estimate, so the soundness
        # inequality below only gets harder to satisfy.
        for program, depth in [
            (geometric(Fraction(1, 5)), 60),
            (printer_nonaffine(Fraction(1, 2)), 45),
            (three_print(Fraction(3, 4)), 40),
            (one_dim_random_walk(Fraction(7, 10), 1), 45),
        ]:
            bound = lower_bound(program.applied, max_steps=depth, strategy=program.strategy)
            estimate = estimate_termination(
                program.applied, runs=300, max_steps=1_500, machine=CbNMachine()
            )
            assert float(bound.probability) <= estimate.probability + 4 * estimate.stderr + 0.03

    def test_pedestrian_paths_require_the_polytope_oracle(self):
        program = pedestrian()
        result = lower_bound(program.applied, max_steps=35, strategy=program.strategy)
        assert result.probability > Fraction(1, 10)
        methods = {measure.measure.method for measure in result.paths}
        assert any("polytope" in method or "polygon" in method for method in methods)


class TestAnytimeSessions:
    def test_schedule_results_are_bit_identical_to_from_scratch_runs(self):
        for program in (
            geometric(Fraction(1, 2)),
            golden_ratio(),
            printer_nonaffine(Fraction(1, 2)),
        ):
            engine = LowerBoundEngine(strategy=program.strategy)
            session = engine.session(program.applied)
            for depth in (15, 25, 40):
                incremental = session.extend(depth)
                reference = lower_bound(
                    program.applied, max_steps=depth, strategy=program.strategy
                )
                assert incremental == reference, (program.name, depth)

    def test_each_path_is_measured_exactly_once_across_the_schedule(self):
        engine = LowerBoundEngine()
        session = engine.session(geometric(Fraction(1, 2)).applied)
        session.extend(40)
        requests = engine.measure_engine.stats.measure_requests
        result = session.extend(40)
        # Replaying the same depth re-reports every path without a single
        # new measure request.
        assert engine.measure_engine.stats.measure_requests == requests
        assert result.path_count > 0

    def test_bounds_are_monotone_over_a_schedule(self):
        engine = LowerBoundEngine()
        results = list(
            engine.lower_bound_schedule(
                geometric(Fraction(1, 2)).applied, (10, 20, 30, 40)
            )
        )
        assert len(results) == 4
        probabilities = [result.probability for result in results]
        assert probabilities == sorted(probabilities)

    def test_target_gap_stops_the_schedule_early(self):
        engine = LowerBoundEngine()
        results = list(
            engine.lower_bound_schedule(
                geometric(Fraction(1, 2)).applied,
                (20, 40, 60, 80),
                target_gap=Fraction(1, 100),
            )
        )
        assert len(results) < 4
        assert results[-1].anytime_gap() <= Fraction(1, 100)

    def test_anytime_gap_is_the_sweep_bracket_once_exhaustive(self):
        from repro.spcf import parse

        exhaustive = lower_bound(parse("(lam x. x + 1) 2"), max_steps=10)
        assert exhaustive.exhaustive
        assert exhaustive.anytime_gap() == exhaustive.measure_gap == 0
        partial = lower_bound(geometric(Fraction(1, 2)).applied, max_steps=20)
        assert not partial.exhaustive
        assert partial.anytime_gap() == 1 - partial.probability

    def test_capped_session_keeps_reporting_non_exhaustive(self):
        engine = LowerBoundEngine()
        session = engine.session(golden_ratio().applied, max_paths=5)
        results = [session.extend(depth) for depth in (40, 60, 80)]
        assert not any(result.exhaustive for result in results)
        for result, reference_depth in zip(results, (40, 60, 80)):
            reference = LowerBoundEngine().lower_bound(
                golden_ratio().applied, max_steps=reference_depth, max_paths=5
            )
            assert result == reference


class TestEngineBehaviour:
    def test_open_terms_are_rejected(self):
        with pytest.raises(ValueError):
            lower_bound(Var("x"))

    def test_deterministic_terminating_terms_get_probability_one(self):
        result = lower_bound(parse("(lam x. x + 1) 2"), max_steps=10)
        assert result.probability == 1
        assert result.exhaustive

    def test_deterministically_diverging_terms_get_probability_zero(self):
        result = lower_bound(parse("(mu phi x. phi x) 0"), max_steps=30)
        assert result.probability == 0
        assert not result.exhaustive

    def test_score_failures_remove_probability_mass(self):
        # score(sample - 1/2) succeeds only when the draw is at least 1/2.
        result = lower_bound(parse("score(sample - 1/2)"), max_steps=10)
        assert result.probability == Fraction(1, 2)

    def test_max_paths_budget_is_respected(self):
        result = LowerBoundEngine().lower_bound(
            golden_ratio().applied, max_steps=60, max_paths=10
        )
        assert not result.exhaustive
        assert result.path_count <= 10

    @pytest.mark.parametrize("runs", [0, -3])
    def test_monte_carlo_estimate_needs_a_positive_run_count(self, runs):
        with pytest.raises(ValueError, match="runs must be positive"):
            estimate_termination(geometric(Fraction(1, 2)).applied, runs=runs)

    def test_shallow_sweep_budget_still_produces_sound_bounds(self):
        program = nonaffine_programs()["sig-retry(7/10)"]
        shallow = LowerBoundEngine(
            program.strategy, measure_options=MeasureOptions(sweep_depth=8)
        ).lower_bound(program.applied, max_steps=35)
        default = LowerBoundEngine(program.strategy).lower_bound(
            program.applied, max_steps=35
        )
        assert not shallow.exact_measures
        assert 0 < shallow.probability <= default.probability
        assert float(default.probability) <= program.known_probability

    def test_summary_mentions_the_depth_and_path_count(self):
        result = lower_bound(geometric(Fraction(1, 2)).applied, max_steps=20)
        summary = result.summary()
        assert "depth = 20" in summary
        assert "paths" in summary

    def test_cbv_strategy_is_supported(self):
        result = lower_bound(
            geometric(Fraction(1, 2)).applied, max_steps=60, strategy=Strategy.CBV
        )
        assert result.probability > Fraction(9, 10)
