"""Tests for the measuring oracles: linear extraction, polytopes, sweep, MC."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import (
    halfspaces_from_constraints,
    independent_blocks,
    measure_constraints,
    monte_carlo_measure,
    polytope_volume,
    sweep_measure,
)
from repro.geometry.linear import HalfSpace, univariate_interval
from repro.geometry.polytope import polygon_area_exact
from repro.geometry.sweep import sweep_accepted_boxes
from repro.symbolic import Constraint, ConstraintSet, Relation
from repro.symbolic.values import ConstVal, PrimVal, SampleVar


def _le(value):
    return Constraint(value, Relation.LE)


def _gt(value):
    return Constraint(value, Relation.GT)


def _minus(left, right):
    return PrimVal("sub", (left, right))


def _plus(left, right):
    return PrimVal("add", (left, right))


HALF = ConstVal(Fraction(1, 2))


class TestLinearExtraction:
    def test_halfspace_from_le_constraint(self):
        halfspaces = halfspaces_from_constraints(
            ConstraintSet([_le(_minus(SampleVar(0), HALF))])
        )
        assert halfspaces is not None
        assert halfspaces[0].as_dict() == {0: Fraction(1)}
        assert halfspaces[0].bound == Fraction(1, 2)

    def test_gt_constraints_flip_signs(self):
        halfspaces = halfspaces_from_constraints(
            ConstraintSet([_gt(_minus(SampleVar(0), HALF))])
        )
        assert halfspaces[0].as_dict() == {0: Fraction(-1)}
        assert halfspaces[0].bound == Fraction(-1, 2)
        assert halfspaces[0].strict

    def test_non_affine_constraints_yield_none(self):
        halfspaces = halfspaces_from_constraints(
            ConstraintSet([_le(PrimVal("mul", (SampleVar(0), SampleVar(1))))])
        )
        assert halfspaces is None

    def test_independent_blocks_split_unrelated_variables(self):
        halfspaces = halfspaces_from_constraints(
            ConstraintSet(
                [
                    _le(_minus(SampleVar(0), HALF)),
                    _le(_minus(_plus(SampleVar(1), SampleVar(2)), ConstVal(1))),
                ]
            )
        )
        blocks = independent_blocks(3, halfspaces)
        variable_groups = sorted(tuple(variables) for variables, _ in blocks)
        assert variable_groups == [(0,), (1, 2)]

    def test_unconstrained_variables_form_singleton_blocks(self):
        blocks = independent_blocks(2, [])
        assert len(blocks) == 2
        assert all(not halfspaces for _, halfspaces in blocks)

    def test_univariate_interval(self):
        halfspace = HalfSpace(((0, Fraction(1)),), Fraction(1, 3))
        assert univariate_interval(0, [halfspace]) == (Fraction(0), Fraction(1, 3))
        infeasible = HalfSpace(((0, Fraction(1)),), Fraction(-1))
        assert univariate_interval(0, [infeasible]) is None


class TestPolytopeVolume:
    def test_triangle_volume(self):
        # x0 + x1 <= 1 within the unit square: area 1/2.
        halfspace = HalfSpace(((0, Fraction(1)), (1, Fraction(1))), Fraction(1))
        assert polytope_volume(2, [halfspace]) == pytest.approx(0.5, abs=1e-9)

    def test_simplex_volume_in_three_dimensions(self):
        halfspace = HalfSpace(
            ((0, Fraction(1)), (1, Fraction(1)), (2, Fraction(1))), Fraction(1)
        )
        assert polytope_volume(3, [halfspace]) == pytest.approx(1 / 6, abs=1e-9)

    def test_empty_polytope(self):
        halfspace = HalfSpace(((0, Fraction(1)),), Fraction(-1))
        assert polytope_volume(1, [halfspace]) == 0.0

    def test_degenerate_polytope_has_zero_volume(self):
        halfspaces = [
            HalfSpace(((0, Fraction(1)),), Fraction(1, 2)),
            HalfSpace(((0, Fraction(-1)),), Fraction(-1, 2)),
        ]
        assert polytope_volume(1, halfspaces) == pytest.approx(0.0, abs=1e-9)

    def test_zero_dimension(self):
        assert polytope_volume(0, []) == 1.0
        assert polytope_volume(0, [HalfSpace((), Fraction(-1))]) == 0.0

    def test_exact_polygon_area(self):
        halfspace = HalfSpace(((0, Fraction(1)), (1, Fraction(1))), Fraction(1))
        assert polygon_area_exact([halfspace]) == Fraction(1, 2)
        # x1 >= x0 within the unit square.
        halfspace = HalfSpace(((0, Fraction(1)), (1, Fraction(-1))), Fraction(0))
        assert polygon_area_exact([halfspace]) == Fraction(1, 2)
        # Empty polygon.
        halfspace = HalfSpace(((0, Fraction(1)),), Fraction(-1))
        assert polygon_area_exact([halfspace]) == Fraction(0)


class TestSweep:
    def test_sweep_brackets_the_true_measure(self):
        constraints = ConstraintSet([_le(_minus(_plus(SampleVar(0), SampleVar(1)), ConstVal(1)))])
        result = sweep_measure(constraints, 2, max_depth=10)
        assert result.lower <= Fraction(1, 2) <= result.upper
        assert result.undecided > 0

    def test_sweep_finds_the_satisfied_half_exactly(self):
        constraints = ConstraintSet([_le(_minus(SampleVar(0), HALF))])
        result = sweep_measure(constraints, 1, max_depth=4)
        assert result.lower == Fraction(1, 2)
        # Only the boundary strip of width 2^-4 remains undecided.
        assert result.undecided == Fraction(1, 16)

    def test_sweep_tightens_with_depth(self):
        constraints = ConstraintSet([_le(_minus(_plus(SampleVar(0), SampleVar(1)), ConstVal(1)))])
        shallow = sweep_measure(constraints, 2, max_depth=6)
        deep = sweep_measure(constraints, 2, max_depth=12)
        assert deep.lower >= shallow.lower
        assert deep.undecided <= shallow.undecided

    def test_accepted_boxes_witness_the_lower_bound(self):
        constraints = ConstraintSet([_le(_minus(_plus(SampleVar(0), SampleVar(1)), ConstVal(1)))])
        boxes = sweep_accepted_boxes(constraints, 2, max_depth=8)
        total = sum((box.volume for box in boxes), Fraction(0))
        assert total == sweep_measure(constraints, 2, max_depth=8).lower

    def test_zero_dimension_sweep(self):
        satisfied = ConstraintSet([_le(ConstVal(-1))])
        violated = ConstraintSet([_le(ConstVal(1))])
        assert sweep_measure(satisfied, 0).lower == 1
        assert sweep_measure(violated, 0).lower == 0


class TestMeasureFacade:
    def test_univariate_constraints_are_measured_exactly(self):
        constraints = ConstraintSet(
            [_le(_minus(SampleVar(0), HALF)), _gt(_minus(SampleVar(1), ConstVal(Fraction(1, 4))))]
        )
        result = measure_constraints(constraints, 2)
        assert result.exact
        assert result.value == Fraction(1, 2) * Fraction(3, 4)

    def test_two_dimensional_blocks_use_the_exact_polygon_path(self):
        constraints = ConstraintSet(
            [_le(_minus(_plus(SampleVar(0), SampleVar(1)), ConstVal(1)))]
        )
        result = measure_constraints(constraints, 2)
        assert result.exact
        assert result.value == Fraction(1, 2)
        assert "polygon" in result.method

    def test_non_linear_constraints_fall_back_to_the_sweep(self):
        constraints = ConstraintSet(
            [_le(_minus(PrimVal("mul", (SampleVar(0), SampleVar(1))), ConstVal(Fraction(1, 4))))]
        )
        result = measure_constraints(constraints, 2)
        assert result.method == "sweep"
        # True measure is 1/4 (1 + ln 4) ~ 0.5966; the sweep lower-bounds it.
        assert 0.5 < float(result.value) <= 0.597

    def test_sweep_lower_bounds_an_affine_set_exactly(self):
        constraints = ConstraintSet([_le(_minus(SampleVar(0), HALF))])
        result = sweep_measure(constraints, 1, max_depth=14)
        assert result.lower == Fraction(1, 2)
        # Only the deepest box touching the boundary stays undecided.
        assert result.undecided == Fraction(1, 2**14)

    def test_star_constraints_measure_zero(self):
        from repro.symbolic.values import StarVal

        constraints = ConstraintSet([_le(StarVal())])
        result = measure_constraints(constraints, 1)
        assert result.value == 0
        assert result.lower_bound

    def test_measure_agrees_with_monte_carlo(self):
        constraints = ConstraintSet(
            [
                _le(_minus(_plus(SampleVar(0), SampleVar(1)), ConstVal(1))),
                _gt(_minus(SampleVar(2), ConstVal(Fraction(1, 3)))),
            ]
        )
        exact = measure_constraints(constraints, 3)
        estimate = monte_carlo_measure(constraints, 3, samples=20_000)
        assert estimate.within(float(exact.value))


# -- randomised cross-check of the polytope oracle ---------------------------


@st.composite
def _random_linear_constraints(draw):
    dimension = draw(st.integers(min_value=1, max_value=3))
    count = draw(st.integers(min_value=1, max_value=3))
    constraints = []
    for _ in range(count):
        coefficients = [
            draw(st.integers(min_value=-2, max_value=2)) for _ in range(dimension)
        ]
        bound = draw(st.integers(min_value=-2, max_value=3))
        value = ConstVal(Fraction(-bound))
        for index, coefficient in enumerate(coefficients):
            if coefficient:
                value = _plus(
                    value, PrimVal("mul", (ConstVal(coefficient), SampleVar(index)))
                )
        constraints.append(_le(value))
    return ConstraintSet(constraints), dimension


@settings(max_examples=25, deadline=None)
@given(_random_linear_constraints())
def test_linear_measures_match_monte_carlo(data):
    constraints, dimension = data
    result = measure_constraints(constraints, dimension)
    estimate = monte_carlo_measure(constraints, dimension, samples=4000, seed=7)
    assert abs(float(result.value) - estimate.estimate) <= 5 * estimate.stderr + 0.02
