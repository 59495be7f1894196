"""Tests for the shared memoizing measure engine and the single-pass Papprox.

Covers the engine's canonicalization/caching/complement rule, the pruned
subdivision sweep, the cached constraint-set views, the iterative execution
tree statistics, and bit-identity of the single-pass cumulative vector with
the per-budget reference evaluator.
"""

from fractions import Fraction

import pytest

from repro.astcheck import (
    build_execution_tree,
    cumulative_vector,
    min_probability_at_most,
    papprox_distribution,
    verify_ast,
)
from repro.astcheck.exectree import (
    ExecLeaf,
    ExecMu,
    ExecScore,
    ExecutionTree,
    _iter_nodes,
    _max_mu,
)
from repro.geometry import (
    MeasureEngine,
    MeasureOptions,
    PerfStats,
    measure_constraints,
    sweep_measure,
)
from repro.lowerbound import LowerBoundEngine
from repro.pastcheck import classify_termination, verify_past
from repro.programs import (
    geometric,
    running_example,
    running_example_first_class,
    table2_programs,
    three_print,
)
from repro.spcf import parse
from repro.spcf.syntax import Numeral
from repro.symbolic.constraints import Constraint, ConstraintSet, Relation
from repro.symbolic.values import const, sample_var, simplify_prim


def _le(value):
    return Constraint(value, Relation.LE)


def _gt(value):
    return Constraint(value, Relation.GT)


def _affine(index, bound):
    """The symbolic value ``a_index - bound``."""
    return simplify_prim("sub", [sample_var(index), const(bound)])


class TestMeasureEngine:
    def test_canonicalization_dedupes_and_orders(self):
        engine = MeasureEngine()
        a = _le(_affine(0, Fraction(1, 2)))
        b = _gt(_affine(1, Fraction(1, 4)))
        left = engine.canonicalize(ConstraintSet([a, b, a]))
        right = engine.canonicalize(ConstraintSet([b, a]))
        assert left == right
        assert len(left) == 2

    def test_permuted_sets_share_one_cache_entry(self):
        engine = MeasureEngine()
        a = _le(_affine(0, Fraction(1, 2)))
        b = _gt(_affine(1, Fraction(1, 4)))
        first = engine.measure(ConstraintSet([a, b]))
        second = engine.measure(ConstraintSet([b, a, a]))
        assert first == second
        assert engine.stats.measure_requests == 2
        assert engine.stats.cache_hits == 1
        # The set decomposes into two independent univariate blocks, each
        # measured (and memoized) once; the permuted re-request is answered
        # from the full-set product entry.
        assert engine.stats.measure_calls == 2
        assert engine.stats.block_requests == 2
        assert engine.stats.multi_block_sets == 1

    def test_engine_matches_direct_measure(self):
        a = _le(_affine(0, Fraction(1, 3)))
        b = _gt(_affine(1, Fraction(3, 4)))
        constraints = ConstraintSet([a, b])
        direct = measure_constraints(constraints, 2)
        engine = MeasureEngine()
        assert engine.measure(constraints, 2).value == direct.value
        disabled = MeasureEngine(cache_enabled=False)
        assert disabled.measure(constraints, 2).value == direct.value
        assert disabled.stats.measure_calls == 2  # one per independent block
        assert disabled.cache_size == 0

    def test_complement_rule_is_exact_and_counted(self):
        engine = MeasureEngine()
        guard = _affine(0, Fraction(2, 3))
        then_value = engine.measure(ConstraintSet([_le(guard)]))
        else_value = engine.measure(ConstraintSet([_gt(guard)]))
        assert then_value.value == Fraction(2, 3)
        assert else_value.value == Fraction(1, 3)
        assert else_value.method == "complement"
        assert engine.stats.complement_derivations == 1
        assert engine.stats.measure_calls == 1
        # The derived value is bit-identical to the direct computation.
        direct = measure_constraints(ConstraintSet([_gt(guard)]), 1)
        assert else_value.value == direct.value

    def test_complement_rule_skips_multivariate_constraints(self):
        engine = MeasureEngine()
        guard = simplify_prim("sub", [sample_var(0), sample_var(1)])
        engine.measure(ConstraintSet([_le(guard)]))
        engine.measure(ConstraintSet([_gt(guard)]))
        assert engine.stats.complement_derivations == 0
        assert engine.stats.measure_calls == 2

    def test_clear_drops_entries_but_keeps_counters(self):
        engine = MeasureEngine()
        constraints = ConstraintSet([_le(_affine(0, Fraction(1, 2)))])
        engine.measure(constraints)
        assert engine.cache_size == 1
        engine.clear()
        assert engine.cache_size == 0
        assert engine.stats.measure_requests == 1

    def test_perf_stats_merge_and_reset(self):
        first = PerfStats(measure_requests=2, cache_hits=1)
        second = PerfStats(measure_requests=3, measure_calls=2)
        first.merge(second)
        assert first.measure_requests == 5
        assert first.cache_hits == 1
        assert first.measure_calls == 2
        assert "measure requests" in first.summary()
        first.reset()
        assert first.measure_requests == 0


class TestConstraintSetCaching:
    def test_variables_and_dimension_are_consistent(self):
        constraints = ConstraintSet(
            [_le(_affine(3, Fraction(1, 2))), _gt(_affine(1, Fraction(1, 4)))]
        )
        assert constraints.variables() == frozenset({1, 3})
        assert constraints.variables() is constraints.variables()  # cached
        assert constraints.dimension() == 4
        assert not constraints.contains_star()
        assert not constraints.contains_argument()

    def test_hash_is_stable_and_matches_equality(self):
        a = _le(_affine(0, Fraction(1, 2)))
        left = ConstraintSet([a])
        right = ConstraintSet([a])
        assert left == right
        assert hash(left) == hash(right)
        assert hash(a) == hash(Constraint(a.value, a.relation))


class TestSweepPruning:
    def test_pruning_saves_evaluations_without_changing_bounds(self):
        # a0 <= 3/4 is decided on large boxes early; a1*a1 <= 1/2 needs depth.
        easy = _le(_affine(0, Fraction(3, 4)))
        square = simplify_prim(
            "sub", [simplify_prim("mul", [sample_var(1), sample_var(1)]), const(Fraction(1, 2))]
        )
        constraints = ConstraintSet([easy, _le(square)])
        stats = PerfStats()
        result = sweep_measure(constraints, 2, max_depth=8, stats=stats)
        assert result.evaluations_saved > 0
        assert stats.sweep_evaluations_saved == result.evaluations_saved
        assert stats.sweep_boxes_examined == result.boxes_examined
        # The bounds still bracket the true measure 3/4 * sqrt(1/2).
        truth = 0.75 * (0.5 ** 0.5)
        assert float(result.lower) <= truth <= float(result.upper)

    def test_pruned_sweep_brackets_the_true_measure(self):
        constraints = ConstraintSet(
            [_le(_affine(0, Fraction(1, 2))), _gt(_affine(0, Fraction(1, 4)))]
        )
        result = sweep_measure(constraints, 1, max_depth=10)
        assert result.lower <= Fraction(1, 4) <= result.upper
        assert result.undecided <= Fraction(1, 256)


class TestExecutionTreeStatistics:
    def test_deep_trees_do_not_hit_the_recursion_limit(self):
        depth = 50_000
        node = ExecLeaf(Numeral(0))
        for _ in range(depth):
            node = ExecMu(argument=None, child=node)
        tree = ExecutionTree(node, 0)
        assert tree.max_recursive_calls == depth
        assert tree.leaf_count == 1
        assert tree.node_count == depth + 1
        assert sum(1 for _ in _iter_nodes(node)) == depth + 1
        assert _max_mu(node) == depth

    def test_statistics_are_cached_on_the_tree(self):
        tree = build_execution_tree(running_example(Fraction(3, 5)).fix)
        first = tree._stats
        assert tree._stats is first
        assert tree.max_recursive_calls == 3
        assert tree.leaf_count == 4
        assert tree.prob_node_count == 2
        assert tree.nondet_node_count == 1
        assert not tree.has_stuck_paths
        assert not tree.has_star_guards

    def test_score_chains_are_walked_iteratively(self):
        node = ExecLeaf(Numeral(0))
        for _ in range(10_000):
            node = ExecScore(value=const(1), child=node)
        tree = ExecutionTree(node, 0)
        assert tree.max_recursive_calls == 0
        assert tree.leaf_count == 1


class TestSinglePassPapprox:
    @pytest.mark.parametrize("name", sorted(table2_programs()))
    def test_cumulative_vector_matches_per_budget_reference(self, name):
        program = table2_programs()[name]
        tree = build_execution_tree(program.fix)
        rank = tree.max_recursive_calls
        engine = MeasureEngine()
        vector = cumulative_vector(tree, rank, engine)
        reference = [
            min_probability_at_most(tree, budget, engine=MeasureEngine(cache_enabled=False))
            for budget in range(rank + 1)
        ]
        assert vector == reference

    @pytest.mark.parametrize("cache_enabled", [True, False])
    def test_distributions_identical_with_and_without_cache(self, cache_enabled):
        program = running_example_first_class(Fraction(13, 20))
        tree = build_execution_tree(program.fix)
        result = papprox_distribution(
            tree, engine=MeasureEngine(cache_enabled=cache_enabled)
        )
        assert result.exact
        assert result.distribution.as_dict() == {
            0: Fraction(13, 20),
            2: Fraction(49, 800),
            3: Fraction(231, 800),
        }

    def test_leaves_are_measured_once_per_distinct_set(self):
        tree = build_execution_tree(three_print(Fraction(2, 3)).fix)
        engine = MeasureEngine()
        papprox_distribution(tree, engine=engine)
        # Two leaves, one derived by the complement rule: one real measure.
        assert engine.stats.measure_requests == 2
        assert engine.stats.measure_calls == 1
        assert engine.stats.complement_derivations == 1


class TestSharedEngineAcrossAnalyses:
    def test_verify_past_reuses_the_verifier_cache(self):
        program = running_example(Fraction(3, 5))
        engine = MeasureEngine()
        ast = verify_ast(program, engine=engine)
        calls_after_verify = engine.stats.measure_calls
        past = verify_past(program, engine=engine)
        assert past.ast_result.papprox.as_dict() == ast.papprox.as_dict()
        assert engine.stats.measure_calls == calls_after_verify
        assert engine.stats.cache_hits > 0

    def test_classification_with_engine_matches_without(self):
        program = geometric(Fraction(1, 2))
        with_engine = classify_termination(program, engine=MeasureEngine())
        without = classify_termination(program)
        assert with_engine.verdict == without.verdict
        assert with_engine.past.papprox.as_dict() == without.past.papprox.as_dict()

    def test_lower_bound_engine_accepts_a_shared_engine(self):
        program = geometric(Fraction(1, 2))
        shared = MeasureEngine()
        first = LowerBoundEngine(measure_engine=shared).lower_bound(
            program.applied, max_steps=40
        )
        again = LowerBoundEngine(measure_engine=shared).lower_bound(
            program.applied, max_steps=40
        )
        assert first.probability == again.probability
        assert shared.stats.cache_hits > 0
        plain = LowerBoundEngine().lower_bound(program.applied, max_steps=40)
        assert first.probability == plain.probability

    def test_measure_options_flow_through_the_engine(self):
        program = parse("mu phi x. if sample * sample - 1/2 then x else phi x")
        boxes = []
        for depth in (4, 8):
            engine = MeasureEngine(MeasureOptions(sweep_depth=depth))
            result = verify_ast(program, engine=engine)
            assert result.papprox is not None
            boxes.append(engine.stats.sweep_boxes_examined)
        assert 0 < boxes[0] < boxes[1]


# -- persistent store keys ---------------------------------------------------------

_HALF_GUARD = ConstraintSet(
    [Constraint(simplify_prim("sub", [sample_var(0), const(Fraction(1, 2))]), Relation.LE)]
)
_SIG_GUARD = ConstraintSet(
    [
        Constraint(
            simplify_prim(
                "sub",
                [simplify_prim("sig", [sample_var(0)]), const(Fraction(3, 5))],
            ),
            Relation.GT,
        )
    ]
)


@pytest.mark.parametrize(
    "options, measure_key, sweep_key",
    [
        (
            MeasureOptions(),
            "(sub(a0, ConstVal(1/2)) <= 0)|d1|o8.14.0.1.0.None|aNone",
            "(sub(sig(a0), ConstVal(3/5)) > 0)|d1|s14.0.None",
        ),
        (
            MeasureOptions(sweep_depth=18, sweep_max_boxes=500),
            "(sub(a0, ConstVal(1/2)) <= 0)|d1|o8.18.0.1.0.500|aNone",
            "(sub(sig(a0), ConstVal(3/5)) > 0)|d1|s18.0.500",
        ),
    ],
    ids=["default", "budget"],
)
def test_store_keys_are_pinned(options, measure_key, sweep_key):
    """A drifted key would silently turn every existing store cold."""
    engine = MeasureEngine(options)
    assert engine.persistent_key(_HALF_GUARD, 1) == measure_key
    assert engine.persistent_sweep_key(_SIG_GUARD, 1) == sweep_key
