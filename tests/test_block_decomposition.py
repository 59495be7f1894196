"""Property tests for the block-decomposed measure engine.

The tentpole invariant: over the rational (affine) backend, measuring a
constraint set through the block decomposition is *bit-identical* to the
monolithic computation -- same exact :class:`~fractions.Fraction` value, same
exactness flags -- for every generated constraint set, whether it has a
single block, several disjoint blocks, or constraints chained across
variables.  Hypothesis drives randomly generated affine constraint sets
through all three paths (decomposed, decomposed-uncached, monolithic) and the
raw :func:`measure_constraints` facade.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import MeasureEngine, measure_constraints
from repro.symbolic.constraints import Constraint, ConstraintSet, Relation
from repro.symbolic.values import const, sample_var, simplify_prim

_RELATIONS = (Relation.LE, Relation.GT, Relation.GE, Relation.LT)


def _univariate(index: int, bound: Fraction, relation: Relation) -> Constraint:
    """``a_index - bound  relation  0``."""
    return Constraint(
        simplify_prim("sub", [sample_var(index), const(bound)]), relation
    )


def _bivariate(
    first: int, second: int, offset: Fraction, relation: Relation
) -> Constraint:
    """``a_first - a_second - offset  relation  0`` (links two variables)."""
    difference = simplify_prim("sub", [sample_var(first), sample_var(second)])
    return Constraint(simplify_prim("sub", [difference, const(offset)]), relation)


_fractions = st.fractions(min_value=Fraction(-1), max_value=Fraction(2))
_offsets = st.fractions(min_value=Fraction(-1), max_value=Fraction(1))
_relations = st.sampled_from(_RELATIONS)

# Univariate constraints over variables 0..5; bivariate constraints only link
# the fixed pairs (0,1), (2,3), (4,5), so every generated block has dimension
# <= 2 and is resolved by the exact interval / polygon machinery -- the
# regime where values are Fractions and bit-identity is the hard guarantee.
_univariate_constraints = st.builds(
    _univariate, st.integers(min_value=0, max_value=5), _fractions, _relations
)
_bivariate_constraints = st.builds(
    lambda pair, offset, relation: _bivariate(2 * pair, 2 * pair + 1, offset, relation),
    st.integers(min_value=0, max_value=2),
    _offsets,
    _relations,
)
_constraint_sets = st.lists(
    st.one_of(_univariate_constraints, _bivariate_constraints),
    min_size=1,
    max_size=8,
).map(ConstraintSet)


@settings(max_examples=150, deadline=None)
@given(constraints=_constraint_sets)
def test_block_decomposed_measures_are_bit_identical(constraints):
    dimension = max(constraints.dimension(), 1)
    decomposed = MeasureEngine().measure(constraints, dimension)
    uncached = MeasureEngine(cache_enabled=False).measure(constraints, dimension)
    # The facade measures the whole set at once: the monolithic reference.
    direct = measure_constraints(constraints, dimension)

    assert type(decomposed.value) is type(direct.value)
    assert decomposed.value == uncached.value == direct.value
    assert decomposed.exact == uncached.exact == direct.exact
    assert decomposed.lower_bound == direct.lower_bound
    # The rational backend must stay rational through the product.
    assert isinstance(decomposed.value, Fraction)
    assert decomposed.exact


@settings(max_examples=60, deadline=None)
@given(constraints=_constraint_sets, extra=st.integers(min_value=0, max_value=3))
def test_unconstrained_trailing_variables_do_not_change_the_measure(
    constraints, extra
):
    """Singleton blocks with no constraints contribute exactly measure 1."""
    dimension = max(constraints.dimension(), 1)
    base = MeasureEngine().measure(constraints, dimension)
    widened = MeasureEngine().measure(constraints, dimension + extra)
    assert widened.value == base.value
    assert widened.exact == base.exact


@settings(max_examples=60, deadline=None)
@given(
    constraints=st.lists(_univariate_constraints, min_size=1, max_size=4).map(
        ConstraintSet
    ),
    shift=st.integers(min_value=1, max_value=4),
)
def test_shifted_blocks_share_cache_entries(constraints, shift):
    """The same block shape at different sample positions is measured once."""
    shifted = ConstraintSet(
        Constraint(
            simplify_prim(
                "sub",
                [
                    sample_var(min(c.variables()) + shift),
                    # rebuild the same bound: value is sub(a_i, const(b))
                    c.value.args[1],
                ],
            ),
            c.relation,
        )
        for c in constraints
    )
    engine = MeasureEngine()
    original = engine.measure(constraints)
    calls_after_first = engine.stats.measure_calls
    moved = engine.measure(shifted, shifted.dimension())
    assert moved.value == original.value
    # Every shifted block renumbers to the same canonical key, so no new
    # base measurements are needed.
    assert engine.stats.measure_calls == calls_after_first


def test_single_block_and_disjoint_blocks_round_trip_counters():
    """A deterministic spot check of the counters the property tests rely on."""
    a = _univariate(0, Fraction(1, 3), Relation.LE)
    b = _univariate(4, Fraction(3, 4), Relation.GT)
    engine = MeasureEngine()

    single = engine.measure(ConstraintSet([a]))
    assert single.value == Fraction(1, 3)
    assert engine.stats.multi_block_sets == 0

    pair = engine.measure(ConstraintSet([a, b]), 5)
    assert pair.value == Fraction(1, 3) * Fraction(1, 4)
    assert engine.stats.multi_block_sets == 1
    # Block {a} was already cached by the single-set request; block {b}
    # renumbers a4 -> a0 and is measured fresh.
    assert engine.stats.block_cache_hits == 1
