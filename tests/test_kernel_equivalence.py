"""Property tests for the vectorized sweep kernel and the box contractor.

The kernel (:mod:`repro.geometry.kernel`) is strictly a classifier: its
float interval banks enclose the exact scalar interval evaluation from the
outside (outer bank) and certifiably from the inside (inner bank), so

* a kernel ``True``/``False`` verdict implies the identical verdict from
  the exact scalar :meth:`Constraint.box_status`,
* a kernel *certified-undecided* verdict implies the scalar verdict is
  ``None``,
* a lane the kernel poisons (``log`` domain, ``exp`` overflow) is exactly a
  lane where the scalar evaluation raises, and it stays plain-undecided,

and therefore the chunked kernel sweep is **bit-identical** -- bounds,
counters, frontiers -- to the scalar sweep at every chunk size, including
chunk size 1.  Hypothesis drives randomly generated expressions over every
vectorized primitive, random dyadic boxes, and random constraint sets
through all of these; the contractor tests check that ``contract=True``
can only tighten the certified bracket while remaining sound.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import JobSpec, run_job
from repro.geometry import kernel as kernel_module
from repro.geometry.engine import MeasureEngine
from repro.geometry.kernel import (
    KERNEL_FALSE,
    KERNEL_TRUE,
    KERNEL_UNDECIDED,
    KERNEL_UNDECIDED_SURE,
    boxes_to_arrays,
    compile_constraint_set,
    kernel_available,
)
from repro.geometry.measure import MeasureOptions
from repro.geometry.stats import PerfStats
from repro.geometry.sweep import sweep_measure
from repro.intervals.box import Box
from repro.intervals.interval import Interval
from repro.spcf.primitives import default_registry
from repro.symbolic.constraints import Constraint, ConstraintSet, Relation
from repro.symbolic.values import const, sample_var, simplify_prim

pytestmark = pytest.mark.skipif(
    not kernel_available(), reason="numpy is unavailable"
)

_REGISTRY = default_registry()
_RELATIONS = (Relation.LE, Relation.GT, Relation.GE, Relation.LT)
_DIMENSION = 3


# -- expression / box strategies ----------------------------------------------

_small_consts = st.fractions(min_value=Fraction(-2), max_value=Fraction(2))

_leaves = st.one_of(
    st.integers(min_value=0, max_value=_DIMENSION - 1).map(sample_var),
    _small_consts.map(const),
)


def _unary(op):
    return lambda value: simplify_prim(op, [value])


def _binary(op):
    return lambda left, right: simplify_prim(op, [left, right])


def _log_of_positive(value):
    """``log(abs(e) + 1/8)``: the argument's lower bound stays positive."""
    shifted = simplify_prim(
        "add", [simplify_prim("abs", [value]), const(Fraction(1, 8))]
    )
    return simplify_prim("log", [shifted])


_expressions = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.builds(_unary("neg"), children),
        st.builds(_unary("abs"), children),
        st.builds(_unary("exp"), children),
        st.builds(_unary("sig"), children),
        st.builds(_log_of_positive, children),
        st.builds(_binary("add"), children, children),
        st.builds(_binary("sub"), children, children),
        st.builds(_binary("mul"), children, children),
        st.builds(_binary("min"), children, children),
        st.builds(_binary("max"), children, children),
    ),
    max_leaves=6,
)


@st.composite
def _dyadic_boxes(draw):
    """A random dyadic sub-box of the unit cube, as the sweep would visit."""
    intervals = []
    for _ in range(_DIMENSION):
        depth = draw(st.integers(min_value=0, max_value=5))
        cell = draw(st.integers(min_value=0, max_value=2**depth - 1))
        intervals.append(
            Interval(Fraction(cell, 2**depth), Fraction(cell + 1, 2**depth))
        )
    return Box(intervals)


_constraints = st.builds(
    lambda value, relation: Constraint(value, relation),
    _expressions,
    st.sampled_from(_RELATIONS),
)
_constraint_sets = st.lists(_constraints, min_size=1, max_size=3).map(ConstraintSet)


# -- kernel verdicts vs the exact scalar box_status ---------------------------


def _scalar_status(constraint, box):
    """``box_status`` of one constraint, or ``"raises"`` where it raises."""
    mapping = {index: interval for index, interval in enumerate(box.intervals)}
    try:
        return constraint.box_status(mapping, _REGISTRY)
    except (ValueError, OverflowError, ZeroDivisionError):
        return "raises"


@settings(max_examples=120, deadline=None)
@given(_constraint_sets, st.lists(_dyadic_boxes(), min_size=1, max_size=8))
def test_kernel_verdicts_are_sound_for_the_scalar_box_status(constraints, boxes):
    """Every decided kernel lane implies the identical scalar verdict.

    This is the observable form of the enclosure invariant: the outer float
    bank contains the scalar interval (so TRUE/FALSE transfer) and the inner
    bank lies inside it (so certified-undecided forces ``None``).  A lane
    where the scalar evaluation raises must never be decided or certified.
    """
    compiled = compile_constraint_set(constraints)
    if compiled is None:
        return  # unsupported sets legitimately fall back to the scalar path
    arrays = boxes_to_arrays(boxes)
    verdicts = compiled.classify(*arrays)
    for constraint, vector in zip(constraints.constraints, verdicts):
        for lane, box in enumerate(boxes):
            verdict = int(vector[lane])
            scalar = _scalar_status(constraint, box)
            if scalar == "raises":
                assert verdict == KERNEL_UNDECIDED
            elif verdict == KERNEL_TRUE:
                assert scalar is True
            elif verdict == KERNEL_FALSE:
                assert scalar is False
            elif verdict == KERNEL_UNDECIDED_SURE:
                assert scalar is None


@settings(max_examples=80, deadline=None)
@given(st.lists(_dyadic_boxes(), min_size=1, max_size=8))
def test_box_arrays_bracket_the_exact_endpoints(boxes):
    """Outer endpoints round outward, inner ones inward, around each exact
    dyadic endpoint (for representable endpoints all three coincide)."""
    los, his, inner_los, inner_his = boxes_to_arrays(boxes)
    for row, box in enumerate(boxes):
        for column, interval in enumerate(box.intervals):
            assert los[row, column] <= interval.lo <= inner_los[row, column]
            assert inner_his[row, column] <= interval.hi <= his[row, column]


# -- chunked kernel sweep: bit-identical to the scalar sweep ------------------


@settings(max_examples=40, deadline=None)
@given(_constraint_sets, st.integers(min_value=2, max_value=5))
def test_kernel_sweep_is_bit_identical_at_every_chunk_size(constraints, depth):
    scalar = sweep_measure(
        constraints, _DIMENSION, max_depth=depth, collect_frontier=True
    )
    for chunk in (1, 7, 64):
        vectorized = sweep_measure(
            constraints,
            _DIMENSION,
            max_depth=depth,
            collect_frontier=True,
            use_kernel=True,
            kernel_chunk=chunk,
            kernel_warmup=0,
        )
        assert vectorized == scalar  # every field, frontier included


@settings(max_examples=30, deadline=None)
@given(
    _constraint_sets,
    st.integers(min_value=2, max_value=5),
    st.fractions(min_value=Fraction(1, 64), max_value=Fraction(1, 2)),
    st.integers(min_value=1, max_value=40),
)
def test_kernel_sweep_budgets_are_bit_identical_too(
    constraints, depth, gap, max_boxes
):
    """Early-exit budgets cut the kernel sweep at the very same box."""
    for budget in (
        {"target_gap": gap},
        {"max_boxes": max_boxes},
        {"target_gap": gap, "max_boxes": max_boxes},
    ):
        scalar = sweep_measure(constraints, _DIMENSION, max_depth=depth, **budget)
        vectorized = sweep_measure(
            constraints,
            _DIMENSION,
            max_depth=depth,
            use_kernel=True,
            kernel_chunk=7,
            kernel_warmup=0,
            **budget,
        )
        assert vectorized == scalar


@settings(max_examples=30, deadline=None)
@given(
    _constraint_sets,
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=3),
)
def test_kernel_resumes_a_scalar_frontier_bit_identically(
    constraints, shallow_depth, extra_depth
):
    """A frontier collected by the scalar sweep warm-starts the kernel sweep
    (and vice versa) with results identical to the from-scratch deep sweep."""
    deep_depth = shallow_depth + extra_depth
    shallow = sweep_measure(
        constraints, _DIMENSION, max_depth=shallow_depth, collect_frontier=True
    )
    fresh = sweep_measure(
        constraints, _DIMENSION, max_depth=deep_depth, collect_frontier=True
    )
    for use_kernel in (False, True):
        warm = sweep_measure(
            constraints,
            _DIMENSION,
            max_depth=deep_depth,
            resume=shallow.frontier,
            collect_frontier=True,
            use_kernel=use_kernel,
            kernel_warmup=0,
        )
        assert warm.lower == fresh.lower
        assert warm.undecided == fresh.undecided
        assert warm.boxes_examined == fresh.boxes_examined
        assert set(warm.frontier.boxes) == set(fresh.frontier.boxes)


def _sig_threshold_set():
    return ConstraintSet(
        [
            Constraint(
                simplify_prim(
                    "sub",
                    [simplify_prim("sig", [sample_var(0)]), const(Fraction(3, 5))],
                ),
                Relation.LE,
            )
        ]
    )


def test_kernel_counters_account_every_examined_box():
    """With warmup disabled, every examined box goes through a batch."""
    stats = PerfStats()
    result = sweep_measure(
        _sig_threshold_set(),
        1,
        max_depth=8,
        use_kernel=True,
        kernel_warmup=0,
        stats=stats,
    )
    assert stats.kernel_batches > 0
    assert stats.kernel_boxes == result.boxes_examined


def test_warmup_keeps_tiny_sweeps_scalar():
    """The warmup threshold amortizes kernel setup: a sweep that finishes
    inside the warmup window never compiles the tape or touches numpy, and
    a sweep that outgrows it hands over exactly at the threshold -- with
    results bit-identical either way (classification is path-independent).
    """
    constraints = _sig_threshold_set()
    scalar = sweep_measure(constraints, 1, max_depth=8)

    tiny_stats = PerfStats()
    tiny = sweep_measure(
        constraints,
        1,
        max_depth=8,
        use_kernel=True,
        kernel_warmup=10**6,
        stats=tiny_stats,
    )
    assert tiny == scalar
    assert tiny_stats.kernel_batches == 0

    warm_stats = PerfStats()
    warmup = 4
    warm = sweep_measure(
        constraints,
        1,
        max_depth=8,
        use_kernel=True,
        kernel_warmup=warmup,
        stats=warm_stats,
    )
    assert warm == scalar
    assert warm_stats.kernel_batches > 0
    assert warm_stats.kernel_boxes == warm.boxes_examined - warmup


def test_missing_numpy_falls_back_to_the_scalar_path(monkeypatch):
    """Without numpy the kernel compiles to None and the sweep degrades to
    the scalar loop -- same results, no kernel batches, clear error from
    require_numpy."""
    constraints = ConstraintSet(
        [
            Constraint(
                simplify_prim(
                    "sub",
                    [simplify_prim("sig", [sample_var(0)]), const(Fraction(3, 5))],
                ),
                Relation.LE,
            )
        ]
    )
    expected = sweep_measure(constraints, 1, max_depth=6)
    monkeypatch.setattr(kernel_module, "_np", None)
    assert compile_constraint_set(constraints) is None
    with pytest.raises(RuntimeError, match="falls back to the scalar loop"):
        kernel_module.require_numpy()
    stats = PerfStats()
    fallback = sweep_measure(
        constraints, 1, max_depth=6, use_kernel=True, stats=stats
    )
    assert fallback == expected
    assert stats.kernel_batches == 0


# -- the contractor: sound, and it only tightens ------------------------------


def _library_like_set():
    """A multi-constraint non-affine set with a fat undecided boundary."""
    c1 = Constraint(
        simplify_prim(
            "sub",
            [
                simplify_prim(
                    "sig", [simplify_prim("mul", [sample_var(0), sample_var(1)])]
                ),
                const(Fraction(11, 20)),
            ],
        ),
        Relation.LE,
    )
    c2 = Constraint(
        simplify_prim(
            "sub",
            [
                simplify_prim(
                    "add",
                    [
                        simplify_prim("exp", [simplify_prim("neg", [sample_var(2)])]),
                        simplify_prim("mul", [sample_var(0), const(Fraction(-3, 2))]),
                    ],
                ),
                const(Fraction(2, 5)),
            ],
        ),
        Relation.GT,
    )
    return ConstraintSet([c1, c2])


@settings(max_examples=30, deadline=None)
@given(_constraint_sets, st.integers(min_value=2, max_value=5))
def test_contraction_stays_sound(constraints, depth):
    plain = sweep_measure(constraints, _DIMENSION, max_depth=depth)
    contracted = sweep_measure(constraints, _DIMENSION, max_depth=depth, contract=True)
    # Soundness: the bracket structure survives contraction.
    assert contracted.lower + contracted.undecided == contracted.upper
    assert 0 <= contracted.lower <= contracted.upper <= 1
    # Both brackets enclose the true measure, so they must overlap: a
    # contracted lower bound above the plain upper (or vice versa) would
    # prove one of them unsound.  Per-field monotonicity at equal depth is
    # deliberately *not* asserted -- shaving moves boxes off the dyadic
    # grid, so a later bisection can straddle a boundary the aligned grid
    # resolved; strict tightening is demonstrated on the deterministic
    # workloads below instead.
    assert contracted.lower <= plain.upper
    assert plain.lower <= contracted.upper


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=3, max_value=6))
def test_kernel_and_scalar_agree_under_contraction(depth):
    constraints = _library_like_set()
    scalar = sweep_measure(constraints, _DIMENSION, max_depth=depth, contract=True)
    vectorized = sweep_measure(
        constraints,
        _DIMENSION,
        max_depth=depth,
        contract=True,
        use_kernel=True,
        kernel_warmup=0,
    )
    assert vectorized == scalar


def test_contraction_tightens_a_nonaffine_set_strictly():
    constraints = _library_like_set()
    plain = sweep_measure(constraints, _DIMENSION, max_depth=9)
    contracted = sweep_measure(constraints, _DIMENSION, max_depth=9, contract=True)
    assert contracted.lower > plain.lower
    assert contracted.upper < plain.upper


def test_contraction_tightens_library_lower_bounds():
    """End to end, ``contract=True`` narrows the certified bracket on every
    non-affine library program and strictly raises the lower bound on at
    least two of them at the same depth budget."""
    from repro.lowerbound import LowerBoundEngine
    from repro.programs.extra import nonaffine_programs

    strictly_tighter = 0
    for name, program in sorted(nonaffine_programs().items()):
        bounds = {}
        for contract in (False, True):
            options = MeasureOptions(sweep_depth=10, contract=contract)
            engine = MeasureEngine(options, cache_enabled=False)
            lower = LowerBoundEngine(
                strategy=program.strategy, measure_engine=engine
            )
            bounds[contract] = lower.lower_bound(program.applied, max_steps=35)
        assert bounds[True].measure_gap < bounds[False].measure_gap, name
        if program.known_probability is not None:
            assert (
                float(bounds[True].probability)
                <= program.known_probability + 1e-9
            ), name
        if bounds[True].probability > bounds[False].probability:
            strictly_tighter += 1
    assert strictly_tighter >= 2


# -- engine-level byte-identity of kernel and scalar classification ----------


def _job_line():
    engine = MeasureEngine()
    spec = JobSpec(
        program="sig-sum-retry(1)", analysis="lower-bound", params={"depth": 25}
    )
    return run_job(spec, engine).to_json_line(), engine


def test_job_records_are_byte_identical_without_the_kernel(monkeypatch):
    """The numpy-less scalar fallback must reproduce the kernel pipeline's
    job records byte for byte (the kernel only classifies; it never
    accumulates).  The program is non-affine, so the bound really comes
    from the sweep and the kernel engine really runs batches."""
    with_kernel, kernel_engine = _job_line()
    monkeypatch.setattr(kernel_module, "_np", None)
    without_kernel, scalar_engine = _job_line()
    assert with_kernel == without_kernel
    assert scalar_engine.stats.kernel_batches == 0
    assert kernel_engine.stats.kernel_batches > 0
