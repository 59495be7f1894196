"""Executable views of interval preservation and interval separability (Sec. 3).

The soundness and completeness of the interval-based semantics rest on two
hypotheses about the primitive functions:

* *interval preservation* (Def. 3.1): the image of every box is an interval --
  guaranteed for continuous functions (Lem. 3.2);
* *interval separability* (Def. 3.6): the preimage of every interval is, up to
  a null set, a countable union of boxes -- guaranteed for continuous
  functions with null level sets (Lem. 3.7).

Neither hypothesis is decidable for black-box primitives, but both can be
probed numerically; :func:`check_interval_preserving` and
:func:`check_interval_separable` implement the probes the test-suite uses to
sanity-check every registered primitive.

The module also constructs the paper's counterexample (Ex. 3.9): a
Smith-Volterra-Cantor ("fat Cantor") set ``C`` of positive measure, the
distance function ``d_C`` (continuous, hence interval preserving, but *not*
interval separable because its zero set is fat and nowhere dense), and the
program ``if d_C(sample) then 0 else 1`` on which the interval semantics is
incomplete: the certified lower bound can never exceed ``1 - lambda(C)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from repro.lowerbound.engine import LowerBoundEngine
from repro.distributions.registry import extended_registry
from repro.geometry.measure import MeasureOptions
from repro.spcf.primitives import Primitive, default_registry
from repro.spcf.syntax import If, Numeral, Prim, Sample, Term
from repro.spcf.contexts import Strategy

Number = Union[Fraction, float]

__all__ = [
    "FatCantorSet",
    "IncompletenessReport",
    "IntervalPreservationReport",
    "SeparabilityReport",
    "check_interval_preserving",
    "check_interval_separable",
    "fat_cantor_primitive",
    "fat_cantor_set",
    "incompleteness_example",
]


# ---------------------------------------------------------------------------
# Numeric probe of interval preservation (Def. 3.1 / Lem. 3.2).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalPreservationReport:
    """Outcome of the numeric interval-preservation probe."""

    primitive: str
    box: Tuple[Tuple[float, float], ...]
    image_low: float
    image_high: float
    largest_relative_gap: float
    looks_interval_preserving: bool


def check_interval_preserving(
    primitive: Primitive,
    box: Optional[Sequence[Tuple[float, float]]] = None,
    samples: int = 4_000,
    gap_threshold: float = 0.05,
    seed: int = 0,
) -> IntervalPreservationReport:
    """Probe whether the image of ``box`` under ``primitive`` is an interval.

    The probe samples the box densely, sorts the image values and reports the
    largest gap between consecutive values relative to the image's range.  A
    continuous function has (by Lem. 3.2) no gap in the limit; ``floor`` shows
    up with a large relative gap.
    """
    rng = random.Random(seed)
    bounds = tuple(box) if box is not None else ((0.05, 0.95),) * primitive.arity
    if len(bounds) != primitive.arity:
        raise ValueError("the probe box must have one interval per argument")
    images: List[float] = []
    for _ in range(samples):
        point = [rng.uniform(lo, hi) for lo, hi in bounds]
        try:
            images.append(float(primitive(*point)))
        except (ValueError, ZeroDivisionError, OverflowError):
            continue
    if len(images) < 2:
        raise ValueError("the probe produced fewer than two image values")
    images.sort()
    low, high = images[0], images[-1]
    span = high - low
    if span == 0:
        return IntervalPreservationReport(
            primitive.name, bounds, low, high, 0.0, True
        )
    largest_gap = max(b - a for a, b in zip(images, images[1:]))
    relative = largest_gap / span
    return IntervalPreservationReport(
        primitive=primitive.name,
        box=bounds,
        image_low=low,
        image_high=high,
        largest_relative_gap=relative,
        looks_interval_preserving=relative < gap_threshold,
    )


# ---------------------------------------------------------------------------
# Numeric probe of interval separability (Def. 3.6 / Lem. 3.7).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparabilityReport:
    """Outcome of the numeric interval-separability probe."""

    primitive: str
    target: Tuple[float, float]
    depth: int
    inside_measure: float
    boundary_measure: float
    consistent_with_separability: bool


def check_interval_separable(
    primitive: Primitive,
    target: Tuple[Number, Number],
    box: Optional[Sequence[Tuple[float, float]]] = None,
    depth: int = 8,
    boundary_threshold: float = 0.1,
) -> SeparabilityReport:
    """Probe interval separability of ``primitive`` for one target interval.

    The domain box is subdivided into ``2^depth`` cells per dimension; each
    cell is classified with the interval extension as certainly inside the
    preimage of ``target``, certainly outside, or on the boundary.  Interval
    separability (plus continuity) means the boundary cells' total measure
    vanishes as ``depth`` grows; a fat level set keeps it bounded away from 0.
    """
    bounds = tuple(box) if box is not None else ((0.0, 1.0),) * primitive.arity
    if len(bounds) != primitive.arity:
        raise ValueError("the probe box must have one interval per argument")
    if primitive.arity > 2:
        raise ValueError("the separability probe supports arity 1 and 2 only")
    cells = 2**depth
    lo_target, hi_target = float(target[0]), float(target[1])
    inside = 0.0
    boundary = 0.0
    total = 0.0
    axes: List[List[Tuple[float, float]]] = []
    for lo, hi in bounds:
        width = (hi - lo) / cells
        axes.append([(lo + i * width, lo + (i + 1) * width) for i in range(cells)])
    if primitive.arity == 1:
        cell_boxes = [(segment,) for segment in axes[0]]
    else:
        cell_boxes = [(first, second) for first in axes[0] for second in axes[1]]
    for cell in cell_boxes:
        volume = 1.0
        for lo, hi in cell:
            volume *= hi - lo
        total += volume
        try:
            image_lo, image_hi = primitive.on_box(*cell)
        except (ValueError, ZeroDivisionError, OverflowError):
            boundary += volume
            continue
        image_lo, image_hi = float(image_lo), float(image_hi)
        if image_lo >= lo_target and image_hi <= hi_target:
            inside += volume
        elif image_hi < lo_target or image_lo > hi_target:
            continue
        else:
            boundary += volume
    return SeparabilityReport(
        primitive=primitive.name,
        target=(lo_target, hi_target),
        depth=depth,
        inside_measure=inside / total if total else 0.0,
        boundary_measure=boundary / total if total else 0.0,
        consistent_with_separability=(boundary / total if total else 0.0)
        < boundary_threshold,
    )


# ---------------------------------------------------------------------------
# The Smith-Volterra-Cantor set and the distance function of Ex. 3.9.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FatCantorSet:
    """The Smith-Volterra-Cantor set on ``[0, 1]``.

    At level ``n >= 1`` an open gap of length ``4^-n`` is removed from the
    middle of each of the ``2^(n-1)`` closed intervals remaining from the
    previous level.  The removed mass totals ``1/2``; what remains is a
    closed, nowhere dense set ``C`` of Lebesgue measure ``1/2``.

    ``max_depth`` bounds the construction depth used by the point queries;
    points that survive ``max_depth`` levels are treated as members (the
    error in :meth:`distance` is at most the width of a depth-``max_depth``
    surviving interval, i.e. well below ``2^-max_depth``).
    """

    max_depth: int = 40

    # -- measure -------------------------------------------------------------

    @property
    def measure(self) -> Fraction:
        """The Lebesgue measure of the (limit) set: exactly 1/2."""
        return Fraction(1, 2)

    def removed_measure_up_to(self, level: int) -> Fraction:
        """The total length removed by the first ``level`` construction steps."""
        return sum(
            (Fraction(2 ** (n - 1), 4**n) for n in range(1, level + 1)), Fraction(0)
        )

    def approximation_measure(self, level: int) -> Fraction:
        """The measure of the level-``level`` approximation (a finite union of
        closed intervals containing ``C``)."""
        return 1 - self.removed_measure_up_to(level)

    # -- gaps ----------------------------------------------------------------

    def gaps_up_to(self, level: int) -> List[Tuple[Fraction, Fraction]]:
        """All gaps removed by the first ``level`` construction steps, sorted."""
        gaps: List[Tuple[Fraction, Fraction]] = []
        intervals = [(Fraction(0), Fraction(1))]
        for n in range(1, level + 1):
            gap_length = Fraction(1, 4**n)
            updated: List[Tuple[Fraction, Fraction]] = []
            for lo, hi in intervals:
                mid = (lo + hi) / 2
                gap = (mid - gap_length / 2, mid + gap_length / 2)
                gaps.append(gap)
                updated.append((lo, gap[0]))
                updated.append((gap[1], hi))
            intervals = updated
        return sorted(gaps)

    # -- point queries ---------------------------------------------------------

    def distance(self, x: Number) -> float:
        """The distance ``d(x, C)`` of Ex. 3.9 (continuous, 1-Lipschitz, with
        zero set exactly ``C`` up to the construction-depth resolution)."""
        value = float(x)
        if value <= 0.0:
            return -value
        if value >= 1.0:
            return value - 1.0
        lo, hi = 0.0, 1.0
        for level in range(1, self.max_depth + 1):
            gap_length = 0.25**level
            mid = (lo + hi) / 2
            gap_lo = mid - gap_length / 2
            gap_hi = mid + gap_length / 2
            if gap_lo < value < gap_hi:
                # The gap's endpoints belong to C.
                return min(value - gap_lo, gap_hi - value)
            if value <= gap_lo:
                hi = gap_lo
            else:
                lo = gap_hi
        return 0.0

    def contains(self, x: Number) -> bool:
        """Membership in the depth-``max_depth`` approximation of ``C``."""
        return self.distance(x) == 0.0


def fat_cantor_set(max_depth: int = 40) -> FatCantorSet:
    """The Smith-Volterra-Cantor set with the given point-query depth."""
    return FatCantorSet(max_depth=max_depth)


def fat_cantor_primitive(max_depth: int = 40, name: str = "dist_svc") -> Primitive:
    """The distance-to-``C`` function as an SPCF primitive (Ex. 3.9).

    The interval extension uses the 1-Lipschitz bound
    ``max(0, max(d(a), d(b)) - (b - a))  <=  d|[a,b]  <=  min(d(a), d(b)) + (b - a)``,
    which is sound but -- because ``C`` is nowhere dense and fat -- can never
    certify ``d <= 0`` on a box of positive width.
    """
    cantor = fat_cantor_set(max_depth)

    def apply(x: Number) -> float:
        return cantor.distance(x)

    def interval_apply(bounds: Tuple[Number, Number]) -> Tuple[Number, Number]:
        lo, hi = float(bounds[0]), float(bounds[1])
        width = hi - lo
        at_lo, at_hi = cantor.distance(lo), cantor.distance(hi)
        lower = max(0.0, max(at_lo, at_hi) - width)
        upper = min(at_lo, at_hi) + width
        return lower, upper

    return Primitive(
        name,
        1,
        apply,
        interval_apply,
        interval_separable=False,
        q_interval_preserving=False,
    )


@dataclass(frozen=True)
class IncompletenessReport:
    """The incompleteness gap of Ex. 3.9 measured on the lower-bound engine."""

    term: Term
    lower_bound: float
    true_probability: float
    set_measure: float
    gap: float

    @property
    def incomplete(self) -> bool:
        """True iff the certified bound provably misses the true probability."""
        return self.lower_bound < self.true_probability - 1e-9


def incompleteness_example(
    max_depth: int = 12,
    sweep_depth: int = 10,
    max_steps: int = 50,
) -> IncompletenessReport:
    """Run the lower-bound engine on Ex. 3.9's program.

    The program ``if dist_svc(sample) then 0 else 1`` is almost surely
    terminating (``Pterm = 1``), yet no interval-trace family can certify more
    than ``1 - lambda(C) = 1/2``: the left branch requires the distance to be
    non-positive on a whole interval, which never happens on a set of positive
    measure.  The returned report records the certified bound and the gap.
    """
    registry = extended_registry(
        base=default_registry(), extras=(fat_cantor_primitive(max_depth),)
    )
    term = If(Prim("dist_svc", (Sample(),)), Numeral(0), Numeral(1))
    engine = LowerBoundEngine(
        strategy=Strategy.CBN,
        registry=registry,
        measure_options=MeasureOptions(sweep_depth=sweep_depth),
    )
    result = engine.lower_bound(term, max_steps=max_steps)
    lower_bound = float(result.probability)
    return IncompletenessReport(
        term=term,
        lower_bound=lower_bound,
        true_probability=1.0,
        set_measure=0.5,
        gap=1.0 - lower_bound,
    )
