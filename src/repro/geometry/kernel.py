"""Vectorized interval evaluation of constraint sets over chunks of boxes.

The adaptive sweep (:mod:`repro.geometry.sweep`) classifies one box at a
time through scalar :class:`~repro.intervals.interval.Interval` objects --
object allocation and ``Fraction`` arithmetic per AST node per box.  This
module batches that hot loop: a constraint set is compiled *once* into a
flat instruction tape over the shared sub-expression DAG of its symbolic
values, and the tape is then evaluated over ``k`` boxes at a time as numpy
array operations on ``(k,)`` lower/upper endpoint vectors.

The kernel is strictly a *classifier*, never an accumulator, and its float
intervals are maintained as **outward-rounded enclosures** of the scalar
interval evaluation:

* exact endpoints (``Fraction`` box corners, constants) are converted with
  :func:`repro.intervals.interval.float_below` / ``float_above`` -- the
  conversion can only widen;
* every rounded arithmetic operation (``add``/``sub``/``mul``) takes one
  ``nextafter`` step outward, covering the half-ulp rounding of the float
  op (``neg``/``abs``/``min``/``max`` are exact in floats and not widened);
* transcendental extensions (``exp``/``log``/``sig``) are padded with
  :data:`_KERNEL_PAD`, *strictly larger* than the scalar extensions'
  ``_FLOAT_OUTWARD`` pad, plus a ``nextafter`` step -- so the kernel
  interval contains the scalar one even though numpy's ``exp`` and
  ``math.exp`` may disagree by an ulp;
* any lane whose evaluation leaves the scalar path's domain (``log`` of a
  possibly non-positive interval, ``exp`` overflow) is *poisoned* to NaN
  and therefore classified undecided.

Enclosure is what makes kernel verdicts sound drop-in replacements for the
exact :meth:`~repro.symbolic.constraints.Constraint.box_status`: with
``kernel_lo <= scalar_lo`` and ``kernel_hi >= scalar_hi``, a kernel-decided
``True``/``False`` implies the identical scalar verdict (e.g. for
``<= 0``: ``kernel_hi <= 0`` forces ``scalar_hi <= 0``), and every
undecided lane is re-checked by the sweep with the exact scalar
``box_status`` -- so the final verdict per (box, constraint) is always
*identical* to the scalar path's, including which evaluation raises.

``numpy`` is a hard install requirement of the package (it already was for
:mod:`repro.geometry.polytope`), but the import is guarded so that a
mis-provisioned environment degrades to the scalar sweep with a clear
error from :func:`require_numpy` instead of an ``ImportError`` at package
import time.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from repro.intervals.interval import float_pair
from repro.symbolic.constraints import ConstraintSet, Relation
from repro.symbolic.values import ArgVal, ConstVal, PrimVal, SampleVar, SymVal

try:  # pragma: no cover - exercised only on broken installs
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = [
    "CompiledSet",
    "KERNEL_FALSE",
    "KERNEL_TRUE",
    "KERNEL_UNDECIDED",
    "KERNEL_UNDECIDED_SURE",
    "boxes_to_arrays",
    "compile_constraint_set",
    "kernel_available",
    "require_numpy",
]

# Verdict codes of :meth:`CompiledSet.classify`.  Undecided is the zero so a
# freshly allocated verdict vector is already conservative.
KERNEL_UNDECIDED = 0
KERNEL_TRUE = 1
KERNEL_FALSE = 2
KERNEL_UNDECIDED_SURE = 3
"""Certified-undecided: the *inner* enclosure already straddles the decision
boundary, so the scalar ``box_status`` provably returns ``None`` -- the
sweep can record the constraint undecided without the scalar re-check."""

_KERNEL_PAD = 4e-12
"""Relative+absolute pad of the transcendental kernels.

Strictly larger than ``repro.spcf.primitives._FLOAT_OUTWARD`` (1e-12): the
extra 3e-12 margin dominates any ulp-level disagreement between numpy's and
``math``'s transcendentals, keeping the kernel interval an enclosure of the
scalar one.
"""

_EXP_OVERFLOW = 709.0
"""Inputs above this make ``math.exp`` raise; such lanes are poisoned so the
sweep re-evaluates them on the scalar path, which raises identically."""


def kernel_available() -> bool:
    """Whether the numpy-backed kernel can run in this environment."""
    return _np is not None


def require_numpy():
    """Return numpy or fail with an actionable message.

    numpy is an install requirement (``setup.py``); this guard exists so a
    broken environment produces one clear error instead of a bare
    ``ImportError`` deep inside the sweep.
    """
    if _np is None:
        raise RuntimeError(
            "the vectorized sweep kernel requires numpy, which is a declared "
            "install requirement of this package (pip install numpy); without "
            "it every sweep falls back to the scalar loop automatically"
        )
    return _np


class _Unsupported(Exception):
    """Raised during compilation when a value form has no vectorized kernel."""


class CompiledSet:
    """A constraint set compiled to a flat interval-arithmetic tape.

    The tape is a list of register-machine instructions over ``(k,)`` float
    endpoint vectors; common sub-expressions across all constraints of the
    set share registers (symbolic execution reuses value nodes heavily, so
    the tape is a DAG traversal, not a tree one).  Compilation is
    independent of the boxes: one compiled set classifies every chunk of
    every sweep of that set.
    """

    __slots__ = ("tape", "register_count", "outputs", "uses_argument")

    def __init__(self, tape, register_count, outputs, uses_argument):
        self.tape = tape
        self.register_count = register_count
        self.outputs = outputs
        """One ``(register, Relation)`` per constraint, in set order."""
        self.uses_argument = uses_argument

    def classify(
        self,
        los,
        his,
        inner_los,
        inner_his,
        argument_pairs: Optional[Tuple[Tuple[float, float], Tuple[float, float]]] = None,
    ) -> List:
        """Verdict vectors for every constraint over a chunk of boxes.

        ``los``/``his`` are ``(k, d)`` arrays of outward-rounded box
        endpoints, ``inner_los``/``inner_his`` their inward-rounded twins
        (:func:`boxes_to_arrays`).  Returns one ``(k,)`` uint8 vector per
        constraint with values :data:`KERNEL_TRUE` / :data:`KERNEL_FALSE` /
        :data:`KERNEL_UNDECIDED` / :data:`KERNEL_UNDECIDED_SURE`;
        NaN-poisoned lanes are always plain-undecided, so the caller
        re-checks them exactly.

        The tape maintains *two* interval banks per register:

        * the **outer** bank encloses the scalar interval from outside
          (outward rounding), so its ``True``/``False`` verdicts imply the
          scalar ones;
        * the **inner** bank is certified to lie *inside* the scalar
          interval (inward rounding; ``fl`` is monotone, so evaluating the
          same float ops on inner operands plus one ``nextafter`` step
          inward stays inside whatever the scalar path computes, whether it
          computed in exact ``Fraction`` or in rounded float arithmetic).
          When the inner interval already straddles the constraint's
          decision boundary, ``box_status`` provably returns ``None`` and
          the lane is classified :data:`KERNEL_UNDECIDED_SURE`.

        Inner endpoints may legitimately invert (``lo > hi``) when the
        scalar interval is only ulps wide; pointwise-monotone ops tolerate
        that, but ``mul``/``abs`` -- whose inner soundness argument needs
        both endpoints inside the scalar interval -- invalidate inverted
        lanes for certification (outer verdicts are unaffected).  Lanes the
        outer bank poisoned (``log`` domain, ``exp`` overflow) are never
        certified, so the scalar re-check still raises where the scalar
        sweep would.
        """
        np = _np
        k, dimension = los.shape
        count = self.register_count
        reg_lo: List = [None] * count
        reg_hi: List = [None] * count
        inn_lo: List = [None] * count
        inn_hi: List = [None] * count
        invalid = np.zeros(k, dtype=bool)
        with np.errstate(all="ignore"):
            for instruction in self.tape:
                op = instruction[0]
                if op == "box":
                    _, dst, index = instruction
                    if index < dimension:
                        reg_lo[dst] = los[:, index]
                        reg_hi[dst] = his[:, index]
                        inn_lo[dst] = inner_los[:, index]
                        inn_hi[dst] = inner_his[:, index]
                    else:
                        # An unconstrained sample variable reads as the unit
                        # interval, mirroring ``SampleVar.interval_evaluate``.
                        reg_lo[dst] = inn_lo[dst] = np.zeros(k)
                        reg_hi[dst] = inn_hi[dst] = np.ones(k)
                elif op == "const":
                    _, dst, lo, hi, ilo, ihi = instruction
                    reg_lo[dst] = np.full(k, lo)
                    reg_hi[dst] = np.full(k, hi)
                    inn_lo[dst] = np.full(k, ilo)
                    inn_hi[dst] = np.full(k, ihi)
                elif op == "arg":
                    (_, dst) = instruction
                    (lo, hi), (ilo, ihi) = argument_pairs
                    reg_lo[dst] = np.full(k, lo)
                    reg_hi[dst] = np.full(k, hi)
                    inn_lo[dst] = np.full(k, ilo)
                    inn_hi[dst] = np.full(k, ihi)
                elif op == "add":
                    _, dst, a, b = instruction
                    reg_lo[dst] = np.nextafter(reg_lo[a] + reg_lo[b], -np.inf)
                    reg_hi[dst] = np.nextafter(reg_hi[a] + reg_hi[b], np.inf)
                    inn_lo[dst] = np.nextafter(inn_lo[a] + inn_lo[b], np.inf)
                    inn_hi[dst] = np.nextafter(inn_hi[a] + inn_hi[b], -np.inf)
                elif op == "sub":
                    _, dst, a, b = instruction
                    reg_lo[dst] = np.nextafter(reg_lo[a] - reg_hi[b], -np.inf)
                    reg_hi[dst] = np.nextafter(reg_hi[a] - reg_lo[b], np.inf)
                    inn_lo[dst] = np.nextafter(inn_lo[a] - inn_hi[b], np.inf)
                    inn_hi[dst] = np.nextafter(inn_hi[a] - inn_lo[b], -np.inf)
                elif op == "mul":
                    _, dst, a, b = instruction
                    p1 = reg_lo[a] * reg_lo[b]
                    p2 = reg_lo[a] * reg_hi[b]
                    p3 = reg_hi[a] * reg_lo[b]
                    p4 = reg_hi[a] * reg_hi[b]
                    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
                    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
                    reg_lo[dst] = np.nextafter(lo, -np.inf)
                    reg_hi[dst] = np.nextafter(hi, np.inf)
                    # The inner product argument needs both operand intervals
                    # inside their scalar intervals *as intervals*: inverted
                    # lanes lose certification (never outer verdicts).
                    invalid |= (inn_lo[a] > inn_hi[a]) | (inn_lo[b] > inn_hi[b])
                    p1 = inn_lo[a] * inn_lo[b]
                    p2 = inn_lo[a] * inn_hi[b]
                    p3 = inn_hi[a] * inn_lo[b]
                    p4 = inn_hi[a] * inn_hi[b]
                    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
                    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
                    inn_lo[dst] = np.nextafter(lo, np.inf)
                    inn_hi[dst] = np.nextafter(hi, -np.inf)
                elif op == "neg":
                    _, dst, a = instruction
                    reg_lo[dst] = -reg_hi[a]
                    reg_hi[dst] = -reg_lo[a]
                    inn_lo[dst] = -inn_hi[a]
                    inn_hi[dst] = -inn_lo[a]
                elif op == "abs":
                    _, dst, a = instruction
                    lo_a, hi_a = reg_lo[a], reg_hi[a]
                    lo = np.where(
                        lo_a >= 0.0, lo_a, np.where(hi_a <= 0.0, -hi_a, 0.0)
                    )
                    # NaN lanes: ``maximum`` propagates the NaN into ``hi``,
                    # and the poison mask below keeps the lane undecided.
                    reg_lo[dst] = lo
                    reg_hi[dst] = np.maximum(-lo_a, hi_a)
                    invalid |= inn_lo[a] > inn_hi[a]
                    lo_a, hi_a = inn_lo[a], inn_hi[a]
                    inn_lo[dst] = np.where(
                        lo_a >= 0.0, lo_a, np.where(hi_a <= 0.0, -hi_a, 0.0)
                    )
                    inn_hi[dst] = np.maximum(-lo_a, hi_a)
                elif op == "min":
                    _, dst, a, b = instruction
                    reg_lo[dst] = np.minimum(reg_lo[a], reg_lo[b])
                    reg_hi[dst] = np.minimum(reg_hi[a], reg_hi[b])
                    inn_lo[dst] = np.minimum(inn_lo[a], inn_lo[b])
                    inn_hi[dst] = np.minimum(inn_hi[a], inn_hi[b])
                elif op == "max":
                    _, dst, a, b = instruction
                    reg_lo[dst] = np.maximum(reg_lo[a], reg_lo[b])
                    reg_hi[dst] = np.maximum(reg_hi[a], reg_hi[b])
                    inn_lo[dst] = np.maximum(inn_lo[a], inn_lo[b])
                    inn_hi[dst] = np.maximum(inn_hi[a], inn_hi[b])
                elif op == "exp":
                    _, dst, a = instruction
                    lo = np.exp(reg_lo[a])
                    hi = np.exp(reg_hi[a])
                    lo, hi = _pad_outward(np, lo, hi)
                    lo = np.maximum(lo, 0.0)
                    # math.exp raises OverflowError where numpy saturates to
                    # inf: poison those lanes so the scalar re-check raises
                    # at the identical (box, constraint).
                    overflow = reg_hi[a] > _EXP_OVERFLOW
                    if overflow.any():
                        lo = np.where(overflow, np.nan, lo)
                        hi = np.where(overflow, np.nan, hi)
                    reg_lo[dst] = lo
                    reg_hi[dst] = hi
                    # Inner transcendentals carry no pad at all: the scalar
                    # extension's outward pad dwarfs any numpy-vs-math ulp
                    # disagreement, so the unpadded value is strictly inside.
                    inn_lo[dst] = np.maximum(
                        np.nextafter(np.exp(inn_lo[a]), np.inf), 0.0
                    )
                    inn_hi[dst] = np.nextafter(np.exp(inn_hi[a]), -np.inf)
                elif op == "sig":
                    _, dst, a = instruction
                    reg_lo[dst] = np.maximum(
                        _pad_down(np, _sigmoid(np, reg_lo[a])), 0.0
                    )
                    reg_hi[dst] = np.minimum(
                        _pad_up(np, _sigmoid(np, reg_hi[a])), 1.0
                    )
                    inn_lo[dst] = np.maximum(
                        np.nextafter(_sigmoid(np, inn_lo[a]), np.inf), 0.0
                    )
                    inn_hi[dst] = np.minimum(
                        np.nextafter(_sigmoid(np, inn_hi[a]), -np.inf), 1.0
                    )
                elif op == "log":
                    _, dst, a = instruction
                    lo_a = reg_lo[a]
                    lo = _pad_down(np, np.log(lo_a))
                    hi = _pad_up(np, np.log(reg_hi[a]))
                    # The scalar extension raises unless the lower bound is
                    # strictly positive; poisoned lanes fall back to it (and
                    # are never certified, so the re-check raises).
                    bad = ~(lo_a > 0.0)
                    if bad.any():
                        lo = np.where(bad, np.nan, lo)
                        hi = np.where(bad, np.nan, hi)
                    reg_lo[dst] = lo
                    reg_hi[dst] = hi
                    inn_lo[dst] = np.nextafter(np.log(inn_lo[a]), np.inf)
                    inn_hi[dst] = np.nextafter(np.log(inn_hi[a]), -np.inf)
                else:  # pragma: no cover - compilation only emits the above
                    raise AssertionError(f"unknown kernel opcode {op!r}")

            verdicts = []
            for register, relation in self.outputs:
                lo, hi = reg_lo[register], reg_hi[register]
                ilo, ihi = inn_lo[register], inn_hi[register]
                # ``sure``: the inner interval certifies the *scalar* verdict
                # is ``None``.  NaN inner endpoints fail the comparisons and
                # inverted inner outputs cannot satisfy lo-side and hi-side
                # at once, so both degrade to a plain undecided lane.
                if relation is Relation.LE:
                    true_mask, false_mask = hi <= 0.0, lo > 0.0
                    sure_mask = (ilo <= 0.0) & (ihi > 0.0)
                elif relation is Relation.GT:
                    true_mask, false_mask = lo > 0.0, hi <= 0.0
                    sure_mask = (ilo <= 0.0) & (ihi > 0.0)
                elif relation is Relation.GE:
                    true_mask, false_mask = lo >= 0.0, hi < 0.0
                    sure_mask = (ilo < 0.0) & (ihi >= 0.0)
                else:  # Relation.LT
                    true_mask, false_mask = hi < 0.0, lo >= 0.0
                    sure_mask = (ilo < 0.0) & (ihi >= 0.0)
                sound = ~(np.isnan(lo) | np.isnan(hi))
                verdict = np.zeros(k, dtype=np.uint8)
                verdict[sure_mask & sound & ~invalid] = KERNEL_UNDECIDED_SURE
                verdict[true_mask & sound] = KERNEL_TRUE
                verdict[false_mask & sound] = KERNEL_FALSE
                verdicts.append(verdict)
        return verdicts


def _pad_outward(np, lo, hi):
    return _pad_down(np, lo), _pad_up(np, hi)


def _pad_down(np, lo):
    return np.nextafter(lo - (np.abs(lo) * _KERNEL_PAD + _KERNEL_PAD), -np.inf)


def _pad_up(np, hi):
    return np.nextafter(hi + (np.abs(hi) * _KERNEL_PAD + _KERNEL_PAD), np.inf)


def _sigmoid(np, x):
    """The numerically stable two-branch logistic, vectorized.

    Mirrors ``repro.spcf.primitives._sig``: neither branch's ``exp`` can
    overflow on the lanes it is selected for, and NaN inputs propagate.
    """
    negative = np.minimum(x, 0.0)
    positive = np.maximum(x, 0.0)
    exp_neg = np.exp(negative)
    return np.where(x >= 0.0, 1.0 / (1.0 + np.exp(-positive)), exp_neg / (1.0 + exp_neg))


_SUPPORTED_PRIMS = {
    "add": 2,
    "sub": 2,
    "mul": 2,
    "neg": 1,
    "abs": 1,
    "min": 2,
    "max": 2,
    "exp": 1,
    "log": 1,
    "sig": 1,
}


def compile_constraint_set(constraints: ConstraintSet) -> Optional[CompiledSet]:
    """Compile a constraint set to a :class:`CompiledSet`, or ``None``.

    ``None`` means *unsupported* -- a primitive outside the vectorized
    table, a ``star`` unknown, or a missing numpy -- and the sweep falls
    back to the scalar path for the whole set.  Compilation walks each
    value tree iteratively (symbolic execution builds values thousands of
    nodes deep) and memoizes on node identity, so shared sub-expressions
    within and across constraints evaluate once per chunk.
    """
    if _np is None:
        return None
    tape: List[tuple] = []
    registers: dict = {}
    uses_argument = False

    def compile_value(root: SymVal) -> int:
        nonlocal uses_argument
        work: List[Tuple[str, SymVal]] = [("visit", root)]
        while work:
            tag, value = work.pop()
            if id(value) in registers:
                continue
            if tag == "emit":
                if isinstance(value, PrimVal):
                    sources = tuple(registers[id(arg)] for arg in value.args)
                    dst = len(tape)
                    registers[id(value)] = dst
                    tape.append((value.op, dst) + sources)
                continue
            if isinstance(value, PrimVal):
                arity = _SUPPORTED_PRIMS.get(value.op)
                if arity is None or arity != len(value.args):
                    raise _Unsupported(value.op)
                work.append(("emit", value))
                for arg in reversed(value.args):
                    work.append(("visit", arg))
            elif isinstance(value, SampleVar):
                dst = len(tape)
                registers[id(value)] = dst
                tape.append(("box", dst, value.index))
            elif isinstance(value, ConstVal):
                dst = len(tape)
                registers[id(value)] = dst
                below, above = float_pair(value.value)
                # Outer endpoints round outward, inner ones inward (for an
                # exactly representable constant all four coincide).
                tape.append(("const", dst, below, above, above, below))
            elif isinstance(value, ArgVal):
                uses_argument = True
                dst = len(tape)
                registers[id(value)] = dst
                tape.append(("arg", dst))
            else:  # StarVal and any future value form
                raise _Unsupported(type(value).__name__)
        return registers[id(root)]

    outputs = []
    try:
        for constraint in constraints.constraints:
            outputs.append((compile_value(constraint.value), constraint.relation))
    except _Unsupported:
        return None
    return CompiledSet(tuple(tape), len(tape), tuple(outputs), uses_argument)


def rows_to_arrays(low_rows, high_rows):
    """Array banks from precomputed exact-float endpoint rows.

    The sweep's kernel loop maintains one ``(lo_row, hi_row)`` pair of float
    lists per heap entry in the pure-bisection regime, deriving children's
    rows from the parent's by float arithmetic (exact for dyadic endpoints
    up to depth 52, see :func:`boxes_to_arrays`).  Outer and inner banks
    coincide, so the chunk arrays are two ``np.array`` calls with no
    per-endpoint ``float(Fraction)`` conversion at all.
    """
    los = _np.array(low_rows)
    his = _np.array(high_rows)
    return los, his, los, his


def boxes_to_arrays(boxes, exact: bool = False):
    """Outward- and inward-rounded ``(k, d)`` endpoint arrays for a chunk.

    Returns ``(los, his, inner_los, inner_his)``.  The outer pair rounds
    each exact box outward (never inward), keeping every float box an
    enclosure of the exact one -- the kernel's verdict soundness rests on
    that; the inner pair rounds inward for the certified-undecided test.

    ``exact=True`` asserts that every endpoint converts to float exactly --
    the sweep passes it in the pure-bisection regime with ``max_depth <=
    52``, where every endpoint is a dyadic rational ``k / 2**e`` with
    ``e <= 52``, so ``float()`` is exact, outer and inner coincide, and the
    per-endpoint rounding analysis of
    :func:`repro.intervals.interval.float_pair` can be skipped wholesale.
    """
    np = _np
    if exact:
        los = np.array(
            [[float(interval.lo) for interval in box.intervals] for box in boxes]
        )
        his = np.array(
            [[float(interval.hi) for interval in box.intervals] for box in boxes]
        )
        return los, his, los, his
    k = len(boxes)
    dimension = boxes[0].dimension
    los = np.empty((k, dimension))
    his = np.empty((k, dimension))
    inner_los = np.empty((k, dimension))
    inner_his = np.empty((k, dimension))
    for row, box in enumerate(boxes):
        for column, interval in enumerate(box.intervals):
            below, above = float_pair(interval.lo)
            los[row, column] = below
            inner_los[row, column] = above
            below, above = float_pair(interval.hi)
            his[row, column] = above
            inner_his[row, column] = below
    return los, his, inner_los, inner_his
