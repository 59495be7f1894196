"""Type inference oracle: set types from the interval-based semantics.

Thm. 4.1 characterises ``Pterm`` (and ``Eterm``) as suprema over all typing
derivations of ``omega`` (and ``E``).  This module realises the *lower-bound
producing* direction operationally, which is how the paper's prototype uses
the system (Sec. 4: "by incrementally searching for typing derivations, we can
compute arbitrarily tight bounds"): terminating symbolic paths are translated
into families of pairwise-compatible terminating interval traces (via the
sweep's accepted boxes), each of which is one triple ``(alpha, p, tau)`` of a
set type for the whole program.  The weight of the inferred set type is then a
certified lower bound on ``Pterm``, converging to it as the exploration depth
and subdivision depth grow (Thm. 3.8 / Thm. 4.1), and ``E`` of the set type
lower-bounds ``Eterm``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Union

from repro.geometry.sweep import sweep_accepted_boxes
from repro.intervals.interval import Interval
from repro.intervals.trace import IntervalTrace
from repro.spcf.primitives import PrimitiveRegistry, default_registry
from repro.spcf.syntax import Numeral, Term, free_variables
from repro.symbolic.constraints import box_to_mapping
from repro.spcf.contexts import Strategy
from repro.symbolic.execute import SymbolicExplorer
from repro.symbolic.values import SymNumeral
from repro.typesystem.settypes import (
    ArrowElement,
    IntervalElement,
    SetType,
    TypedTriple,
    expected_steps,
    weight,
)

Number = Union[Fraction, float]


@dataclass(frozen=True)
class InferenceResult:
    """An inferred set type with its quantitative summaries."""

    set_type: SetType
    weight: Number
    expected_steps: Number
    paths_used: int
    exhaustive: bool


def infer_set_type(
    term: Term,
    max_steps: int = 100,
    sweep_depth: int = 10,
    max_paths: int = 100_000,
    strategy: Strategy = Strategy.CBN,
    registry: Optional[PrimitiveRegistry] = None,
) -> InferenceResult:
    """Infer a set type for the closed term ``term`` up to the given depths.

    The triples of the returned set type carry pairwise-compatible terminating
    interval traces; ``weight``/``expected_steps`` of the result are certified
    lower bounds on ``Pterm``/``Eterm`` (Thm. 4.1 direction "<=").
    """
    if free_variables(term):
        raise ValueError("set types are inferred for closed terms only")
    registry = registry or default_registry()
    explorer = SymbolicExplorer(strategy, registry)
    exploration = explorer.explore(term, max_steps_per_path=max_steps, max_paths=max_paths)
    triples: List[TypedTriple] = []
    for path in exploration.terminated:
        boxes = sweep_accepted_boxes(
            path.constraints, path.num_variables, max_depth=sweep_depth, registry=registry
        )
        element = _element_for_result(path.result, registry)
        for box in boxes:
            trace = IntervalTrace(box.intervals)
            refined = _refine_element(element, path.result, box, registry)
            triples.append(TypedTriple(refined, trace, path.steps))
    set_type = SetType(triples)
    return InferenceResult(
        set_type=set_type,
        weight=weight(set_type),
        expected_steps=expected_steps(set_type),
        paths_used=len(exploration.terminated),
        exhaustive=exploration.complete,
    )


def _element_for_result(result: Term, registry: PrimitiveRegistry):
    if isinstance(result, Numeral):
        return IntervalElement(Interval.point(result.value))
    if isinstance(result, SymNumeral) and result.value.is_concrete():
        value = result.value.evaluate({}, registry)
        return IntervalElement(Interval.point(value))
    if isinstance(result, SymNumeral):
        return None  # refined per box below
    # Functional results are summarised by an uninformative arrow element.
    return ArrowElement((), SetType(()))


def _refine_element(element, result: Term, box, registry: PrimitiveRegistry):
    if element is not None:
        return element
    assert isinstance(result, SymNumeral)
    bounds = result.value.interval_evaluate(box_to_mapping(box), registry)
    return IntervalElement(bounds)
