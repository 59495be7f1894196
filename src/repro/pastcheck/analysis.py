"""Counting-based PAST verification, refutation, and classification.

The analyses here sit on top of the Sec. 5/6 machinery:

* :func:`verify_past` strengthens the AST verifier: when the worst-case
  counting distribution is a *sub-critical* offspring distribution (total
  mass 1, strictly less than one expected call), the recursion tree of every
  run is a branching process with finite expected total progeny
  ``1 / (1 - m)``; since one evaluation of the body performs boundedly many
  reduction steps (the execution tree is finite), the expected runtime is
  finite and the program is PAST on every argument.
* :func:`refute_past` uses the exact counting pattern: an argument-independent
  *critical or super-critical* offspring distribution (mean at least one call,
  not the call-free Dirac) has infinite expected total progeny, so the
  expected runtime is infinite and the program is not PAST -- even when, at
  criticality, it is AST (Ex. 1.1: program (2) at ``p = 1/2``).
* :func:`eterm_lower_bounds` reports the certified lower bounds on ``Eterm``
  produced by the interval-trace semantics (Thm. 3.4) at increasing depths;
  a refuted program's bounds grow without saturating.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

from repro.astcheck.exectree import ExecutionTree
from repro.astcheck.verifier import ASTVerificationResult, verify_ast
from repro.counting.pattern import CountingPatternResult, counting_pattern_exact
from repro.counting.progress import guards_independent_of_recursion
from repro.geometry.engine import MeasureEngine
from repro.geometry.measure import MeasureOptions
from repro.lowerbound.engine import LowerBoundEngine
from repro.randomwalk.step_distribution import CountingDistribution
from repro.spcf.primitives import PrimitiveRegistry
from repro.spcf.syntax import Fix, Term
from repro.spcf.contexts import Strategy

Number = Union[Fraction, float]

__all__ = [
    "EtermLowerBoundPoint",
    "PASTRefutationResult",
    "PASTVerificationResult",
    "TerminationClass",
    "TerminationClassification",
    "classify_termination",
    "eterm_lower_bounds",
    "expected_total_calls",
    "refute_past",
    "verify_past",
]

_FLOAT_TOLERANCE = 1e-9


def expected_total_calls(distribution: CountingDistribution) -> Union[Fraction, float]:
    """The expected total number of calls of the recursion tree (root included).

    For an offspring distribution with mean ``m`` the expected total progeny
    of the branching process is ``1 / (1 - m)`` when ``m < 1`` and infinite
    otherwise.
    """
    mean = distribution.expected_calls
    if mean >= 1:
        return float("inf")
    if isinstance(mean, Fraction):
        return Fraction(1) / (1 - mean)
    return 1.0 / (1.0 - float(mean))


def _as_fix(program: Union[Fix, object]) -> Fix:
    fix = program if isinstance(program, Fix) else getattr(program, "fix", None)
    if not isinstance(fix, Fix):
        raise TypeError("expected a Fix term or a Program with a .fix attribute")
    return fix


# ---------------------------------------------------------------------------
# Verification (sub-critical worst case implies PAST).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PASTVerificationResult:
    """Outcome of the counting-based PAST verification."""

    verified: bool
    ast_result: ASTVerificationResult
    papprox: Optional[CountingDistribution]
    expected_calls_per_body: Optional[Number]
    expected_total_calls: Optional[Union[Fraction, float]]
    body_tree_depth: Optional[int]
    reasons: Tuple[str, ...]

    def summary(self) -> str:
        if self.verified:
            return (
                "PAST verified; expected calls per body = "
                f"{self.expected_calls_per_body}, expected total calls = "
                f"{self.expected_total_calls}"
            )
        return "PAST not verified: " + "; ".join(self.reasons)


def verify_past(
    program: Union[Fix, object],
    max_steps: int = 2_000,
    measure_options: Optional[MeasureOptions] = None,
    registry: Optional[PrimitiveRegistry] = None,
    engine: Optional[MeasureEngine] = None,
) -> PASTVerificationResult:
    """Verify PAST (on every argument) via a sub-critical worst-case counting
    distribution.

    Soundness: by Thm. 6.2 ``Papprox`` is below every member of the counting
    pattern in the cumulative order, so the mean number of calls of every
    member is at most the mean of ``Papprox`` plus the missing mass times the
    rank; requiring total mass 1 and mean strictly below 1 therefore makes
    every recursion tree a sub-critical branching process.

    ``engine`` is the shared memoizing measure engine; when the AST verifier
    already ran with the same engine, the embedded ``verify_ast`` call here
    answers every measure from the cache.
    """
    fix = _as_fix(program)
    engine = engine or MeasureEngine(measure_options, registry)
    ast_result = verify_ast(fix, max_steps=max_steps, engine=engine)
    reasons = list(ast_result.reasons)
    if not ast_result.verified or ast_result.papprox is None:
        reasons.insert(0, "AST verification did not succeed")
        return PASTVerificationResult(
            verified=False,
            ast_result=ast_result,
            papprox=ast_result.papprox,
            expected_calls_per_body=None,
            expected_total_calls=None,
            body_tree_depth=_tree_depth(ast_result.tree),
            reasons=tuple(reasons),
        )
    papprox = ast_result.papprox
    total = papprox.total_mass
    mean = papprox.expected_calls
    exact = ast_result.exact
    mass_ok = total == 1 if exact else abs(float(total) - 1.0) <= _FLOAT_TOLERANCE
    subcritical = mean < 1 if exact else float(mean) < 1.0 - _FLOAT_TOLERANCE
    if not mass_ok:
        reasons.append(
            f"the worst-case counting distribution has mass {float(total):.6f} < 1; "
            "the sub-criticality argument needs the full mass"
        )
    if not subcritical:
        reasons.append(
            f"the worst-case expected number of calls is {float(mean):.6f} >= 1 "
            "(critical or super-critical recursion; expected progeny may be infinite)"
        )
    verified = mass_ok and subcritical
    return PASTVerificationResult(
        verified=verified,
        ast_result=ast_result,
        papprox=papprox,
        expected_calls_per_body=mean,
        expected_total_calls=expected_total_calls(papprox) if verified else None,
        body_tree_depth=_tree_depth(ast_result.tree),
        reasons=tuple(reasons),
    )


def _tree_depth(tree: Optional[ExecutionTree]) -> Optional[int]:
    if tree is None:
        return None
    # A coarse per-call work bound: the number of nodes of the body's
    # execution tree (every path of one body evaluation visits fewer nodes).
    return tree.node_count


# ---------------------------------------------------------------------------
# Refutation (critical / super-critical exact pattern implies not PAST).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PASTRefutationResult:
    """Outcome of the counting-based PAST refutation."""

    refuted: bool
    patterns: Tuple[CountingPatternResult, ...]
    arguments: Tuple[Union[Fraction, float, int], ...]
    argument_independent: bool
    expected_calls_per_body: Optional[Number]
    reasons: Tuple[str, ...]

    def summary(self) -> str:
        if self.refuted:
            return (
                "not PAST: the counting pattern makes "
                f"{float(self.expected_calls_per_body):.4f} calls in expectation"
            )
        return "PAST not refuted: " + "; ".join(self.reasons)


def refute_past(
    program: Union[Fix, object],
    arguments: Sequence[Union[Fraction, float, int]] = (0, 1, 2, 5, 10),
    max_steps: int = 2_000,
    registry: Optional[PrimitiveRegistry] = None,
    engine: Optional[MeasureEngine] = None,
) -> PASTRefutationResult:
    """Refute PAST via a critical or super-critical exact counting pattern.

    The refutation is sound only when the counting pattern does not depend on
    the actual argument (every call then spawns i.i.d. offspring); the check
    compares the exact patterns at the supplied sample arguments and refuses
    to conclude anything when they differ or when any run got stuck.
    """
    fix = _as_fix(program)
    engine = engine or MeasureEngine(registry=registry)
    registry = engine.registry
    reasons = []
    progress = guards_independent_of_recursion(fix)
    if not progress.ok:
        return PASTRefutationResult(
            refuted=False,
            patterns=(),
            arguments=tuple(arguments),
            argument_independent=False,
            expected_calls_per_body=None,
            reasons=(f"progress check failed: {progress.reason}",),
        )
    patterns = tuple(
        counting_pattern_exact(
            fix, argument, max_steps=max_steps, registry=registry, engine=engine
        )
        for argument in arguments
    )
    if not patterns:
        return PASTRefutationResult(
            refuted=False,
            patterns=(),
            arguments=(),
            argument_independent=False,
            expected_calls_per_body=None,
            reasons=("no sample arguments supplied",),
        )
    if any(not pattern.complete or pattern.stuck_paths for pattern in patterns):
        reasons.append("some run of the body was not fully analysed")
    distributions = [pattern.distribution.as_dict() for pattern in patterns]
    argument_independent = all(entry == distributions[0] for entry in distributions)
    if not argument_independent:
        reasons.append(
            "the counting pattern depends on the actual argument; the i.i.d. "
            "branching-process argument does not apply"
        )
    reference = patterns[0].distribution
    total = reference.total_mass
    mean = reference.expected_calls
    if total != 1:
        reasons.append(
            f"the counting pattern has total mass {float(total):.6f} < 1"
        )
    if reference.support() == (0,):
        reasons.append("the body never recurses; the program is trivially PAST")
    critical_or_super = mean >= 1
    if not critical_or_super:
        reasons.append(
            f"the expected number of calls is {float(mean):.6f} < 1 (sub-critical)"
        )
    refuted = (
        argument_independent
        and not reasons
        and critical_or_super
    )
    return PASTRefutationResult(
        refuted=refuted,
        patterns=patterns,
        arguments=tuple(arguments),
        argument_independent=argument_independent,
        expected_calls_per_body=mean,
        reasons=tuple(reasons),
    )


# ---------------------------------------------------------------------------
# Eterm lower bounds across depths (Thm. 3.4).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EtermLowerBoundPoint:
    """One certified ``(Pterm, Eterm)`` lower-bound pair at a given depth."""

    depth: int
    probability: Number
    expected_steps: Number


def eterm_lower_bounds(
    term: Term,
    depths: Sequence[int] = (20, 40, 60),
    strategy: Strategy = Strategy.CBN,
    registry: Optional[PrimitiveRegistry] = None,
    measure_options: Optional[MeasureOptions] = None,
    measure_engine: Optional[MeasureEngine] = None,
) -> Tuple[EtermLowerBoundPoint, ...]:
    """Certified lower bounds on ``Pterm`` and ``Eterm`` at increasing depths.

    Each point is sound by Thm. 3.4; for programs that are AST but not PAST
    the expected-steps column keeps growing with the depth instead of
    saturating.  A deeper exploration revisits every shallower path, so with
    the (default) shared memoizing measure engine each path constraint set is
    measured once across all depths.
    """
    engine = LowerBoundEngine(
        strategy=strategy,
        registry=registry,
        measure_options=measure_options,
        measure_engine=measure_engine,
    )
    points = []
    for depth in depths:
        result = engine.lower_bound(term, max_steps=depth)
        points.append(
            EtermLowerBoundPoint(
                depth=depth,
                probability=result.probability,
                expected_steps=result.expected_steps,
            )
        )
    return tuple(points)


# ---------------------------------------------------------------------------
# Classification.
# ---------------------------------------------------------------------------


class TerminationClass(enum.Enum):
    """The overall verdict of the combined AST/PAST analyses."""

    PAST_VERIFIED = "PAST (and hence AST) verified"
    AST_NOT_PAST = "AST verified; not PAST"
    AST_PAST_UNKNOWN = "AST verified; PAST unknown"
    UNKNOWN = "not verified"


@dataclass(frozen=True)
class TerminationClassification:
    """The combined result of the AST verifier and the PAST analyses."""

    verdict: TerminationClass
    ast: ASTVerificationResult
    past: PASTVerificationResult
    refutation: PASTRefutationResult

    def summary(self) -> str:
        return self.verdict.value


def classify_termination(
    program: Union[Fix, object],
    arguments: Sequence[Union[Fraction, float, int]] = (0, 1, 2, 5, 10),
    max_steps: int = 2_000,
    measure_options: Optional[MeasureOptions] = None,
    registry: Optional[PrimitiveRegistry] = None,
    engine: Optional[MeasureEngine] = None,
) -> TerminationClassification:
    """Combine the Sec. 6 AST verifier with the PAST analyses of this module.

    One :class:`MeasureEngine` (created here unless supplied) backs both the
    verification and the refutation, so constraint sets shared between the
    execution tree's paths and the per-argument counting patterns are
    measured a single time.
    """
    engine = engine or MeasureEngine(measure_options, registry)
    past = verify_past(program, max_steps=max_steps, engine=engine)
    refutation = refute_past(
        program, arguments=arguments, max_steps=max_steps, engine=engine
    )
    ast = past.ast_result
    if past.verified:
        verdict = TerminationClass.PAST_VERIFIED
    elif ast.verified and refutation.refuted:
        verdict = TerminationClass.AST_NOT_PAST
    elif ast.verified:
        verdict = TerminationClass.AST_PAST_UNKNOWN
    else:
        verdict = TerminationClass.UNKNOWN
    return TerminationClassification(
        verdict=verdict, ast=ast, past=past, refutation=refutation
    )
