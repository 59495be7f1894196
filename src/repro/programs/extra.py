"""Additional example programs beyond the Table 1 / Table 2 benchmark set.

These programs exercise corners of the system that the paper discusses in the
text rather than in the evaluation tables: the two-sample guard of Ex. 3.5
(whose terminating trace set is not a countable union of boxes), the
single-conditional term of Ex. B.4, von Neumann's fair coin (an affine
recursion whose termination probability is 1 for every bias), a random walk
whose step length is a continuous first-class sample, a program that uses
``score`` and can fail, a nested recursion that the counting-based verifier
must refuse, and three retry loops whose guards are genuinely *non-affine in
the sample* (``sig(s)``, ``s*s``, ``s1 + sig(s2)``) -- the workload of the
block-decomposed subdivision sweep, since no polytope oracle applies to
their path constraint sets.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Union

from repro.distributions.transforms import exponential
from repro.programs.library import Program
from repro.spcf.sugar import add, choice, let, sub
from repro.spcf.syntax import App, Fix, If, Numeral, Prim, Sample, Score, Var
from repro.spcf.contexts import Strategy

Number = Union[Fraction, float, int]

__all__ = [
    "anytime_programs",
    "conditional_single_sample",
    "deep_schedule_programs",
    "exponential_step_walk",
    "extra_programs",
    "nested_recursion",
    "nonaffine_programs",
    "score_gated_printer",
    "sigmoid_branching",
    "sigmoid_tri_branching",
    "sigmoid_retry",
    "sigmoid_sum_retry",
    "square_retry",
    "two_sample_sum",
    "von_neumann_coin",
]


def two_sample_sum() -> Program:
    """Ex. 3.5: retry while the sum of two fresh samples exceeds 1.

    ``(mu phi x. if sample + sample - 1 then x else phi x) 0``: the set of
    traces that terminate without a recursive call is the triangle
    ``{r1 r2 | r1 + r2 <= 1}``, which no countable union of interval traces
    covers exactly -- yet the program is AST and the interval semantics still
    certifies bounds arbitrarily close to 1 (completeness, Thm. 3.8).
    """
    guard = sub(add(Sample(), Sample()), 1)
    body = If(guard, Var("x"), App(Var("phi"), Var("x")))
    fix = Fix("phi", "x", body)
    return Program(
        name="two-sample-sum",
        fix=fix,
        applied=App(fix, Numeral(0)),
        description="retry until two fresh samples sum to at most 1 (Ex. 3.5)",
        known_probability=1.0,
    )


def conditional_single_sample() -> Program:
    """Ex. B.4: a single conditional on one sample, ``if(sample - 1/2, 0, 1)``.

    Terminates on every trace of length one; the interval trace ``[0, 1]`` is
    *not* terminating for the embedded interval term (the guard interval
    straddles 0), which is why completeness needs the branching partition.
    """
    term = If(sub(Sample(), Fraction(1, 2)), Numeral(0), Numeral(1))
    fix = Fix("phi", "x", term)
    return Program(
        name="single-conditional",
        fix=fix,
        applied=term,
        description="one conditional on one sample (Ex. B.4)",
        known_probability=1.0,
    )


def von_neumann_coin(p: Number = Fraction(1, 3)) -> Program:
    """Von Neumann's fair coin from a ``p``-biased coin.

    Each round draws two ``p``-biased bits; if they differ the first decides
    the output, otherwise the round is repeated.  The recursion is affine
    (one call site per path), so the zero-one law applies: the program is AST
    for every ``p`` strictly between 0 and 1, and the result is a fair bit.
    """
    if not 0 < p < 1:
        raise ValueError("the bias must lie strictly between 0 and 1")
    retry = App(Var("phi"), Var("x"))
    # First draw heads (probability p): output 1 if the second draw is tails.
    first_heads = If(sub(Sample(), p), retry, Numeral(1))
    # First draw tails: output 0 if the second draw is heads.
    first_tails = If(sub(Sample(), p), Numeral(0), retry)
    body = If(sub(Sample(), p), first_heads, first_tails)
    fix = Fix("phi", "x", body)
    return Program(
        name=f"von-neumann({p})",
        fix=fix,
        applied=App(fix, Numeral(0)),
        description="von Neumann fair-coin extraction from a biased coin",
        known_probability=1.0,
    )


def exponential_step_walk(rate: Number = 1, start: Number = 3) -> Program:
    """A walk towards 0 whose step lengths are exponential first-class samples.

    ``mu phi x. if x <= 0 then x else phi (x - Exp(rate))``: every step
    subtracts a fresh exponential draw, so the walk reaches 0 after finitely
    many steps almost surely (the expected number of rounds is about
    ``rate * start``).  The step length is built by the inverse-CDF transform
    of :mod:`repro.distributions`, demonstrating continuous samples used as
    first-class values inside a recursive program.
    """
    if rate <= 0:
        raise ValueError("the exponential rate must be positive")
    body = If(
        Var("x"),
        Var("x"),
        App(Var("phi"), sub(Var("x"), exponential(rate))),
    )
    fix = Fix("phi", "x", body)
    return Program(
        name=f"exp-walk({rate},{start})",
        fix=fix,
        applied=App(fix, Numeral(start)),
        description="walk towards 0 with exponential step lengths",
        strategy=Strategy.CBV,
        known_probability=1.0,
    )


def score_gated_printer(p: Number = Fraction(1, 2), threshold: Number = Fraction(1, 4)) -> Program:
    """The affine printer with a ``score`` that fails on small samples.

    Each retry conditions on the drawn value being at least ``threshold``
    (``score(sample - threshold)`` fails when the draw is smaller), so a run
    can get stuck: the program is *not* AST -- the verifier must notice the
    missing probability mass instead of silently ignoring the failing score.
    """
    retry = let(
        "w",
        Score(sub(Sample(), threshold)),
        App(Var("phi"), add(Var("x"), 1)),
    )
    body = choice(Var("x"), p, retry)
    fix = Fix("phi", "x", body)
    return Program(
        name=f"score-printer({p})",
        fix=fix,
        applied=App(fix, Numeral(1)),
        description="printer whose retries condition on a minimum sample value",
        strategy=Strategy.CBV,
        known_probability=None,
    )


def nested_recursion(p: Number = Fraction(1, 2)) -> Program:
    """A geometric loop whose retry runs a second, inner geometric loop.

    The outer body contains a nested fixpoint, which the counting-based
    verifier of Sec. 5/6 does not handle (it analyses a single first-order
    recursion); the lower-bound engine and the Monte-Carlo sampler still
    apply.  The program is AST for every ``p > 0``.
    """
    inner_body = If(sub(Sample(), p), Var("y"), App(Var("psi"), add(Var("y"), 1)))
    inner = Fix("psi", "y", inner_body)
    outer_body = If(
        sub(Sample(), p),
        Var("x"),
        App(Var("phi"), App(inner, add(Var("x"), 1))),
    )
    fix = Fix("phi", "x", outer_body)
    return Program(
        name=f"nested({p})",
        fix=fix,
        applied=App(fix, Numeral(0)),
        description="geometric retry loop whose retry runs an inner geometric loop",
        strategy=Strategy.CBV,
        known_probability=1.0 if p > 0 else 0.0,
    )


def sigmoid_retry(threshold: Number = Fraction(7, 10)) -> Program:
    """A retry loop gated on the sigmoid of a fresh sample.

    ``mu phi x. if sig(sample) - t then x else phi (x+1)``: each round
    terminates when ``sig(s) <= t``, which happens with probability
    ``ln((t)/(1-t)) `` for ``t`` inside ``sig([0,1]) = [1/2, sig(1)]``.  The
    guard has no affine form, so every path constraint set is measured by
    the certified subdivision sweep -- and because each round draws a fresh
    sample, a ``k``-round path splits into ``k`` independent one-dimensional
    blocks of only two distinct shapes, the block-sweep showcase.
    """
    guard = sub(Prim("sig", (Sample(),)), threshold)
    body = If(guard, Var("x"), App(Var("phi"), add(Var("x"), 1)))
    fix = Fix("phi", "x", body)
    return Program(
        name=f"sig-retry({threshold})",
        fix=fix,
        applied=App(fix, Numeral(1)),
        description="retry until the sigmoid of a fresh sample drops below a threshold",
        known_probability=1.0,
    )


def square_retry(threshold: Number = Fraction(1, 2)) -> Program:
    """A retry loop gated on the *square* of a fresh sample.

    ``mu phi x. let s = sample in if s*s - t then x else phi (x+1)`` under
    call-by-value (so the bound sample is drawn once and squared).  Each
    round succeeds with probability ``sqrt(t)``; the guard ``s*s - t`` is
    quadratic, so only the subdivision sweep can certify its measure.
    """
    square = Prim("mul", (Var("s"), Var("s")))
    round_body = If(sub(square, threshold), Var("x"), App(Var("phi"), add(Var("x"), 1)))
    fix = Fix("phi", "x", let("s", Sample(), round_body))
    return Program(
        name=f"square-retry({threshold})",
        fix=fix,
        applied=App(fix, Numeral(1)),
        description="retry until the square of a fresh sample drops below a threshold",
        strategy=Strategy.CBV,
        known_probability=1.0,
    )


def sigmoid_sum_retry(bound: Number = 1) -> Program:
    """A retry loop whose guard couples *two* fresh samples non-affinely.

    ``mu phi x. if (sample + sig(sample)) - b then x else phi (x+1)``: the
    two draws of one round form a single connected two-dimensional block
    (they share the guard), while draws of different rounds stay
    independent -- so a ``k``-round path is a product of ``k``
    two-dimensional non-affine blocks.
    """
    guard = sub(add(Sample(), Prim("sig", (Sample(),))), bound)
    body = If(guard, Var("x"), App(Var("phi"), add(Var("x"), 1)))
    fix = Fix("phi", "x", body)
    return Program(
        name=f"sig-sum-retry({bound})",
        fix=fix,
        applied=App(fix, Numeral(1)),
        description="retry until a sample plus the sigmoid of a second stays below a bound",
        known_probability=1.0,
    )


def sigmoid_branching(threshold: Number = Fraction(3, 5)) -> Program:
    """A *branching* recursion gated on the sigmoid of a fresh sample.

    ``mu phi x. if sig(sample) - t then x else phi (phi (x+1))``: the
    golden-ratio shape (recursive rank 2, so the path tree branches and
    deepening budgets keep uncovering whole new path generations) with the
    non-affine round guard of :func:`sigmoid_retry`.  Each round terminates
    with probability ``p = ln(t/(1-t))`` for ``t`` inside ``sig([0,1])``, so
    ``Pterm`` is the least fixpoint of ``q = p + (1-p) q**2``, i.e.
    ``p/(1-p)`` for ``p < 1/2``.  This is the canonical anytime-schedule
    workload: rank >= 2 *and* every path constraint set needs the
    subdivision sweep.
    """
    # P(sig(s) <= t) for s ~ U[0,1] is sig^{-1}(t) clamped into [0, 1]:
    # thresholds below sig(0) = 1/2 never terminate a round, thresholds
    # above sig(1) always do.
    p = min(1.0, max(0.0, math.log(float(threshold) / (1 - float(threshold)))))
    guard = sub(Prim("sig", (Sample(),)), threshold)
    body = If(guard, Var("x"), App(Var("phi"), App(Var("phi"), add(Var("x"), 1))))
    fix = Fix("phi", "x", body)
    return Program(
        name=f"sig-branch({threshold})",
        fix=fix,
        applied=App(fix, Numeral(1)),
        description="rank-2 branching recursion gated on the sigmoid of a fresh sample",
        known_probability=min(1.0, p / (1 - p)) if p < 1 else 1.0,
    )


def sigmoid_tri_branching(
    threshold: Number = Fraction(3, 5), padding: int = 0
) -> Program:
    """A rank-*3* branching recursion gated on the sigmoid of a fresh sample.

    ``mu phi x. if sig(sample) - t then x else phi (phi (phi (x+1)))``: the
    :func:`sigmoid_branching` round guard, but every failed round spawns
    *three* recursive calls.  With per-round termination probability
    ``p = ln(t/(1-t))``, ``Pterm`` is the least fixpoint of
    ``q = p + (1-p) q**3`` (no closed form; computed by fixed-point
    iteration, which converges to the *least* solution from ``q = 0``).
    The frontier fans out a full generation wider per depth than the
    rank-2 program, which makes it the deep anytime-schedule workload.

    ``padding`` pads the guard's threshold with that many ``+ 0`` constant
    folds: every round burns the extra reduction steps *inside* its branch
    node while the folded constant leaves the path constraints (and hence
    every probability) untouched.  That shifts work from tree structure to
    stepping -- a stepping-bound schedule, without inflating the encoded
    frontier.
    """
    p = min(1.0, max(0.0, math.log(float(threshold) / (1 - float(threshold)))))
    q = 0.0
    for _ in range(256):
        q = p + (1 - p) * q**3
    bound = Numeral(threshold)
    for _ in range(padding):
        bound = add(bound, 0)
    guard = sub(Prim("sig", (Sample(),)), bound)
    rec = App(Var("phi"), add(Var("x"), 1))
    body = If(guard, Var("x"), App(Var("phi"), App(Var("phi"), rec)))
    fix = Fix("phi", "x", body)
    suffix = f",pad={padding}" if padding else ""
    return Program(
        name=f"sig-branch3({threshold}{suffix})",
        fix=fix,
        applied=App(fix, Numeral(1)),
        description="rank-3 branching recursion gated on the sigmoid of a fresh sample",
        known_probability=min(1.0, q),
    )


def nonaffine_programs() -> Dict[str, Program]:
    """The retry loops with non-affine guards (the sweep-heavy workload)."""
    programs = (
        sigmoid_retry(Fraction(7, 10)),
        square_retry(Fraction(1, 2)),
        sigmoid_sum_retry(1),
    )
    return {program.name: program for program in programs}


def anytime_programs() -> Dict[str, Program]:
    """The anytime-schedule workload: rank >= 2 library programs.

    Kept out of :func:`extra_programs` / :func:`nonaffine_programs` on
    purpose -- those registries define the committed ``BENCH_papprox`` /
    ``BENCH_sweep`` baselines, whose aggregate counters must not move when a
    new workload is added.  ``benchmarks/test_perf_anytime.py`` (and the
    CLI, through the main library) reach these by name.
    """
    programs = (sigmoid_branching(Fraction(3, 5)),)
    return {program.name: program for program in programs}


def deep_schedule_programs() -> Dict[str, Program]:
    """The deep anytime-schedule workload: rank-3 non-affine recursion.

    Isolated from :func:`anytime_programs` for the same baseline-stability
    reason that registry is isolated from the rest -- ``BENCH_anytime``'s
    committed counters must not move.  The CLI and the store-persisted
    schedule tests reach these through the main library by name; the
    padded variant is the stepping-bound schedule of the ``paper-cold``
    perfbench workload (``perfbench/workloads.py``).
    """
    programs = (
        sigmoid_tri_branching(Fraction(3, 5)),
        sigmoid_tri_branching(Fraction(3, 5), padding=60),
    )
    return {program.name: program for program in programs}


def extra_programs() -> Dict[str, Program]:
    """The additional example programs, keyed by name."""
    programs = (
        two_sample_sum(),
        conditional_single_sample(),
        von_neumann_coin(Fraction(1, 3)),
        exponential_step_walk(1, 3),
        score_gated_printer(Fraction(1, 2)),
        nested_recursion(Fraction(1, 2)),
    )
    named = {program.name: program for program in programs}
    named.update(nonaffine_programs())
    return named
