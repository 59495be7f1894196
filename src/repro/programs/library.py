"""The paper's benchmark programs (Tables 1 and 2, Examples 1.1, 5.1, 5.15).

All programs are expressed with the probabilistic-choice sugar
``M (+)_p N  =  if(sample - p, M, N)`` (left branch with probability ``p``)
and branch on ``guard <= 0`` exactly as in the paper.  Where the paper only
sketches a program (``gr``, ``bin``, ``pedestrian``) the concrete shape used
here is documented on the builder, together with the known probability of
termination used to sanity-check the reproduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Union

from repro.spcf.sugar import add, choice, let, mul, sub
from repro.spcf.syntax import App, Fix, If, Numeral, Prim, Sample, Term, Var
from repro.spcf.contexts import Strategy

Number = Union[Fraction, float, int]


@dataclass(frozen=True)
class Program:
    """A benchmark program: the recursive function and its applied form."""

    name: str
    fix: Fix
    applied: Term
    description: str
    strategy: Strategy = Strategy.CBN
    known_probability: Optional[float] = None
    """The probability of termination, when the paper (or a closed form) gives it."""


def _phi(times: int, argument: Term) -> Term:
    """``phi`` applied ``times`` times in a nested fashion: ``phi (phi (... arg))``."""
    term = argument
    for _ in range(times):
        term = App(Var("phi"), term)
    return term


# ---------------------------------------------------------------------------
# Example 1.1: the 3D-printing company.
# ---------------------------------------------------------------------------


def geometric(p: Number = Fraction(1, 2), start: Number = 1) -> Program:
    """``geo_p`` -- the affine printer, Ex. 1.1 (1).

    ``mu phi x. if sample <= p then x else phi (x + 1)`` applied to ``start``:
    a geometric number of retries; AST for every ``p > 0``.
    """
    body = If(sub(Sample(), p), Var("x"), App(Var("phi"), add(Var("x"), 1)))
    fix = Fix("phi", "x", body)
    return Program(
        name=f"geo({p})",
        fix=fix,
        applied=App(fix, Numeral(start)),
        description="geometric retry loop (Ex. 1.1 program (1))",
        known_probability=1.0 if p > 0 else 0.0,
    )


def printer_affine(p: Number = Fraction(1, 2)) -> Program:
    """Alias of :func:`geometric`: the affine 3D-printer program (Ex. 1.1 (1))."""
    program = geometric(p)
    return Program(
        name=f"printer-affine({p})",
        fix=program.fix,
        applied=program.applied,
        description=program.description,
        known_probability=program.known_probability,
    )


def printer_nonaffine(p: Number = Fraction(1, 2), start: Number = 1) -> Program:
    """The non-affine printer, Ex. 1.1 (2).

    ``mu phi x. if sample <= p then x else phi (phi (x + 1))``: two recursive
    calls on failure.  AST iff ``p >= 1/2`` (and PAST only for ``p > 1/2``).
    The probability of termination for ``p < 1/2`` is the minimal solution of
    ``q = p + (1 - p) q^2``, i.e. ``p / (1 - p)``.
    """
    body = If(sub(Sample(), p), Var("x"), _phi(2, add(Var("x"), 1)))
    fix = Fix("phi", "x", body)
    p_float = float(p)
    known = 1.0 if p_float >= 0.5 else (p_float / (1 - p_float))
    return Program(
        name=f"printer-nonaffine({p})",
        fix=fix,
        applied=App(fix, Numeral(start)),
        description="branching printer with two recursive calls (Ex. 1.1 program (2))",
        known_probability=known,
    )


def three_print(p: Number = Fraction(3, 4), start: Number = 1) -> Program:
    """``3print_p``: Ex. 1.1 (2) extended to three recursive calls on failure.

    The termination probability is the least fixpoint of
    ``q = p + (1 - p) q^3``; it is 1 exactly when the counting drift
    ``3 (1 - p) <= 1``, i.e. ``p >= 2/3``.
    """
    body = If(sub(Sample(), p), Var("x"), _phi(3, add(Var("x"), 1)))
    fix = Fix("phi", "x", body)
    known = _least_fixpoint_of_branching(float(p), branches=3)
    return Program(
        name=f"3print({p})",
        fix=fix,
        applied=App(fix, Numeral(start)),
        description="printer with three recursive calls on failure",
        known_probability=known,
    )


# ---------------------------------------------------------------------------
# Random walks.
# ---------------------------------------------------------------------------


def one_dim_random_walk(p: Number = Fraction(1, 2), start: int = 1) -> Program:
    """``1dRW_{p,s}``: the biased random walk on the naturals of [44].

    ``mu phi x. if x <= 0 then x else (phi (x - 1) (+)_p phi (x + 1))``
    applied to ``start``; moves down with probability ``p``.  AST iff
    ``p >= 1/2``; for ``p < 1/2`` the termination probability from state ``s``
    is ``(p / (1 - p))^s``.
    """
    body = If(
        Var("x"),
        Var("x"),
        choice(App(Var("phi"), sub(Var("x"), 1)), p, App(Var("phi"), add(Var("x"), 1))),
    )
    fix = Fix("phi", "x", body)
    p_float = float(p)
    known = 1.0 if p_float >= 0.5 else (p_float / (1 - p_float)) ** start
    return Program(
        name=f"1dRW({p},{start})",
        fix=fix,
        applied=App(fix, Numeral(start)),
        description="one-dimensional biased random walk, absorbed at 0",
        known_probability=known,
    )


def bin_walk(p: Number = Fraction(1, 2), start: int = 2) -> Program:
    """``bin_{p,s}``: a one-directional random walk ([44]).

    ``mu phi x. if x <= 0 then x else (phi (x - 1) (+)_p phi x)`` applied to
    ``start``: the walk can only move towards 0 (with probability ``p`` per
    step) and is AST for every ``p > 0``.
    """
    body = If(
        Var("x"),
        Var("x"),
        choice(App(Var("phi"), sub(Var("x"), 1)), p, App(Var("phi"), Var("x"))),
    )
    fix = Fix("phi", "x", body)
    return Program(
        name=f"bin({p},{start})",
        fix=fix,
        applied=App(fix, Numeral(start)),
        description="one-directional random walk towards 0",
        known_probability=1.0 if p > 0 else 0.0,
    )


def golden_ratio() -> Program:
    """``gr``: a term terminating with probability the inverse golden ratio ([51]).

    ``mu phi x. x (+) phi (phi (phi x))`` applied to 0: with probability 1/2
    stop, otherwise make three recursive calls.  The probability of
    termination is the least solution of ``q = 1/2 + 1/2 q^3``, which is
    ``(sqrt 5 - 1) / 2``.
    """
    body = choice(Var("x"), Fraction(1, 2), _phi(3, Var("x")))
    fix = Fix("phi", "x", body)
    return Program(
        name="gr",
        fix=fix,
        applied=App(fix, Numeral(0)),
        description="three-way recursion terminating with the inverse golden ratio",
        known_probability=(math.sqrt(5) - 1) / 2,
    )


def pedestrian(scale: Number = 3) -> Program:
    """``pedestrian``: the lost-pedestrian model inspired by [41].

    A pedestrian is lost a uniform distance (scaled by ``scale``) from home
    and repeatedly walks a uniform-[0,1] segment in a uniformly chosen
    direction until reaching home (position ``<= 0``)::

        (mu phi x. if x <= 0 then x
                   else (phi (x - sample) (+) phi (x + sample)))  (scale * sample)

    The walk on the non-negative reals is recurrent, so the program is AST;
    its expected runtime is infinite.  The paper analyses a CbN-adjusted
    variant; we analyse the natural call-by-value reading (under CbN the
    substituted argument would be re-sampled at each use), which preserves the
    modelled process.
    """
    body = If(
        Var("x"),
        Var("x"),
        choice(
            App(Var("phi"), sub(Var("x"), Sample())),
            Fraction(1, 2),
            App(Var("phi"), add(Var("x"), Sample())),
        ),
    )
    fix = Fix("phi", "x", body)
    return Program(
        name="pedestrian",
        fix=fix,
        applied=App(fix, mul(scale, Sample())),
        description="lost pedestrian performing a symmetric walk back home",
        strategy=Strategy.CBV,
        known_probability=1.0,
    )


# ---------------------------------------------------------------------------
# The running examples with sigmoid-dependent branching (Ex. 5.1 and Ex. 5.15).
# ---------------------------------------------------------------------------


def running_example(p: Number = Fraction(3, 5)) -> Program:
    """Ex. 5.1: the tired-operator printer.

    ``mu phi x. x (+)_p ((phi^3 (x+1) (+) phi^2 (x+1)) (+)_{sig x} phi^2 (x+1))``

    With probability ``p`` the print is accepted; otherwise, with probability
    ``sig(x)`` the operator is tired and prints 3 copies with probability 1/2
    (2 otherwise), and with probability ``1 - sig(x)`` prints 2 copies.
    Thm. 5.9 shows the program is AST (on every argument) whenever
    ``p >= 3/5``.
    """
    retry = add(Var("x"), 1)
    tired = choice(_phi(3, retry), Fraction(1, 2), _phi(2, retry))
    failure = If(sub(Sample(), Prim("sig", (Var("x"),))), tired, _phi(2, retry))
    body = choice(Var("x"), p, failure)
    fix = Fix("phi", "x", body)
    return Program(
        name=f"ex5.1({p})",
        fix=fix,
        applied=App(fix, Numeral(0)),
        description="printer with a tiredness-dependent number of recursive calls (Ex. 5.1)",
        strategy=Strategy.CBV,
        known_probability=1.0 if float(p) >= 0.6 else None,
    )


def running_example_first_class(p: Number = Fraction(13, 20)) -> Program:
    """Ex. 5.15: the printer that uses the sampled error value as a first-class probability.

    ``mu phi x. let e = sample in
                if e <= p then x
                else ((phi^3 (x+1) (+)_e phi^2 (x+1)) (+)_{sig x} phi^2 (x+1))``

    AST (on every argument) whenever ``p >= sqrt 7 - 2 ~ 0.6458`` (App. D.5).
    """
    retry = add(Var("x"), 1)
    tired = choice(_phi(3, retry), Var("e"), _phi(2, retry))
    failure = If(sub(Sample(), Prim("sig", (Var("x"),))), tired, _phi(2, retry))
    body = let("e", Sample(), If(sub(Var("e"), p), Var("x"), failure))
    fix = Fix("phi", "x", body)
    return Program(
        name=f"ex5.15({p})",
        fix=fix,
        applied=App(fix, Numeral(0)),
        description="printer whose reprint distribution depends on the sampled error (Ex. 5.15)",
        strategy=Strategy.CBV,
        known_probability=1.0 if float(p) >= math.sqrt(7) - 2 else None,
    )


# ---------------------------------------------------------------------------
# Experiment suites.
# ---------------------------------------------------------------------------


def _least_fixpoint_of_branching(p: float, branches: int) -> float:
    """Least solution of ``q = p + (1 - p) q^branches`` by fixpoint iteration."""
    q = 0.0
    for _ in range(100_000):
        updated = p + (1 - p) * q**branches
        if abs(updated - q) < 1e-15:
            return updated
        q = updated
    return q


def table1_programs() -> Dict[str, Program]:
    """The rows of Table 1 (lower-bound computation)."""
    return {
        "geo(1/2)": geometric(Fraction(1, 2)),
        "geo(1/5)": geometric(Fraction(1, 5)),
        "1dRW(1/2,1)": one_dim_random_walk(Fraction(1, 2), 1),
        "1dRW(7/10,1)": one_dim_random_walk(Fraction(7, 10), 1),
        "gr": golden_ratio(),
        "ex1.1(1/2)": printer_nonaffine(Fraction(1, 2)),
        "ex1.1(1/4)": printer_nonaffine(Fraction(1, 4)),
        "3print(3/4)": three_print(Fraction(3, 4)),
        "bin(1/2,2)": bin_walk(Fraction(1, 2), 2),
        "pedestrian": pedestrian(),
    }


def table2_programs() -> Dict[str, Program]:
    """The rows of Table 2 (automatic AST verification)."""
    return {
        "ex1.1-(1)(1/2)": printer_affine(Fraction(1, 2)),
        "ex1.1-(2)(1/2)": printer_nonaffine(Fraction(1, 2)),
        "3print(2/3)": three_print(Fraction(2, 3)),
        "ex5.1(0.6)": running_example(Fraction(3, 5)),
        "ex5.15(0.65)": running_example_first_class(Fraction(13, 20)),
    }
