"""Interval terms and the canonical embedding ``M -> M^2I`` (Sec. 3.1).

Interval terms reuse the SPCF term constructors but replace real-valued
numerals by *interval numerals* ``[a, b]`` (an unknown value within that
interval).  The embedding maps every numeral ``r`` to the degenerate interval
``[r, r]``.  The refinement relation ``M <| M'`` of Fig. 10 relates standard
terms to interval terms: they agree structurally and every numeral of ``M``
lies in the corresponding interval numeral of ``M'``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.intervals.interval import Interval
from repro.spcf.syntax import (
    App,
    Fix,
    If,
    Lam,
    Numeral,
    Prim,
    Sample,
    Score,
    Term,
    Var,
)


@dataclass(frozen=True)
class IntervalNumeral(Term):
    """An interval-valued constant ``[a, b]`` of type R."""

    interval: Interval

    def __repr__(self) -> str:
        return f"IntervalNumeral({self.interval!r})"


def embed(term: Term) -> Term:
    """The canonical embedding ``M^2I``: replace every numeral ``r`` by ``[r, r]``."""
    if isinstance(term, Numeral):
        return IntervalNumeral(Interval.point(term.value))
    if isinstance(term, (Var, Sample, IntervalNumeral)):
        return term
    if isinstance(term, Lam):
        return Lam(term.var, embed(term.body))
    if isinstance(term, Fix):
        return Fix(term.fvar, term.var, embed(term.body))
    if isinstance(term, App):
        return App(embed(term.fn), embed(term.arg))
    if isinstance(term, If):
        return If(embed(term.cond), embed(term.then), embed(term.orelse))
    if isinstance(term, Prim):
        return Prim(term.op, tuple(embed(arg) for arg in term.args))
    if isinstance(term, Score):
        return Score(embed(term.arg))
    raise TypeError(f"unknown term: {term!r}")


def term_refines(standard: Term, interval: Term) -> bool:
    """The refinement relation ``M <| M'`` between standard and interval terms."""
    if isinstance(interval, IntervalNumeral):
        return isinstance(standard, Numeral) and interval.interval.contains(standard.value)
    if type(standard) is not type(interval):
        return False
    if isinstance(standard, Var):
        return standard.name == interval.name  # type: ignore[union-attr]
    if isinstance(standard, Sample):
        return True
    if isinstance(standard, Lam):
        assert isinstance(interval, Lam)
        return standard.var == interval.var and term_refines(standard.body, interval.body)
    if isinstance(standard, Fix):
        assert isinstance(interval, Fix)
        return (
            standard.fvar == interval.fvar
            and standard.var == interval.var
            and term_refines(standard.body, interval.body)
        )
    if isinstance(standard, App):
        assert isinstance(interval, App)
        return term_refines(standard.fn, interval.fn) and term_refines(
            standard.arg, interval.arg
        )
    if isinstance(standard, If):
        assert isinstance(interval, If)
        return (
            term_refines(standard.cond, interval.cond)
            and term_refines(standard.then, interval.then)
            and term_refines(standard.orelse, interval.orelse)
        )
    if isinstance(standard, Prim):
        assert isinstance(interval, Prim)
        if standard.op != interval.op or len(standard.args) != len(interval.args):
            return False
        return all(
            term_refines(left, right)
            for left, right in zip(standard.args, interval.args)
        )
    if isinstance(standard, Score):
        assert isinstance(interval, Score)
        return term_refines(standard.arg, interval.arg)
    if isinstance(standard, Numeral):
        # A numeral can only refine an interval numeral, handled above.
        return False
    raise TypeError(f"unknown term: {standard!r}")
