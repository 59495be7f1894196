"""Number trees and the recursion-tree decomposition of App. D.1.

The proof of Thm. 5.9 decomposes the terminating traces of a recursive
program ``mu phi x. M`` according to the *shape* of the recursion: a run that
makes ``n`` recursive calls, the ``i``-th of which itself makes calls shaped
like ``S_i``, corresponds to the *number tree* ``n < [S_1, ..., S_n]``.  The
appendix establishes two facts that this module makes executable:

* number trees are in bijection with the terminating runs of the shifted
  random walk started in state 1 (via relative-change runs, Lem. D.6), and
* the probability of a tree under a counting distribution -- the product of
  the distribution's mass at every node label -- lower-bounds the measure of
  the traces with that recursion shape (Prop. D.5), and the tree
  probabilities sum to 1 exactly when the walk is almost surely absorbed.

Besides the combinatorics (enumeration, the bijections, exact per-size masses
by dynamic programming) the module provides a call-tree *sampler*: a
call-by-value evaluator that runs a recursive program and records the number
tree of recursive calls actually made, so the analytic tree probabilities can
be cross-checked against simulation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.randomwalk.step_distribution import CountingDistribution
from repro.spcf.contexts import unfold
from repro.spcf.primitives import PrimitiveRegistry, default_registry
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
    substitute,
)
from repro.symbolic.execute import RecMarker

Number = Union[Fraction, float, int]

__all__ = [
    "CallTreeBudgetExceeded",
    "CallTreeRun",
    "NumberTree",
    "absolute_run_from_relative",
    "empirical_tree_distribution",
    "enumerate_trees",
    "extinction_probability",
    "from_relative_run",
    "is_valid_relative_run",
    "leaf",
    "relative_run_from_absolute",
    "sample_call_tree",
    "termination_mass_up_to",
    "tree_mass_by_size",
    "tree_probability",
    "tree_probability_inf",
]


# ---------------------------------------------------------------------------
# Number trees.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NumberTree:
    """A number tree ``n < [S_1, ..., S_n]`` (App. D.1).

    The label of a node is the number of its children; it records how many
    recursive calls one evaluation of the body makes, and each child records
    the recursion shape of the corresponding call.
    """

    children: Tuple["NumberTree", ...] = ()

    @property
    def label(self) -> int:
        """The number of direct recursive calls at this node."""
        return len(self.children)

    @property
    def node_count(self) -> int:
        """The total number of nodes, i.e. the number of calls in the run
        (including the original, outermost call)."""
        return 1 + sum(child.node_count for child in self.children)

    @property
    def recursive_calls(self) -> int:
        """The number of *recursive* calls in the run (nodes below the root)."""
        return self.node_count - 1

    @property
    def depth(self) -> int:
        """The height of the tree: the deepest chain of pending calls."""
        if not self.children:
            return 0
        return 1 + max(child.depth for child in self.children)

    def labels(self) -> Iterator[int]:
        """Yield the label of every node in pre-order."""
        yield self.label
        for child in self.children:
            yield from child.labels()

    def to_relative_run(self) -> Tuple[int, ...]:
        """The relative-change run of the shifted random walk (App. D.1).

        ``F(n < [S_1, ..., S_n]) = (n - 1) :: F(S_1) ... F(S_n)``: resolving a
        call that spawns ``n`` new calls changes the number of pending calls
        by ``n - 1``.
        """
        run: List[int] = [self.label - 1]
        for child in self.children:
            run.extend(child.to_relative_run())
        return tuple(run)

    def to_absolute_run(self) -> Tuple[int, ...]:
        """The absolute run of the walk started in state 1 and absorbed at 0."""
        return absolute_run_from_relative(self.to_relative_run())

    def render(self) -> str:
        """A compact single-line rendering such as ``2<0, 1<0>>``."""
        if not self.children:
            return "0"
        inner = ", ".join(child.render() for child in self.children)
        return f"{self.label}<{inner}>"

    def __repr__(self) -> str:
        return f"NumberTree({self.render()})"


def leaf() -> NumberTree:
    """The simplest number tree ``0 < []`` (a run with no recursive call)."""
    return NumberTree(())


# ---------------------------------------------------------------------------
# The bijections of App. D.1 (number trees <-> runs of the random walk).
# ---------------------------------------------------------------------------


def is_valid_relative_run(run: Sequence[int]) -> bool:
    """Membership in ``Runs_R``: relative changes ``>= -1`` whose partial sums
    stay non-negative until the final step, which brings the total to ``-1``."""
    if not run:
        return False
    total = 0
    for index, change in enumerate(run):
        if change < -1:
            return False
        total += change
        is_last = index == len(run) - 1
        if is_last:
            if total != -1:
                return False
        elif total <= -1:
            return False
    return True


def from_relative_run(run: Sequence[int]) -> NumberTree:
    """The inverse of :meth:`NumberTree.to_relative_run`.

    Raises ``ValueError`` when ``run`` is not a valid element of ``Runs_R``.
    """
    if not is_valid_relative_run(run):
        raise ValueError(f"not a valid relative run: {tuple(run)!r}")
    tree, consumed = _parse_tree(list(run), 0)
    if consumed != len(run):
        raise ValueError(f"trailing entries after a complete tree: {tuple(run)!r}")
    return tree


def _parse_tree(run: List[int], position: int) -> Tuple[NumberTree, int]:
    if position >= len(run):
        raise ValueError("ran out of run entries while parsing a number tree")
    label = run[position] + 1
    if label < 0:
        raise ValueError(f"relative change below -1 at position {position}")
    position += 1
    children: List[NumberTree] = []
    for _ in range(label):
        child, position = _parse_tree(run, position)
        children.append(child)
    return NumberTree(tuple(children)), position


def absolute_run_from_relative(run: Sequence[int]) -> Tuple[int, ...]:
    """``H``: the absolute states of the walk, starting at 1 and ending at 0."""
    states = [1]
    for change in run:
        states.append(states[-1] + change)
    return tuple(states)


def relative_run_from_absolute(states: Sequence[int]) -> Tuple[int, ...]:
    """The inverse of :func:`absolute_run_from_relative`."""
    if not states or states[0] != 1:
        raise ValueError("an absolute run must start in state 1")
    return tuple(states[i + 1] - states[i] for i in range(len(states) - 1))


# ---------------------------------------------------------------------------
# Enumeration and probabilities.
# ---------------------------------------------------------------------------


def enumerate_trees(
    max_nodes: int, max_children: Optional[int] = None
) -> Iterator[NumberTree]:
    """Enumerate every number tree with at most ``max_nodes`` nodes.

    ``max_children`` optionally bounds the label of every node (useful when
    the counting distribution has bounded support, e.g. the recursive rank).
    Trees are produced in order of increasing node count.
    """
    if max_nodes < 1:
        return
    for size in range(1, max_nodes + 1):
        yield from _trees_of_size(size, max_children)


def _trees_of_size(size: int, max_children: Optional[int]) -> Iterator[NumberTree]:
    if size == 1:
        yield leaf()
        return
    # The root takes one node; distribute the remaining ``size - 1`` nodes over
    # an ordered forest of ``k`` non-empty children.
    remaining = size - 1
    max_label = remaining if max_children is None else min(remaining, max_children)
    for label in range(1, max_label + 1):
        for forest in _forests(remaining, label, max_children):
            yield NumberTree(forest)


def _forests(
    nodes: int, parts: int, max_children: Optional[int]
) -> Iterator[Tuple[NumberTree, ...]]:
    """Ordered forests of exactly ``parts`` trees using exactly ``nodes`` nodes."""
    if parts == 0:
        if nodes == 0:
            yield ()
        return
    if nodes < parts:
        return
    for first_size in range(1, nodes - parts + 2):
        for first in _trees_of_size(first_size, max_children):
            for rest in _forests(nodes - first_size, parts - 1, max_children):
                yield (first,) + rest


def tree_probability(
    tree: NumberTree, distribution: CountingDistribution
) -> Union[Fraction, float]:
    """The probability of ``tree`` under a single counting distribution:
    the product of the distribution's mass at every node label."""
    probability: Union[Fraction, float] = Fraction(1)
    for label in tree.labels():
        mass = distribution(label)
        if mass == 0:
            return Fraction(0)
        probability = probability * mass
    return probability


def tree_probability_inf(
    tree: NumberTree, family: Sequence[CountingDistribution]
) -> Union[Fraction, float]:
    """``P_inf`` of Def. D.3: at every node take the least mass over the family."""
    members = list(family)
    if not members:
        raise ValueError("the family of counting distributions must be non-empty")
    probability: Union[Fraction, float] = Fraction(1)
    for label in tree.labels():
        mass = min(member(label) for member in members)
        if mass == 0:
            return Fraction(0)
        probability = probability * mass
    return probability


def tree_mass_by_size(
    distribution: CountingDistribution, max_nodes: int
) -> List[Union[Fraction, float]]:
    """``T_k``: the total probability of all number trees with exactly ``k``
    nodes, for ``k = 1 .. max_nodes``.

    Computed by dynamic programming over ordered forests instead of explicit
    enumeration, so large ``max_nodes`` stay tractable:
    ``T_1 = s(0)`` and ``T_k = sum_n s(n) * (T * ... * T)_{k-1}`` (an ``n``-fold
    convolution of the by-size masses).
    """
    if max_nodes < 1:
        return []
    support = [n for n in distribution.support() if n >= 0]
    zero: Union[Fraction, float] = Fraction(0)
    # forest_mass[j][k] = total mass of ordered forests of j trees with k nodes.
    tree_mass: List[Union[Fraction, float]] = [zero] * (max_nodes + 1)
    tree_mass[1] = distribution(0)
    for size in range(2, max_nodes + 1):
        total: Union[Fraction, float] = zero
        for arity in support:
            if arity == 0 or arity > size - 1:
                continue
            total = total + distribution(arity) * _forest_mass(
                tree_mass, arity, size - 1
            )
        tree_mass[size] = total
    return tree_mass[1:]


def _forest_mass(
    tree_mass: List[Union[Fraction, float]], parts: int, nodes: int
) -> Union[Fraction, float]:
    """Mass of ordered forests of ``parts`` trees totalling ``nodes`` nodes."""
    zero: Union[Fraction, float] = Fraction(0)
    current: List[Union[Fraction, float]] = [zero] * (nodes + 1)
    current[0] = Fraction(1)
    for _ in range(parts):
        updated: List[Union[Fraction, float]] = [zero] * (nodes + 1)
        for have in range(nodes + 1):
            if current[have] == 0:
                continue
            for extra in range(1, nodes - have + 1):
                mass = tree_mass[extra] if extra < len(tree_mass) else zero
                if mass == 0:
                    continue
                updated[have + extra] = updated[have + extra] + current[have] * mass
        current = updated
    return current[nodes]


def termination_mass_up_to(
    distribution: CountingDistribution, max_nodes: int
) -> Union[Fraction, float]:
    """The total probability of all number trees with at most ``max_nodes``
    nodes: a certified lower bound on the absorption probability of the
    shifted walk started in state 1 (Lem. D.6)."""
    return sum(tree_mass_by_size(distribution, max_nodes), Fraction(0))


def extinction_probability(
    distribution: CountingDistribution,
    iterations: int = 10_000,
    tolerance: float = 1e-12,
) -> float:
    """The least fixpoint of ``q = sum_n s(n) q^n`` by Kleene iteration.

    This is the extinction probability of the branching process with offspring
    distribution ``s`` -- equivalently the probability that the shifted walk
    started in state 1 is absorbed at 0, i.e. the limit of
    :func:`termination_mass_up_to`.
    """
    support = [n for n in distribution.support() if n >= 0]
    masses = {n: float(distribution(n)) for n in support}
    q = 0.0
    for _ in range(iterations):
        updated = sum(mass * q**n for n, mass in masses.items())
        if abs(updated - q) < tolerance:
            return updated
        q = updated
    return q


# ---------------------------------------------------------------------------
# Sampling the call tree of an actual run (cross-check of Prop. D.5).
# ---------------------------------------------------------------------------


class CallTreeBudgetExceeded(Exception):
    """Raised when a sampled run exceeds its call or step budget."""


@dataclass(frozen=True)
class CallTreeRun:
    """One terminating sampled run of a recursive program."""

    value: Union[Fraction, float]
    tree: NumberTree
    steps: int


class _CallTreeEvaluator:
    """A call-by-value big-step evaluator that records the recursion tree.

    Recursive calls are evaluated by re-entering the body, so the evaluator
    observes the actual arguments and results of every call; the order of the
    children matches the order in which calls are made during the evaluation
    of the body (left to right, inner-most first), mirroring Def. D.2.
    """

    def __init__(
        self,
        fix: Fix,
        draw: Callable[[], float],
        max_calls: int,
        max_steps: int,
        registry: PrimitiveRegistry,
        max_depth: int = 200,
    ) -> None:
        self.fix = fix
        self.draw = draw
        self.max_calls = max_calls
        self.max_steps = max_steps
        self.max_depth = max_depth
        self.registry = registry
        self.calls = 0
        self.steps = 0
        self.depth = 0

    def run(self, argument: Number) -> Tuple[Union[Fraction, float], NumberTree]:
        self.depth += 1
        if self.depth > self.max_depth:
            raise CallTreeBudgetExceeded("recursion-depth budget exceeded")
        try:
            body = substitute(
                self.fix.body,
                {self.fix.var: Numeral(argument), self.fix.fvar: RecMarker()},
            )
            children: List[NumberTree] = []
            value = self._eval(body, children)
            if not isinstance(value, Numeral):
                raise CallTreeBudgetExceeded("the body did not reduce to a numeral")
            return value.value, NumberTree(tuple(children))
        finally:
            self.depth -= 1

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise CallTreeBudgetExceeded("step budget exceeded")

    def _eval(self, term: Term, children: List[NumberTree]) -> Term:
        self._tick()
        if isinstance(term, (Numeral, Lam, Fix, RecMarker)):
            return term
        if isinstance(term, Var):
            raise CallTreeBudgetExceeded(f"free variable {term.name!r} during sampling")
        if isinstance(term, Sample):
            return Numeral(self.draw())
        if isinstance(term, App):
            fn = self._eval(term.fn, children)
            arg = self._eval(term.arg, children)
            if isinstance(fn, RecMarker):
                if not isinstance(arg, Numeral):
                    raise CallTreeBudgetExceeded("recursive call on a non-numeral")
                self.calls += 1
                if self.calls > self.max_calls:
                    raise CallTreeBudgetExceeded("call budget exceeded")
                value, subtree = self.run(arg.value)
                children.append(subtree)
                return Numeral(value)
            if isinstance(fn, (Lam, Fix)):
                return self._eval(unfold(fn, arg), children)
            raise CallTreeBudgetExceeded("application of a non-function value")
        if isinstance(term, If):
            cond = self._eval(term.cond, children)
            if not isinstance(cond, Numeral):
                raise CallTreeBudgetExceeded("conditional guard is not a numeral")
            branch = term.then if cond.value <= 0 else term.orelse
            return self._eval(branch, children)
        if isinstance(term, Prim):
            values = []
            for argument in term.args:
                evaluated = self._eval(argument, children)
                if not isinstance(evaluated, Numeral):
                    raise CallTreeBudgetExceeded("primitive argument is not a numeral")
                values.append(evaluated.value)
            primitive = self.registry[term.op]
            try:
                return Numeral(primitive(*values))
            except (ValueError, ZeroDivisionError, OverflowError) as error:
                raise CallTreeBudgetExceeded(f"primitive {term.op!r} failed: {error}")
        if isinstance(term, Score):
            argument = self._eval(term.arg, children)
            if not isinstance(argument, Numeral) or argument.value < 0:
                raise CallTreeBudgetExceeded("score failed")
            return argument
        raise CallTreeBudgetExceeded(f"cannot evaluate {term!r}")


def sample_call_tree(
    fix: Fix,
    argument: Number,
    rng: Optional[random.Random] = None,
    max_calls: int = 10_000,
    max_steps: int = 200_000,
    max_depth: int = 200,
    registry: Optional[PrimitiveRegistry] = None,
) -> Optional[CallTreeRun]:
    """Sample one run of ``(mu phi x. M) argument`` and return its call tree.

    Returns ``None`` when the run exceeds its call, step or recursion-depth
    budgets (treated as non-terminating by the callers)."""
    rng = rng or random.Random(0)
    evaluator = _CallTreeEvaluator(
        fix,
        rng.random,
        max_calls,
        max_steps,
        registry or default_registry(),
        max_depth=max_depth,
    )
    try:
        value, tree = evaluator.run(argument)
    except (CallTreeBudgetExceeded, RecursionError):
        return None
    return CallTreeRun(value=value, tree=tree, steps=evaluator.steps)


def empirical_tree_distribution(
    fix: Fix,
    argument: Number,
    runs: int = 2_000,
    seed: int = 0,
    max_calls: int = 10_000,
    max_steps: int = 200_000,
    registry: Optional[PrimitiveRegistry] = None,
) -> Dict[NumberTree, Fraction]:
    """The empirical distribution of call trees over ``runs`` sampled runs.

    Runs that exceed their budgets contribute to the missing mass, so the
    result is a sub-distribution -- exactly the situation of Prop. D.5."""
    rng = random.Random(seed)
    counts: Dict[NumberTree, int] = {}
    for _ in range(runs):
        outcome = sample_call_tree(
            fix,
            argument,
            rng=rng,
            max_calls=max_calls,
            max_steps=max_steps,
            registry=registry,
        )
        if outcome is None:
            continue
        counts[outcome.tree] = counts.get(outcome.tree, 0) + 1
    return {tree: Fraction(count, runs) for tree, count in counts.items()}
