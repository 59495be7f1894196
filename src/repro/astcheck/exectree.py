"""Symbolic execution trees for recursion bodies (Sec. 6.1, App. E.1).

The tree records everything the counting analysis needs about one evaluation
of the body ``M[(*)/x, mu/phi]`` of a recursive program ``mu phi x. M``:

* ``ExecLeaf`` -- the body reached a value,
* ``ExecMu`` -- a recursive call was made (its outcome continues as the
  unknown numeral ``star``),
* ``ExecScore`` -- a ``score(v)`` was crossed (the path requires ``v >= 0``),
* ``ExecProbBranch`` -- a conditional whose guard only mentions sample
  variables: both branches are explored and the guard becomes a constraint,
* ``ExecNondetBranch`` -- a conditional whose guard mentions the unknown
  argument ``(*)`` (or a recursive outcome): the branch is resolved by the
  Environment player, not probabilistically (the "red" nodes of Fig. 6).

The builder drives the call-by-value symbolic rule set of
:mod:`repro.symbolic.execute` over the shared evaluation contexts of
:mod:`repro.spcf.contexts`, with recursive calls cut off at ``mu`` nodes, so
it terminates whenever one evaluation of the body terminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.spcf.contexts import Strategy, plug
from repro.spcf.primitives import PrimitiveRegistry, default_registry
from repro.spcf.syntax import Fix, Term, substitute
from repro.symbolic.execute import (
    RecMarker,
    StepBranch,
    StepRecCall,
    StepScore,
    StepStuck,
    StepTerm,
    SymbolicStepper,
)
from repro.symbolic.values import ArgVal, SymNumeral, SymVal


class ExecNode:
    """Base class of execution-tree nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class ExecLeaf(ExecNode):
    """The body reached a value."""

    result: Term


@dataclass(frozen=True)
class ExecMu(ExecNode):
    """A recursive call; ``argument`` is the symbolic call argument."""

    argument: SymVal
    child: ExecNode


@dataclass(frozen=True)
class ExecScore(ExecNode):
    """A ``score(value)``; the path continues only when ``value >= 0``."""

    value: SymVal
    child: ExecNode


@dataclass(frozen=True)
class ExecProbBranch(ExecNode):
    """A conditional resolved probabilistically (guard over sample variables)."""

    guard: SymVal
    then_child: ExecNode
    else_child: ExecNode


@dataclass(frozen=True)
class ExecNondetBranch(ExecNode):
    """A conditional resolved by the Environment (guard mentions ``(*)``/``star``)."""

    guard: SymVal
    then_child: ExecNode
    else_child: ExecNode

    @property
    def depends_on_star(self) -> bool:
        return self.guard.contains_star()


@dataclass(frozen=True)
class ExecStuck(ExecNode):
    """The body got stuck (e.g. a failing score on a constant)."""

    reason: str


@dataclass(frozen=True)
class _TreeStats:
    """Derived statistics of an execution tree, collected in one traversal."""

    node_count: int
    leaf_count: int
    nondet_node_count: int
    prob_node_count: int
    stuck_count: int
    max_recursive_calls: int
    has_star_guards: bool


@dataclass(frozen=True)
class ExecutionTree:
    """A symbolic execution tree together with summary statistics.

    The statistics are derived from the (immutable) tree in a single
    iterative walk the first time any of them is requested, then cached on
    the instance: the verifier consults several of them per run, and the
    walk is explicit-stack so arbitrarily deep trees cannot overflow
    Python's recursion limit.
    """

    root: ExecNode
    sample_variables: int
    """An upper bound on the number of sample variables used along any path."""

    def nodes(self) -> Iterator[ExecNode]:
        yield from _iter_nodes(self.root)

    @property
    def _stats(self) -> _TreeStats:
        try:
            return self._cached_stats
        except AttributeError:
            stats = _compute_tree_stats(self.root)
            object.__setattr__(self, "_cached_stats", stats)
            return stats

    @property
    def max_recursive_calls(self) -> int:
        """The maximal number of ``mu`` nodes on any root-to-leaf path."""
        return self._stats.max_recursive_calls

    @property
    def node_count(self) -> int:
        return self._stats.node_count

    @property
    def nondet_node_count(self) -> int:
        return self._stats.nondet_node_count

    @property
    def prob_node_count(self) -> int:
        return self._stats.prob_node_count

    @property
    def leaf_count(self) -> int:
        return self._stats.leaf_count

    @property
    def has_stuck_paths(self) -> bool:
        return self._stats.stuck_count > 0

    @property
    def has_star_guards(self) -> bool:
        """True if some Environment branch depends on a recursive outcome."""
        return self._stats.has_star_guards


def _iter_nodes(node: ExecNode) -> Iterator[ExecNode]:
    """Pre-order traversal with an explicit stack (deep trees stay safe)."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        if isinstance(current, (ExecMu, ExecScore)):
            stack.append(current.child)
        elif isinstance(current, (ExecProbBranch, ExecNondetBranch)):
            stack.append(current.else_child)
            stack.append(current.then_child)


def _compute_tree_stats(root: ExecNode) -> _TreeStats:
    """All summary statistics in one explicit-stack walk.

    ``max_recursive_calls`` is tracked by carrying the number of ``mu`` nodes
    on the path to each node; every root-to-leaf path ends in a leaf or a
    stuck node, where the running count is folded into the maximum.
    """
    node_count = leaves = nondet = prob = stuck = 0
    max_mu = 0
    star_guards = False
    stack = [(root, 0)]
    while stack:
        node, mu_on_path = stack.pop()
        node_count += 1
        if isinstance(node, ExecLeaf):
            leaves += 1
            max_mu = max(max_mu, mu_on_path)
        elif isinstance(node, ExecStuck):
            stuck += 1
            max_mu = max(max_mu, mu_on_path)
        elif isinstance(node, ExecMu):
            stack.append((node.child, mu_on_path + 1))
        elif isinstance(node, ExecScore):
            stack.append((node.child, mu_on_path))
        elif isinstance(node, ExecProbBranch):
            prob += 1
            stack.append((node.then_child, mu_on_path))
            stack.append((node.else_child, mu_on_path))
        elif isinstance(node, ExecNondetBranch):
            nondet += 1
            star_guards = star_guards or node.depends_on_star
            stack.append((node.then_child, mu_on_path))
            stack.append((node.else_child, mu_on_path))
        else:
            raise TypeError(f"unknown node {node!r}")
    return _TreeStats(
        node_count=node_count,
        leaf_count=leaves,
        nondet_node_count=nondet,
        prob_node_count=prob,
        stuck_count=stuck,
        max_recursive_calls=max_mu,
        has_star_guards=star_guards,
    )


def _max_mu(node: ExecNode) -> int:
    """The maximal number of ``mu`` nodes on any path below ``node``."""
    return _compute_tree_stats(node).max_recursive_calls


class ExecutionTreeError(Exception):
    """Raised when the body cannot be summarised as a finite execution tree."""


def build_execution_tree(
    fix: Fix,
    max_steps: int = 5_000,
    registry: Optional[PrimitiveRegistry] = None,
) -> ExecutionTree:
    """Build the symbolic execution tree of ``body((*)) = M[(*)/x, mu/phi]``."""
    registry = registry or default_registry()
    stepper = SymbolicStepper(Strategy.CBV, registry)
    body = substitute(
        fix.body, {fix.var: SymNumeral(ArgVal()), fix.fvar: RecMarker()}
    )
    max_variables = [0]
    root = _build(stepper, body, 0, max_steps, max_variables)
    return ExecutionTree(root, max_variables[0])


def _build(
    stepper: SymbolicStepper,
    term: Term,
    next_variable: int,
    budget: int,
    max_variables: List[int],
) -> ExecNode:
    """Symbolically execute ``term`` into an execution tree.

    Runs on an explicit work stack: recursion bodies that are themselves deep
    towers of calls and branches (e.g. the ``nested`` program at large rank)
    produce trees far deeper than Python's recursion limit, so the tree is
    assembled bottom-up from two kinds of work item -- *expand* (step a term
    to its next node) and *assemble* (pop finished children and wrap them in
    their parent node).  Each expand item carries its own remaining step
    budget, matching the budget split of the old recursive builder exactly.
    Expansion holds the evaluation context between steps: a node's first
    child continues in it, and only the else-branch of a fork is plugged
    into a term that waits on the work stack.
    """
    refocus = stepper.contexts.refocus
    values = stepper.contexts.values
    contract = stepper.contract
    work: List[Tuple] = [("expand", term, next_variable, budget)]
    finished: List[ExecNode] = []
    while work:
        item = work.pop()
        if item[0] == "assemble":
            _, assemble = item
            finished.append(assemble(finished))
            continue
        _, term, next_variable, budget = item
        frames: list = []
        steps = 0
        while True:
            if steps > budget:
                raise ExecutionTreeError(
                    "the recursion body did not reach a value within the step "
                    "budget; it may diverge without making recursive calls"
                )
            redex = refocus(frames, term)
            if isinstance(redex, values):
                max_variables[0] = max(max_variables[0], next_variable)
                finished.append(ExecLeaf(redex))
                break
            outcome = contract(redex, next_variable)
            if isinstance(outcome, StepTerm):
                term = outcome.term
                if outcome.consumed_sample:
                    next_variable += 1
                steps += 1
                continue
            # A score, a recursive call or a fork starts a child node whose
            # expansion gets the remaining budget; the first child continues
            # here in the held context, which is what popping its expand item
            # next would do.
            if isinstance(outcome, StepScore):
                value = outcome.value
                work.append(
                    ("assemble", lambda done, value=value: ExecScore(value, done.pop()))
                )
                term = outcome.term
            elif isinstance(outcome, StepRecCall):
                argument = outcome.argument
                work.append(
                    (
                        "assemble",
                        lambda done, argument=argument: ExecMu(argument, done.pop()),
                    )
                )
                term = outcome.term
            elif isinstance(outcome, StepBranch):
                guard = outcome.guard
                nondet = guard.contains_argument() or guard.contains_star()
                kind = ExecNondetBranch if nondet else ExecProbBranch

                def assemble_branch(done, guard=guard, kind=kind):
                    else_child = done.pop()
                    then_child = done.pop()
                    return kind(guard, then_child, else_child)

                work.append(("assemble", assemble_branch))
                # The then-branch expands first, so its result sits below the
                # else-branch on the finished stack.
                work.append(
                    ("expand", plug(frames, outcome.else_term), next_variable, budget - steps)
                )
                term = outcome.then_term
            elif isinstance(outcome, StepStuck):
                finished.append(ExecStuck(outcome.reason))
                break
            else:
                raise TypeError(f"unexpected step outcome {outcome!r}")
            budget -= steps
            steps = 0
    (root,) = finished
    return root


def render_tree(tree: ExecutionTree) -> str:
    """A small ASCII rendering of the execution tree (compare Fig. 6a).

    Pre-order with an explicit stack, like every other tree walk here: a
    rendering must not overflow on trees the builder can produce.
    """
    lines: List[str] = []
    stack: List[Tuple[ExecNode, str]] = [(tree.root, "")]
    while stack:
        node, indent = stack.pop()
        if isinstance(node, ExecLeaf):
            lines.append(f"{indent}leaf")
        elif isinstance(node, ExecMu):
            lines.append(f"{indent}mu")
            stack.append((node.child, indent + "  "))
        elif isinstance(node, ExecScore):
            lines.append(f"{indent}score({node.value!r})")
            stack.append((node.child, indent + "  "))
        elif isinstance(node, ExecProbBranch):
            lines.append(f"{indent}branch[{node.guard!r}]")
            stack.append((node.else_child, indent + "  "))
            stack.append((node.then_child, indent + "  "))
        elif isinstance(node, ExecNondetBranch):
            lines.append(f"{indent}branch*[{node.guard!r}]   (Environment)")
            stack.append((node.else_child, indent + "  "))
            stack.append((node.then_child, indent + "  "))
        elif isinstance(node, ExecStuck):
            lines.append(f"{indent}stuck: {node.reason}")
        else:
            raise TypeError(f"unknown node {node!r}")
    return "\n".join(lines)
