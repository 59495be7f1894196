"""Monte-Carlo estimation of termination probability and expected runtime.

The standard semantics evaluates a term against a trace that is fixed up
front.  For estimation we instead supply random draws *lazily*: ahead of
every step that starts with an empty working trace, a fresh uniform draw is
appended (a draw the run never consumes is not counted as used).  The run
itself is the concrete machine's refocusing run (:mod:`repro.spcf.contexts`),
which keeps the evaluation context between steps.  A run that reaches a value
therefore corresponds exactly to a
terminating trace (the draws actually consumed), and the empirical frequency
of such runs is an unbiased estimator of ``Pterm`` restricted to runs within
the step budget -- i.e. an estimator of ``mu_S(T^{<= max_steps}_{M, term})``,
which lower-bounds ``Pterm(M)`` in expectation and converges to it as the
budget grows.

These estimates serve as the ground-truth cross check for the paper's
lower-bound engine (Sec. 3 / Sec. 7.1) and for the AST verifier (Sec. 6).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from repro.spcf.contexts import STEP_LIMIT
from repro.spcf.syntax import Term
from repro.semantics.cbv import CbVMachine
from repro.semantics.machine import ConcreteMachine, RunStatus
from repro.semantics.traces import EMPTY_TRACE, Trace


@dataclass(frozen=True)
class LazyRunResult:
    """Result of a single lazily-sampled run."""

    status: RunStatus
    steps: int
    samples_used: int
    value: Optional[Term]


@dataclass(frozen=True)
class TerminationEstimate:
    """Empirical estimate of termination probability and expected runtime."""

    runs: int
    terminated: int
    probability: float
    mean_steps: Optional[float]
    mean_samples: Optional[float]
    stderr: float

    def confidence_interval(self, z: float = 2.576) -> tuple:
        """A (by default 99%) normal-approximation confidence interval."""
        low = max(0.0, self.probability - z * self.stderr)
        high = min(1.0, self.probability + z * self.stderr)
        return low, high


def run_lazily(
    machine: ConcreteMachine,
    term: Term,
    rng: Optional[random.Random] = None,
    max_steps: int = 10_000,
) -> LazyRunResult:
    """Run ``term`` supplying uniform draws on demand, up to ``max_steps``.

    A draw is appended ahead of every step that starts with an empty trace,
    so the run consumes exactly the draws of the ``rng`` stream in order.
    """
    rng = rng or random
    draws = 0

    def supply(redex: Term, trace: Trace, steps: int) -> Trace:
        nonlocal draws
        if trace.is_empty():
            draws += 1
            return Trace((rng.random(),))
        return trace

    stop, term, trace, steps = machine.contexts.run(
        machine.contract, term, EMPTY_TRACE, max_steps, supply
    )
    if stop is STEP_LIMIT:
        return LazyRunResult(RunStatus.STEP_LIMIT, steps, draws, None)
    # A speculatively appended draw that was never consumed does not count.
    samples_used = draws if trace.is_empty() else draws - 1
    if stop is None:
        return LazyRunResult(RunStatus.TERMINATED, steps, samples_used, term)
    return LazyRunResult(stop.status, steps, samples_used, None)


def estimate_termination(
    term: Term,
    runs: int = 2000,
    max_steps: int = 10_000,
    machine: Optional[ConcreteMachine] = None,
    seed: Optional[int] = 0,
) -> TerminationEstimate:
    """Estimate ``Pterm(term)`` (and expected steps on terminating runs).

    ``machine`` defaults to the call-by-value machine, matching the semantics
    under which the paper's AST verification examples are stated; pass a
    :class:`CbNMachine` to estimate the call-by-name probability instead.
    ``runs`` must be positive: zero samples support no estimate.
    """
    if runs < 1:
        raise ValueError(f"runs must be positive (got {runs}): no samples, no estimate")
    machine = machine or CbVMachine()
    rng = random.Random(seed)
    terminated = 0
    total_steps = 0
    total_samples = 0
    for _ in range(runs):
        result = run_lazily(machine, term, rng=rng, max_steps=max_steps)
        if result.status is RunStatus.TERMINATED:
            terminated += 1
            total_steps += result.steps
            total_samples += result.samples_used
    probability = terminated / runs
    mean_steps = total_steps / terminated if terminated else None
    mean_samples = total_samples / terminated if terminated else None
    stderr = math.sqrt(max(probability * (1 - probability), 1e-12) / runs)
    return TerminationEstimate(
        runs=runs,
        terminated=terminated,
        probability=probability,
        mean_steps=mean_steps,
        mean_samples=mean_samples,
        stderr=stderr,
    )
