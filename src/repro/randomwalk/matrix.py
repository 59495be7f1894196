"""The stochastic matrix of Def. 5.2 and truncated ground-truth iteration.

Given a step distribution ``s`` the walk lives on ``N + {bottom}``: state 0 is
absorbing (success), ``bottom`` is absorbing (failure, fed by the missing mass
of ``s``), and from a state ``n > 0`` the walk moves to ``m`` with probability
``s(m - n)`` (moves below 0 are truncated into 0).  ``P^k(m, 0)`` converges
monotonically to the absorption probability; iterating the matrix product for
finitely many steps therefore yields certified lower bounds on it, which the
tests use as ground truth for the Thm. 5.4 criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple, Union

from repro.randomwalk.step_distribution import StepDistribution

Number = Union[Fraction, float]


@dataclass
class RandomWalkMatrix:
    """Truncated-at-0 random walk driven by a finite step distribution."""

    step: StepDistribution

    def transition(self, state: int, target: int) -> Number:
        """``P(state, target)`` per Def. 5.2 (states are naturals; -1 encodes bottom)."""
        if state == -1:
            return Fraction(1) if target == -1 else Fraction(0)
        if state == 0:
            return Fraction(1) if target == 0 else Fraction(0)
        if target == -1:
            return self.step.missing_mass
        if target == 0:
            return sum(
                (probability for point, probability in self.step.mass if point <= -state),
                Fraction(0),
            )
        return self.step(target - state)

    def absorption_lower_bound(self, start: int, steps: int) -> Number:
        """``P^steps(start, 0)``: the probability of having been absorbed at 0.

        Computed by iterating the distribution over states forward; states are
        pruned when their probability is exactly 0.  Because absorption
        probabilities are monotone in ``steps`` this is a lower bound on the
        true absorption probability.

        An exact (all-``Fraction``) step distribution is iterated in integer
        numerators over the common denominator ``D`` of its masses: after
        ``k`` steps every probability is a multiple of ``D**-k``, so the
        result is the same ``Fraction`` without a gcd per operation.
        """
        if start == 0:
            return Fraction(1)
        weights, denominator = _common_denominator(self.step.mass)
        distribution: Dict[int, Number] = {start: 1}
        absorbed: Number = 0
        scale = 1
        for _ in range(steps):
            if not distribution:
                break
            # Both the distribution and ``absorbed`` are kept over ``scale``.
            absorbed = absorbed * denominator
            scale *= denominator
            updated: Dict[int, Number] = {}
            for state, probability in distribution.items():
                if probability == 0:
                    continue
                # Success: every jump of size <= -state.
                to_zero = sum(
                    (weight for point, weight in weights if point <= -state), 0
                )
                if to_zero:
                    absorbed = absorbed + probability * to_zero
                for point, weight in weights:
                    target = state + point
                    if target <= 0:
                        continue
                    updated[target] = updated.get(target, 0) + probability * weight
                # The missing mass transitions to bottom and is dropped.
            distribution = updated
        if isinstance(absorbed, int):
            return Fraction(absorbed, scale)
        return absorbed


def _common_denominator(mass) -> Tuple[Tuple[Tuple[int, Number], ...], int]:
    """``(point, weight)`` pairs and ``D`` with ``mass == weight / D``.

    For all-``Fraction`` masses the weights are integers; otherwise the
    masses are returned unchanged with ``D == 1`` (float arithmetic).
    """
    if not all(isinstance(probability, Fraction) for _, probability in mass):
        return tuple(mass), 1
    denominator = math.lcm(*(probability.denominator for _, probability in mass))
    return (
        tuple(
            (point, probability.numerator * (denominator // probability.denominator))
            for point, probability in mass
        ),
        denominator,
    )


def termination_probability(
    step: StepDistribution, start: int = 1, steps: int = 200
) -> Number:
    """Convenience wrapper: ``P^steps(start, 0)`` for the walk driven by ``step``."""
    return RandomWalkMatrix(step).absorption_lower_bound(start, steps)
