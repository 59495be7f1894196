"""Ablation A1: the volume oracle (exact polytope vs. certified sweep vs. MC).

The paper's verifier delegates branching probabilities to an exact polytope
volume oracle (Sec. 7.2).  This ablation measures the three oracles of the
reproduction on the same multivariate constraint set (the simplex
``a_0 + a_1 + a_2 <= 1`` and a two-dimensional coupling ``a_3 <= a_0``) and
reports accuracy against the closed form alongside the timings.
"""


import pytest

from repro.geometry import measure_constraints, monte_carlo_measure, sweep_measure
from repro.symbolic import Constraint, ConstraintSet, Relation
from repro.symbolic.values import ConstVal, PrimVal, SampleVar


def _constraints() -> ConstraintSet:
    simplex = Constraint(
        PrimVal(
            "sub",
            (
                PrimVal("add", (PrimVal("add", (SampleVar(0), SampleVar(1))), SampleVar(2))),
                ConstVal(1),
            ),
        ),
        Relation.LE,
    )
    coupling = Constraint(PrimVal("sub", (SampleVar(3), SampleVar(0))), Relation.LE)
    return ConstraintSet([simplex, coupling])


# volume of the simplex is 1/6; the coupling a3 <= a0 has conditional volume
# E[a0 | simplex] = 1/4, so the joint measure is 1/6 * 1/4 = 1/24.
_TRUE = 1 / 24


def test_oracle_polytope(benchmark):
    constraints = _constraints()
    result = benchmark(measure_constraints, constraints, 4)
    print(f"\n[A1] polytope oracle: {float(result.value):.6f} (true {_TRUE:.6f}), method={result.method}")
    assert float(result.value) == pytest.approx(_TRUE, rel=1e-6)


def test_oracle_sweep(benchmark):
    constraints = _constraints()
    result = benchmark(sweep_measure, constraints, 4, 16, use_kernel=True)
    print(f"\n[A1] sweep oracle (certified lower bound): {float(result.lower):.6f} (true {_TRUE:.6f})")
    assert 0 < float(result.lower) <= _TRUE


def test_oracle_monte_carlo(benchmark):
    constraints = _constraints()
    result = benchmark(monte_carlo_measure, constraints, 4, 20_000)
    print(f"\n[A1] Monte-Carlo oracle: {result.estimate:.6f} +/- {result.stderr:.6f}")
    assert result.within(_TRUE)
