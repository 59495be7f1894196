"""Stochastic symbolic execution for SPCF (App. B.5 and Sec. 6.1).

Instead of evaluating a program on a fixed trace of random draws, symbolic
execution runs it on a trace of *sample variables* ``a_0, a_1, ...`` whose
values are instantiated later, collecting the inequality constraints that the
draws must satisfy for a given control-flow path to be followed.  The measure
of the solution set of those constraints is then exactly the probability of
the path, which is what the lower-bound engine (Sec. 3 / Sec. 7.1) and the
AST verifier (Sec. 6) measure via the :mod:`repro.geometry` oracles.
"""

from repro.symbolic.values import (
    ArgVal,
    ConstVal,
    PrimVal,
    SampleVar,
    StarVal,
    SymNumeral,
    SymVal,
    const,
    sample_var,
)
from repro.symbolic.constraints import Constraint, ConstraintSet, Relation
from repro.symbolic.execute import (
    ExplorationSession,
    SymbolicExplorer,
    SymbolicPath,
    ExplorationResult,
)
from repro.symbolic.codec import (
    decode_session,
    encode_session,
    session_counters,
)

__all__ = [
    "ArgVal",
    "Constraint",
    "ConstraintSet",
    "ConstVal",
    "ExplorationResult",
    "ExplorationSession",
    "PrimVal",
    "Relation",
    "SampleVar",
    "StarVal",
    "SymNumeral",
    "SymVal",
    "SymbolicExplorer",
    "SymbolicPath",
    "const",
    "sample_var",
    "decode_session",
    "encode_session",
    "session_counters",
]
