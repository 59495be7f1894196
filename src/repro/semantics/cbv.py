"""Call-by-value small-step semantics for SPCF (Fig. 8 / App. A.3).

The CbV strategy evaluates the argument of an application before performing
the beta or fixpoint step, and the redexes require the argument to be a
value::

    R ::= (lam x. M) V | (mu phi x. M) V | if(r, N, P)
        | f(r_1, ..., r_|f|) | sample | score(r)
    E ::= [.] | E M | (lam x. M) E | (mu phi x. M) E | if(E, N, P)
        | f(r_1, ..., r_{k-1}, E, M_{k+1}, ..., M_|f|) | score(E)

The machine is the concrete rule set of :mod:`repro.semantics.machine` over
the call-by-value contexts of :mod:`repro.spcf.contexts`.  The AST
verification machinery of Sections 5-6 of the paper works over CbV programs;
the lower-bound machinery of Sections 3-4 uses CbN.
"""

from __future__ import annotations

from typing import Optional

from repro.spcf.contexts import Strategy
from repro.spcf.primitives import PrimitiveRegistry
from repro.semantics.machine import ConcreteMachine


class CbVMachine(ConcreteMachine):
    """The call-by-value SPCF machine."""

    def __init__(self, registry: Optional[PrimitiveRegistry] = None) -> None:
        super().__init__(Strategy.CBV, registry)
