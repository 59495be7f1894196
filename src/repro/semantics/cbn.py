"""Call-by-name small-step semantics for SPCF (Fig. 2 of the paper).

The reduction relation has the form ``<M, s> -> <M', s'>``.  Redexes and
evaluation contexts are::

    R ::= (lam x. M) N | (mu phi x. M) N | if(r, N, P)
        | f(r_1, ..., r_|f|) | sample | score(r)
    E ::= [.] | E M | if(E, N, P) | score(E)
        | f(r_1, ..., r_{k-1}, E, M_{k+1}, ..., M_|f|)

Every closed term is either a value or decomposes uniquely as ``E[R]``;
:meth:`CbNMachine.step` performs exactly one reduction of that unique redex.
The machine is the concrete rule set of :mod:`repro.semantics.machine` over
the call-by-name contexts of :mod:`repro.spcf.contexts`.
"""

from __future__ import annotations

from typing import Optional

from repro.spcf.contexts import Strategy
from repro.spcf.primitives import PrimitiveRegistry
from repro.semantics.machine import ConcreteMachine


class CbNMachine(ConcreteMachine):
    """The call-by-name SPCF machine."""

    def __init__(self, registry: Optional[PrimitiveRegistry] = None) -> None:
        super().__init__(Strategy.CBN, registry)
