"""Floating-point analysis problems ⟨Prog; S⟩ (paper Definition 2.1).

A problem pairs the program under analysis with a target input set
``S ⊆ dom(Prog)``.  ``S`` is usually *implicit* (inputs triggering some
unsafe state) — but many instances have a *decidable* membership test
(run the program and observe), which Definition 3.1's Remark uses to
re-check candidate solutions and restore soundness under Limitation 2.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence, Tuple

from repro.fpir.program import Program

#: A (decidable) membership oracle for S: x ∈ S?
MembershipOracle = Callable[[Tuple[float, ...]], bool]


@dataclasses.dataclass
class AnalysisProblem:
    """The pair ⟨Prog; S⟩ of Definition 2.1.

    Attributes
    ----------
    program:
        The program under analysis.  Its entry parameters define
        ``dom(Prog) = F^N`` (all parameters must be doubles —
        Limitation 1; adapters for other interfaces are the Client's
        job, see :mod:`repro.core.adapters`).
    description:
        Human-readable statement of what S is.
    membership:
        Optional decidable membership test for S.  When present the
        kernel re-checks every candidate ``x*`` (soundness guard).
    """

    program: Program
    description: str = ""
    membership: Optional[MembershipOracle] = None

    def __post_init__(self) -> None:
        from repro.fpir.types import DOUBLE

        non_double = [
            p.name
            for p in self.program.entry_function.params
            if p.type is not DOUBLE
        ]
        if non_double:
            raise ValueError(
                "dom(Prog) must be F^N (Definition 2.1 / Limitation 1); "
                f"non-double parameters: {non_double}. Wrap the program "
                "with an adapter (repro.core.adapters) first."
            )

    @property
    def n_inputs(self) -> int:
        return self.program.num_inputs

    def contains(self, x: Sequence[float]) -> Optional[bool]:
        """Decide ``x ∈ S`` when a membership oracle is available: the
        oracle's answer as a ``bool`` (a ``numpy.bool_`` from a NumPy
        expression included), or None without an oracle."""
        if self.membership is None:
            return None
        return bool(self.membership(tuple(float(v) for v in x)))
