"""A racing portfolio of MO backends.

The paper treats MO as a single interchangeable black box (Section 4.1)
and evaluates three instantiations side by side in Table 1.  Off-the-
shelf solver infrastructure goes one step further and *races* several
engines behind one interface — a portfolio.  The weak-distance setting
is ideal for this because of the termination rule of Section 4.4: the
moment any member samples ``W(x) == 0`` no smaller minimum can exist,
so the race has a natural finish line.

:class:`PortfolioBackend` runs its members in sequence against the
*shared* :class:`~repro.mo.base.Objective` of one start:

* the objective raises :class:`~repro.mo.base.StopMinimization` on the
  first zero, so the first member to reach a zero wins and the later
  members never run;
* when no zero is found, the returned result is the best minimum seen
  across *all* members (the objective tracks the global best);
* each member gets an independent child generator derived from the
  start's generator, keeping runs reproducible from one seed;
* an optional per-member evaluation budget keeps an expensive member
  from starving the rest.

Every start of a multi-start run therefore races the whole portfolio —
and because the backend is picklable it composes with the process-pool
driver of :mod:`repro.core.parallel` (portfolio per start × starts
across workers).
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Union

from repro.mo.base import MOBackend, MOResult, Objective
from repro.util.rng import spawn

#: Member line-up used when none is given: the paper's workhorse, the
#: batch-native population basin-hopper, and the random-search
#: baseline.
DEFAULT_MEMBERS = ("basinhopping", "population", "random-search")


class PortfolioBackend(MOBackend):
    """Race several MO backends per start; first zero / best minimum wins."""

    name = "portfolio"

    def __init__(
        self,
        members: Optional[Sequence[Union[str, MOBackend]]] = None,
        evals_per_member: Optional[int] = None,
    ) -> None:
        """``members`` may mix backend instances and registry names
        (resolved through :func:`repro.mo.registry.make_backend`).
        ``evals_per_member`` caps each member's objective evaluations
        for one start; ``None`` leaves members on their own budgets."""
        from repro.mo.registry import make_backend

        if members is None:
            members = DEFAULT_MEMBERS
        resolved = tuple(
            make_backend(m) if isinstance(m, str) else m for m in members
        )
        if not resolved:
            raise ValueError("portfolio needs at least one member backend")
        self.members = resolved
        self.evals_per_member = evals_per_member

    def minimize(self, objective: Objective, start, rng) -> MOResult:
        result: Optional[MOResult] = None
        progress = []  # (member, objective best after the member's run)
        for member in self.members:
            child = spawn(rng)
            saved = objective.max_samples
            objective.max_samples = self._member_budget(objective)
            try:
                result = member.minimize(objective, start, child)
            finally:
                objective.max_samples = saved
            progress.append((member, result.f_star))
            if result.stopped_at_zero:
                break
            if saved is not None and objective.n_evals >= saved:
                break  # the overall budget is exhausted
            if objective.should_stop is not None and objective.should_stop():
                # External cancellation (another start's racing zero, a
                # session job cancel): don't hand the objective to the
                # remaining members — each would burn an evaluation
                # just to observe the stop signal.
                break
        assert result is not None
        # The objective's best is monotone, so the winner is the first
        # member after whose run the final best was already attained.
        winner = next(
            member for member, f in progress if f == result.f_star
        )
        return dataclasses.replace(
            result, backend=f"{self.name}[{winner.name}]"
        )

    def _member_budget(self, objective: Objective) -> Optional[int]:
        """Evaluation ceiling for the next member (absolute count)."""
        if self.evals_per_member is None:
            return objective.max_samples
        ceiling = objective.n_evals + self.evals_per_member
        if objective.max_samples is not None:
            ceiling = min(ceiling, objective.max_samples)
        return ceiling
