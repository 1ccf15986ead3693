"""Population-based basin-hopping — the batch-native backend.

Where :mod:`repro.mo.mcmc` walks one candidate at a time, this backend
asks for a whole *generation* of candidates around the incumbent as one
ask/tell step — one vectorized kernel invocation per generation when
the weak distance supports batching, shared with the other starts of a
lockstep round.  A generation mixes two proposal families:

* **compass probes** — ``x_i ± scale·(1 + |x_i|)`` and a sign flip per
  coordinate, the same magnitude-aware moves pattern search uses, so
  halving ``scale`` on failed generations gives the geometric local
  convergence of compass search;
* **random jumps** — the magnitude-aware additive/multiplicative/
  sign-flip proposals of the MCMC basin-hopper, for global exploration
  across the doubles.

Acceptance is greedy on improvement with a Metropolis fallback on the
generation's best candidate, so the chain can still escape plateaus.
The backend only speaks ask/tell; its trajectory is therefore
bit-identical in every ``eval_mode`` (the protocol guarantees
sequential-call semantics, see :mod:`repro.mo.base`).
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.mo.base import MOBackend, Point, Steps
from repro.mo.mcmc import metropolis_accept, random_jump


class PopulationBackend(MOBackend):
    """Batched basin-hopping over candidate populations."""

    name = "population"

    def __init__(
        self,
        n_generations: int = 120,
        population: int = 32,
        temperature: float = 1.0,
    ) -> None:
        self.n_generations = n_generations
        self.population = max(2, population)
        self.temperature = temperature

    def steps(self, start, rng) -> Steps:
        x = tuple(float(v) for v in start)
        (fx,) = yield [x]
        scale = 0.25
        for _ in range(self.n_generations):
            cands = self._propose(x, rng, self.population, scale)
            values = yield cands
            fbest = min(values)
            best = values.index(fbest)
            if fbest < fx:
                x, fx = cands[best], fbest
                scale = min(scale * 2.0, 0.5)
            else:
                if metropolis_accept(fx, fbest, self.temperature, rng):
                    x, fx = cands[best], fbest
                scale *= 0.5
                if scale < 1e-12:
                    # Stagnated at compass resolution: restart the step
                    # schedule so the random jumps regain amplitude.
                    scale = 0.25

    @staticmethod
    def _propose(
        x: Point, rng: np.random.Generator, size: int, scale: float
    ) -> List[Point]:
        """Compass probes around ``x`` first, random jumps after.

        Compass probes come first so that even a tiny ``size`` keeps
        the local-descent moves that drive convergence; the remainder
        of the population explores globally.
        """
        out: List[Point] = []
        for i, xi in enumerate(x):
            step = scale * (1.0 + abs(xi))
            for value in (xi + step, xi - step, -xi):
                if not math.isfinite(value) or value == xi:
                    continue
                cand = list(x)
                cand[i] = value
                out.append(tuple(cand))
        del out[size:]
        while len(out) < size:
            out.append(random_jump(x, rng, scale))
        return out
