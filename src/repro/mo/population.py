"""Population-based basin-hopping — the batch-native backend.

Where basinhopping's Nelder–Mead asks one point at a time, this backend
asks for a whole *generation* of candidates around the incumbent as one
ask/tell step — one vectorized kernel invocation per generation when
the weak distance supports batching, shared with the other starts of a
lockstep round.  A generation mixes two proposal families:

* **compass probes** — ``x_i ± scale·(1 + |x_i|)`` and a sign flip per
  coordinate, magnitude-aware pattern-search moves, so halving
  ``scale`` on failed generations gives the geometric local
  convergence of compass search;
* **random jumps** (:func:`random_jump`) — magnitude-aware additive/
  multiplicative/sign-flip proposals, for global exploration across
  the doubles.

Acceptance is greedy on improvement with a Metropolis fallback on the
generation's best candidate (:func:`metropolis_accept`), so the chain
can still escape plateaus.  The backend only speaks ask/tell; its
trajectory is therefore bit-identical in every ``eval_mode`` (the
protocol guarantees sequential-call semantics, see
:mod:`repro.mo.base`).
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.mo.base import MOBackend, Point, Steps


def random_jump(
    x: Sequence[float], rng: np.random.Generator, scale: float = 1.0
) -> Point:
    """One magnitude-aware Markov-chain proposal around ``x``.

    Per coordinate: an additive Gaussian step scaled to the magnitude
    (half the time), a multiplicative jump by ``10^U(-2, 2)``, or a
    sign flip with a ``10^U(-1, 1)`` rescale; overflow saturates at
    ``±1e308``.  ``lo + (hi - lo) * rng.random()`` is NumPy's own
    ``rng.uniform(lo, hi)`` formula over the same one-double draw, at a
    third of the call cost.
    """
    out = []
    for xi in x:
        mode = rng.random()
        if mode < 0.5:
            xi = xi + rng.normal(0.0, scale * (1.0 + abs(xi) * 0.5))
        elif mode < 0.9:
            xi = xi * 10.0 ** (-2.0 + 4.0 * rng.random())
        else:
            xi = -xi * 10.0 ** (-1.0 + 2.0 * rng.random())
        if not math.isfinite(xi):
            xi = math.copysign(1e308, xi)
        out.append(float(xi))
    return tuple(out)


def metropolis_accept(
    fx: float, fcand: float, temperature: float, rng: np.random.Generator
) -> bool:
    """Metropolis acceptance of a worse candidate, on the relative gap
    (weak distances span hundreds of orders of magnitude)."""
    if not math.isfinite(fcand):
        return False
    if not math.isfinite(fx):
        return True
    spread = abs(fx) + abs(fcand) + 1e-300
    delta = (fcand - fx) / (spread * temperature)
    return rng.random() < math.exp(-min(delta, 700.0))


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
