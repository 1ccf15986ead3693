"""A pure-Python MCMC basin-hopper.

This is a from-scratch implementation of the Monte-Carlo-minimization
scheme of Li & Scheraga [23] that Basinhopping popularized: a Markov
chain over *local minimum points*, each obtained by a derivative-free
local descent (compass/pattern search), with Metropolis acceptance.

It exists for two reasons: (i) the paper's CoverMe/XSat lineage ships
its own MCMC loop, so the reproduction should not silently depend on
SciPy internals for its headline results, and (ii) it lets the test
suite exercise the backend protocol without SciPy.
"""

from __future__ import annotations

import math
from typing import Generator, List, Sequence, Tuple

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


def _pattern_search(
    x0: Sequence[float], max_iters: int = 80
) -> Generator[List[Point], List[float], Tuple[Point, float]]:
    """Derivative-free local descent (compass search with step doubling).

    Steps are proportional to each coordinate's magnitude so the search
    is scale-free across the doubles; a small absolute step handles
    points near zero.  An ask/tell sub-search: it asks for ``x0``, then
    for each coordinate's candidate probes as one step (a single kernel
    call under a vectorized weak distance), and returns the local
    minimum ``(x, fx)``.  The first improving candidate wins, so the
    descent trajectory is the one a probe-at-a-time loop produces.
    """
    x = [float(v) for v in x0]
    (fx,) = yield [tuple(x)]
    rel_step = 0.25
    for _ in range(max_iters):
        improved = False
        for i in range(len(x)):
            base = abs(x[i])
            rel = rel_step * base if base > 0.0 else rel_step
            # Relative steps adapt to the coordinate's magnitude but
            # can neither cross nor escape zero; absolute steps and a
            # reflection candidate cover those cases.
            candidates = [
                x[i] + rel,
                x[i] - rel,
                x[i] + rel_step,
                x[i] - rel_step,
                -x[i],
            ]
            trials = []
            for value in candidates:
                if not math.isfinite(value):
                    continue
                trial = list(x)
                trial[i] = value
                trials.append(tuple(trial))
            if not trials:
                continue
            values = yield trials
            for trial, ft in zip(trials, values):
                if ft < fx:
                    x, fx = list(trial), ft
                    improved = True
                    break
        if improved:
            rel_step = min(rel_step * 2.0, 0.5)
        else:
            rel_step *= 0.5
            if rel_step < 1e-12:
                break
    return tuple(x), fx


class PurePythonBasinhopping(MOBackend):
    """MCMC over local minima, entirely dependency-free."""

    name = "py-basinhopping"

    def __init__(
        self,
        niter: int = 60,
        temperature: float = 1.0,
        local_iters: int = 60,
    ) -> None:
        self.niter = niter
        self.temperature = temperature
        self.local_iters = local_iters

    def steps(self, start, rng) -> Steps:
        x, fx = yield from _pattern_search(start, self.local_iters)
        for _ in range(self.niter):
            proposal = random_jump(x, rng)
            cand, fcand = yield from _pattern_search(proposal, self.local_iters)
            if fcand <= fx or metropolis_accept(fx, fcand, self.temperature, rng):
                x, fx = cand, fcand
