"""Seeded randomness policy.

Every stochastic component takes a ``numpy.random.Generator`` so that
experiments are reproducible end-to-end from a single seed; nothing in
the library touches the global ``numpy.random`` state.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

#: Seed used by experiments when the caller does not provide one, so
#: that EXPERIMENTS.md numbers are reproducible.
DEFAULT_SEED = 20190622  # PLDI'19 started June 22, 2019


def make_rng(seed: Optional[int] = None) -> np.random.Generator:
    """A fresh PCG64 generator (default-seeded when ``seed`` is None)."""
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


def spawn(rng: np.random.Generator) -> np.random.Generator:
    """Derive an independent child generator."""
    return np.random.default_rng(rng.integers(0, 2**63 - 1))


def derive_round_rngs(
    seed: Optional[int], round_index: int, n_starts: int
) -> List[np.random.Generator]:
    """One independent generator per start of one multi-start round.

    This is the multi-start seeding policy.  Stateful analyses
    (Algorithm 3's round loop, coverage's grow-B loop) run many
    multi-starts in sequence.  Keying the round's
    :class:`~numpy.random.SeedSequence` by ``spawn_key=(round_index,)``
    makes every start's randomness a pure function of
    ``(seed, round_index, start_index)`` — independent of how many
    workers execute the round and of whatever happened in earlier
    rounds, which is what lets :class:`repro.api.engine.Engine` promise
    identical serial and parallel runs.
    """
    root = np.random.SeedSequence(
        DEFAULT_SEED if seed is None else seed,
        spawn_key=(round_index,),
    )
    return [np.random.default_rng(child) for child in root.spawn(n_starts)]
