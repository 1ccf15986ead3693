"""Pure random search — the degenerate baseline.

Section 5.3 observes that a characteristic-function weak distance is
flat almost everywhere, so "the optimization of this weak distance
degenerates into pure random testing".  This backend *is* that random
testing: it makes the degeneration measurable in the Fig. 7 ablation
and serves as the sanity baseline everywhere else.

The backend is batch-native: points are still drawn one at a time from
the sampler (so the random stream — and therefore the sampled sequence
— is identical to the historical scalar loop), but they are asked for
in chunks as ask/tell steps (:mod:`repro.mo.base`), each a single
vectorized kernel call when the weak distance supports it.
"""

from __future__ import annotations

from repro.mo.base import MOBackend, Steps
from repro.mo.starts import DEFAULT_SAMPLER, StartSampler


class RandomSearchBackend(MOBackend):
    """Evaluate the objective at random points; keep the best."""

    name = "random-search"

    def __init__(
        self,
        n_samples: int = 2000,
        sampler: StartSampler = DEFAULT_SAMPLER,
        batch_size: int = 256,
    ) -> None:
        self.n_samples = n_samples
        self.sampler = sampler
        self.batch_size = max(1, batch_size)

    def steps(self, start, rng) -> Steps:
        n_dims = len(start)
        yield [tuple(map(float, start))]
        remaining = self.n_samples - 1
        while remaining > 0:
            size = min(self.batch_size, remaining)
            yield [tuple(map(float, self.sampler(rng, n_dims))) for _ in range(size)]
            remaining -= size
