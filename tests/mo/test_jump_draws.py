"""The random-jump proposals, pinned draw for draw.

:func:`repro.mo.population.random_jump` draws ``U(lo, hi)`` as
``lo + (hi - lo) * rng.random()``: NumPy's own ``rng.uniform(lo, hi)``
formula over the same one-double draw, at a third of the call cost.
Proposals feed every verdict of the population backend, so a NumPy
release that changes ``uniform`` (or an edit that changes a proposal)
must fail here instead of silently moving results.
"""

import hashlib
import struct

import numpy as np
import pytest

from repro.mo.population import PopulationBackend, random_jump

SEEDS = (0, 1, 2019)

#: Every ``(lo, hi)`` that ``random_jump`` draws from.
RANGES = ((-2.0, 2.0), (-1.0, 1.0))

#: SHA-256 of the first 10,000 candidates (and the next draw) from
#: :func:`_digest`, recorded from the per-backend proposal methods the
#: merged helper replaced, which drew through ``rng.uniform``.
GOLDEN = {
    "population": {
        0: "dcff226ba1031b892a1dcc1809ad54ba56a4a683000f47104bcb265c13e9d9dd",
        1: "59ded7f5dfc5a1d4aac5cbbbdd464cc69a465dab844d83260806121c735ef874",
        2019: "eacfde5f30a7f7bb0b34b0fc1aeddde1c3470e34b751bd75b0d49d9dcef9a28c",
    },
    "random-jump": {
        0: "7b0fcb353c43694cb8928306350460d91beccc249b43fc9cf995d974f0c5249a",
        1: "c527d5720e72487db1dc42abacb6aaa8f2749595c34759b0bd2345387b50e1fc",
        2019: "7aedefae565c87563d1e2bc0a6461cdaf58435faa708893945b086f09e602726",
    },
}

#: Incumbents spanning zero, the doubles' extremes and 1 to 4 inputs.
POINTS = ((0.0,), (1.5, -2.0), (1e308, -1e-300, 7.0), (-3.25, 0.0, 1e5, -1e-5))
SCALES = (1.0, 0.25, 1e-6)


def _digest(propose, seed, n=10_000):
    """Hash the first ``n`` candidates of 32-point populations around
    each incumbent and scale in turn, then the generator's next draw
    (so the stream must also end in the same state)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        for x in POINTS:
            for scale in SCALES:
                out.extend(propose(x, rng, 32, scale))
    digest = hashlib.sha256()
    for point in out[:n]:
        digest.update(struct.pack(f"<{len(point)}d", *point))
    digest.update(struct.pack("<d", rng.random()))
    return digest.hexdigest()


def _jumps(x, rng, size, scale):
    return [random_jump(x, rng, scale) for _ in range(size)]


@pytest.mark.parametrize("lo,hi", RANGES)
@pytest.mark.parametrize("seed", SEEDS)
def test_formula_is_numpys_uniform(seed, lo, hi):
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    got = np.array([lo + (hi - lo) * ours.random() for _ in range(100_000)])
    want = np.array([numpys.uniform(lo, hi) for _ in range(100_000)])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert ours.bit_generator.state == numpys.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
def test_population_proposals_are_golden(seed):
    assert _digest(PopulationBackend._propose, seed) == GOLDEN["population"][seed]


@pytest.mark.parametrize("seed", SEEDS)
def test_random_jumps_are_golden(seed):
    assert _digest(_jumps, seed) == GOLDEN["random-jump"][seed]
