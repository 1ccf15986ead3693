"""Mathematical-optimization backends (the paper's Section 4.1 black box).

``repro.mo`` provides the uniform :class:`~repro.mo.base.MOBackend`
interface, the three backends evaluated in the paper's Table 1
(Basinhopping, Differential Evolution, Powell), a batch-native
population backend (one vectorized kernel call per generation), a
random-search baseline, a racing portfolio, and magnitude-aware
starting-point samplers.  Every in-tree search is an ask/tell
generator run by :func:`repro.mo.base.drive`.
"""

from repro.mo.base import MOBackend, MOResult, Objective, StopMinimization
from repro.mo.population import PopulationBackend
from repro.mo.portfolio import PortfolioBackend
from repro.mo.random_search import RandomSearchBackend
from repro.mo.registry import (
    available_backends,
    make_backend,
    register_backend,
    resolve_backend,
)
from repro.mo.scipy_backends import (
    BasinhoppingBackend,
    DifferentialEvolutionBackend,
    PowellBackend,
)
from repro.mo.starts import (
    DEFAULT_SAMPLER,
    StartSampler,
    gaussian_sampler,
    uniform_sampler,
    wide_log_sampler,
)

__all__ = [
    "BasinhoppingBackend",
    "DEFAULT_SAMPLER",
    "DifferentialEvolutionBackend",
    "MOBackend",
    "MOResult",
    "Objective",
    "PopulationBackend",
    "PortfolioBackend",
    "PowellBackend",
    "RandomSearchBackend",
    "StartSampler",
    "StopMinimization",
    "available_backends",
    "gaussian_sampler",
    "make_backend",
    "register_backend",
    "resolve_backend",
    "uniform_sampler",
    "wide_log_sampler",
]
