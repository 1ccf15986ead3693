"""The in-tree basinhopping loop against ``scipy.optimize.basinhopping``.

:class:`BasinhoppingBackend` reimplements SciPy's basinhopping with a
Nelder–Mead local search over float lists.  The contract is bit
parity: the same points evaluated in the same order (compared by
``float.hex``, so ``-0.0`` and ``0.0`` differ), the same values, the
same evaluation count and the same best point.  The reference below is
the SciPy call the backend replaced, verbatim.

The objectives cover the places where an implementation can drift:
plateaus and constant functions (tied simplex values, ordered by
NumPy's unstable argsort), kinks, an all-``inf`` half-line, a
signed-zero-sensitive function, 1–3 dimensions, and the overflow weak
distance of every suite program.  Budgets vary ``niter``,
``local_maxiter``, stop-at-zero and ``max_samples`` cut-offs (which
stop Nelder–Mead mid-iteration, even mid-shrink).

A fast subset runs in tier-1; the whole sweep is marked ``slow``.
:data:`PINNED` fixes a few trajectories by digest, so they stay put
even if a later SciPy changes its own stream.
"""

import hashlib
import math

import numpy as np
import pytest

from repro.mo.base import Objective, StopMinimization
from repro.mo.scipy_backends import BasinhoppingBackend, _MagnitudeStep
from repro.mo.starts import DEFAULT_SAMPLER, gaussian_sampler
from repro.util.rng import make_rng

scipy_optimize = pytest.importorskip("scipy.optimize")


def _scipy_reference(backend, objective, start, rng):
    """What ``BasinhoppingBackend.minimize`` ran before its own loop."""
    try:
        with np.errstate(all="ignore"):
            scipy_optimize.basinhopping(
                objective,
                np.asarray(start, dtype=float),
                niter=backend.niter,
                take_step=_MagnitudeStep(rng, backend.stepsize),
                seed=int(rng.integers(0, 2**31 - 1)),
                minimizer_kwargs={
                    "method": "Nelder-Mead",
                    "options": {
                        "maxiter": backend.local_maxiter,
                        "maxfev": backend.local_maxiter * 2,
                        "xatol": 0.0,
                        "fatol": 0.0,
                    },
                },
            )
    except StopMinimization:
        pass
    return objective.result(backend.name)


def _in_tree(backend, objective, start, rng):
    return backend.minimize(objective, start, rng)


# -- objectives ---------------------------------------------------------------


def _plateau(x):
    return float(math.floor(min(abs(x[0]), 1e300)))


def _signbit(x):
    # Tells -0.0 from 0.0: the centroid's signed zeros must match.
    if math.copysign(1.0, x[0]) > 0:
        return 2.0 + x[0]
    return abs(x[0] + 5.0)


def _plateau3(x):
    return (
        math.floor(min(abs(x[0]), 1e300))
        + math.floor(min(abs(x[1] - 2.0), 1e300))
        + abs(x[2] - 4.0)
    )


SYNTHETIC = {
    "vshape": (lambda x: abs(x[0] - 1.0) * abs(x[0] * x[0] - 4.0), 1),
    "kink": (lambda x: abs(x[0] - 3.0), 1),
    "plateau": (_plateau, 1),
    "inf-half-line": (lambda x: math.inf if x[0] > 0 else 1 + x[0] * x[0], 1),
    "signbit": (_signbit, 1),
    "flat-2d": (lambda x: 1.0, 2),
    "kinks-2d": (lambda x: abs(x[0] - 1.0) + abs(x[1] + 2.0), 2),
    "plateau-3d": (_plateau3, 3),
}

SUITE = (
    "fig1a",
    "fig1b",
    "fig2",
    "fig7-characteristic",
    "glibc-sin",
    "gsl-airy",
    "gsl-bessel",
    "gsl-hyperg",
    "sec51-gh",
)

_W_CACHE = {}


def _objective_fn(name):
    """``(fn, n_dims)``: a synthetic objective or a suite overflow W."""
    if name in SYNTHETIC:
        return SYNTHETIC[name]
    if name not in _W_CACHE:
        from repro.analyses.overflow import overflow_spec
        from repro.core.weak_distance import WeakDistance
        from repro.fpir.instrument import instrument
        from repro.programs import get_program

        program = get_program(name)
        wd = WeakDistance(instrument(program, overflow_spec()))
        _W_CACHE[name] = (wd, program.num_inputs)
    return _W_CACHE[name]


#: (niter, local_maxiter, stop_at_zero, max_samples)
BUDGETS = (
    (20, 80, True, None),
    (20, 200, False, 3000),
    (60, 120, True, 6000),
    (120, 80, False, 4000),
    (40, 200, True, 517),
)


def _trajectory(runner, name, budget, seed):
    """Run one case; returns a comparable record of everything seen."""
    fn, n_dims = _objective_fn(name)
    niter, local_maxiter, stop_at_zero, max_samples = budget
    objective = Objective(
        fn,
        n_dims=n_dims,
        record_samples=True,
        stop_at_zero=stop_at_zero,
        max_samples=max_samples,
    )
    # Odd seeds start anywhere in the doubles, as the engine does; even
    # seeds near the origin, where the synthetic objectives are finite.
    sampler = DEFAULT_SAMPLER if seed % 2 else gaussian_sampler(10.0)
    start = sampler(make_rng(7000 + seed), n_dims)
    backend = BasinhoppingBackend(niter=niter, local_maxiter=local_maxiter)
    result = runner(backend, objective, start, make_rng(seed))
    samples = [
        (tuple(v.hex() for v in x), float(f).hex()) for x, f in objective.samples
    ]
    return {
        "samples": samples,
        "n_evals": result.n_evals,
        "x_star": tuple(v.hex() for v in result.x_star),
        "f_star": float(result.f_star).hex(),
        "stopped_at_zero": result.stopped_at_zero,
    }


def _assert_parity(name, budget, seed):
    ours = _trajectory(_in_tree, name, budget, seed)
    ref = _trajectory(_scipy_reference, name, budget, seed)
    if ours["samples"] != ref["samples"]:
        pairs = zip(ours["samples"], ref["samples"])
        first = next(
            (i for i, (a, b) in enumerate(pairs) if a != b),
            min(len(ours["samples"]), len(ref["samples"])),
        )
        pytest.fail(
            f"{name} {budget} seed={seed}: samples diverge at #{first} "
            f"({len(ours['samples'])} vs {len(ref['samples'])} samples): "
            f"{ours['samples'][first:first + 2]} vs "
            f"{ref['samples'][first:first + 2]}"
        )
    assert ours == ref, (name, budget, seed)
    assert ours["n_evals"] == len(ours["samples"])


FAST = [
    ("vshape", (20, 80, True, None), 2),
    ("plateau", (20, 80, False, 1500), 2),
    ("inf-half-line", (20, 80, False, 1200), 3),
    ("signbit", (20, 80, False, 1500), 4),
    ("flat-2d", (10, 80, False, 900), 5),
    ("kinks-2d", (20, 80, True, 2000), 6),
    ("plateau-3d", (10, 120, False, 1000), 7),
    ("fig2", (20, 80, True, 517), 8),
    ("gsl-hyperg", (10, 80, False, 700), 9),
]


@pytest.mark.parametrize(
    "name,budget,seed", FAST, ids=[case[0] for case in FAST]
)
def test_parity_fast(name, budget, seed):
    _assert_parity(name, budget, seed)


@pytest.mark.parametrize("local_maxiter", [1, 2, 3])
@pytest.mark.parametrize("name", ["kink", "kinks-2d", "plateau-3d"])
def test_parity_tiny_local_budgets(name, local_maxiter):
    """``maxfev`` below the simplex size stops the initial evaluations
    part-way; ``maxiter=1`` never enters the iteration loop."""
    for seed in (2, 3):
        _assert_parity(name, (6, local_maxiter, False, None), seed)


@pytest.mark.slow
@pytest.mark.parametrize("name", list(SYNTHETIC) + list(SUITE))
def test_parity_sweep(name):
    for budget in BUDGETS:
        for seed in (11, 12, 13):
            _assert_parity(name, budget, seed)


#: ``(name, budget, seed) -> (n_evals, sha256 of the samples)``,
#: recorded from the SciPy-backed implementation.
PINNED = {
    ("vshape", (20, 80, True, None), 2): (
        114,
        "d2b909b7b9be6f18742e78364be9e261475c1b6300a491387625547268b273f1",
    ),
    ("plateau", (20, 80, False, 1500), 2): (
        1500,
        "cca7d9cfa9e5f9128207c3c9cde2269fce333c9d08ac7ae04e63af06ab011e90",
    ),
    ("signbit", (20, 80, False, 1500), 4): (
        1500,
        "5bf7f978df611dfe00a9a9ec9b78ebc43396b044246a05920b8eeec26ed08e19",
    ),
    ("kinks-2d", (20, 80, True, 2000), 6): (
        2000,
        "bb1c30326ac9e1838720f42d668f3ee1b1694ba021d44b9c6fbfa467d23d9dac",
    ),
    ("plateau-3d", (10, 120, False, 1000), 7): (
        1000,
        "82d035c72292aaab12f68bb20b42a4b401d443c52c4aba62b89f46a42b822d51",
    ),
    ("gsl-bessel", (20, 80, False, 3000), 3): (
        3000,
        "002182817a6e69fd7c248ded807fb4373a3c70e8bca878df162c602a90a125f4",
    ),
}


def _digest(record):
    text = "\n".join(
        ",".join(x) + " " + f for x, f in record["samples"]
    )
    return record["n_evals"], hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "case", list(PINNED), ids=[case[0] for case in PINNED]
)
def test_pinned_trajectories(case):
    name, budget, seed = case
    assert _digest(_trajectory(_in_tree, name, budget, seed)) == PINNED[case]


class TestStartShapes:
    def test_zero_dimensional_start_raises_after_one_eval(self):
        for runner in (_in_tree, _scipy_reference):
            objective = Objective(lambda x: 1.0, n_dims=0)
            with pytest.raises(ValueError):
                runner(BasinhoppingBackend(niter=3), objective, (), make_rng(1))
            assert objective.n_evals == 1

    def test_two_dimensional_start_raises(self):
        for runner in (_in_tree, _scipy_reference):
            objective = Objective(lambda x: 1.0, n_dims=1)
            with pytest.raises(ValueError):
                runner(BasinhoppingBackend(), objective, [[1.0]], make_rng(1))
            assert objective.n_evals == 0

    def test_scalar_start_is_one_dimensional(self):
        records = []
        for runner in (_in_tree, _scipy_reference):
            objective = Objective(
                lambda x: abs(x[0] - 1.0), n_dims=1, record_samples=True
            )
            result = runner(BasinhoppingBackend(niter=5), objective, 5.0,
                            make_rng(2))
            records.append((objective.samples, result))
        assert records[0] == records[1]


def test_no_option_selects_scipy():
    backend = BasinhoppingBackend()
    assert not hasattr(backend, "local_method")
    assert set(vars(backend)) == {"niter", "stepsize", "local_maxiter"}
