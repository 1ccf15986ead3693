"""Micro-benchmarks for the library's hot paths.

These time the building blocks the analyses' wall-clock depends on:
weak-distance evaluation through both executors, instrumentation +
compilation latency, the ULP metric — and the parallel multi-start
engine against its serial baseline.
"""

import time

import pytest

from repro.analyses.boundary import multiplicative_spec
from repro.analyses.overflow import overflow_spec
from repro.core.weak_distance import WeakDistance
from repro.fp.ulp import ulp_distance
from repro.fpir.compiler import compile_program
from repro.fpir.instrument import instrument
from repro.fpir.interpreter import Interpreter
from repro.gsl import airy, bessel
from repro.libm import sin as glibc_sin
from repro.mo.base import Objective
from repro.mo.scipy_backends import BasinhoppingBackend
from repro.programs import fig2
from repro.util.rng import make_rng


@pytest.fixture(scope="module")
def boundary_instrumented():
    return instrument(fig2.make_program(), multiplicative_spec())


def test_weak_distance_eval_compiled(benchmark, boundary_instrumented):
    wd = WeakDistance(boundary_instrumented, eval_mode="compiled")
    wd((0.5,))  # compile once before timing
    benchmark(wd, (0.5,))


def test_weak_distance_eval_interpreted(benchmark,
                                        boundary_instrumented):
    wd = WeakDistance(boundary_instrumented, eval_mode="interpreter")
    benchmark(wd, (0.5,))


def test_instrument_bessel_overflow_spec(benchmark):
    program = bessel.make_program()
    benchmark(lambda: instrument(program, overflow_spec()))


def test_compile_airy(benchmark, airy_program_module):
    benchmark(lambda: compile_program(airy_program_module))


@pytest.fixture(scope="module")
def airy_program_module():
    return airy.make_program()


def test_interpret_sin(benchmark):
    interp = Interpreter(glibc_sin.make_program())
    benchmark(interp.run, [1.234])


def test_compiled_sin(benchmark):
    compiled = compile_program(glibc_sin.make_program())
    benchmark(compiled.run, [1.234])


def test_compiled_airy_negative_axis(benchmark, airy_program_module):
    compiled = compile_program(airy_program_module)
    benchmark(compiled.run, [-7.5])


def test_ulp_distance(benchmark):
    benchmark(ulp_distance, 1.0, 1.0000000001)


# ---------------------------------------------------------------------------
# The scalar search loop: one default-search start, with and without W
# ---------------------------------------------------------------------------


def _time_start(benchmark, fn, label):
    """Time one basinhopping start (``niter=20``) from 0.5 through
    ``MOBackend.minimize``, and print its cost per evaluation.  Returns
    the untimed start, for a second look at the same run."""
    backend = BasinhoppingBackend(niter=20)

    def start():
        objective = Objective(fn, n_dims=1, stop_at_zero=False)
        return backend.minimize(objective, (0.5,), make_rng(1))

    result = benchmark(start)
    stats = getattr(benchmark.stats, "stats", None)
    if stats is not None:
        us = stats.median / result.n_evals * 1e6
        print(f"\n{label}: {result.n_evals} evaluations, {us:.2f} µs each")
    return start


def test_search_loop_plateau(benchmark):
    """The loop's own cost: Nelder–Mead, basinhopping and the
    objective's bookkeeping around a constant objective (every
    reordering a tie)."""
    _time_start(benchmark, lambda x: 1.0, "basinhopping start, plateau")
    print("  a plain callable: no repeat memo, so every evaluation calls it")


def test_search_loop_fig2_overflow(benchmark, monkeypatch):
    """The same start on fig2's overflow W (compiled tier), which is
    flat at DBL_MAX below about 1e292: the loop plus W.  W declares
    itself repeatable, so the search executes it once per distinct
    point.  An untimed rerun counts the executions by wrapping
    ``WeakDistance.__call__`` on the class, so the search still sees a
    repeatable W (a wrapping callable would not be one)."""
    wd = WeakDistance(instrument(fig2.make_program(), overflow_spec()))
    start = _time_start(benchmark, wd, "basinhopping start, fig2 overflow W")
    executed = []
    call = WeakDistance.__call__

    def counting(self, x):
        executed.append(x)
        return call(self, x)

    monkeypatch.setattr(WeakDistance, "__call__", counting)
    result = start()
    print(f"  {len(executed)} of its {result.n_evals} evaluations executed W")


# ---------------------------------------------------------------------------
# Parallel multi-start engine vs the serial loop
# ---------------------------------------------------------------------------


class PlantedSampler:
    """Plants the exact zero of ``|x - 7|`` on ~1 in 5 starts and
    otherwise starts far away, so most starts must burn their whole
    budget while one can win the race immediately."""

    def __call__(self, rng, n_dims):
        if rng.random() < 0.2:
            return (7.0,)
        return (float(rng.uniform(1e5, 1e6)),)


def _racing_workload():
    """A multi-start minimization whose serial loop wastes most of its
    budget before reaching the winning start."""
    from repro.fpir.builder import FunctionBuilder, eq, num, v
    from repro.fpir.program import Program
    from repro.util.rng import derive_round_rngs

    fb = FunctionBuilder("prog", params=["x"])
    with fb.if_(eq(v("x"), num(7.0))):
        fb.let("reached", num(1.0))
    fb.ret(num(0.0))
    program = Program([fb.build()], entry="prog")

    n_starts = 6
    sampler = PlantedSampler()

    def first_planted(seed):
        for i, rng in enumerate(derive_round_rngs(seed, 0, n_starts)):
            if sampler(rng, 1) == (7.0,):
                return i
        return None

    # A seed whose first winning start sits late in the serial order:
    # the serial loop must exhaust several full budgets to reach it,
    # while the racing pool reaches it immediately.
    seed = next(
        s for s in range(1000) if (first_planted(s) or 0) >= 3
    )
    return program, n_starts, seed


def _timed_round(weak_distance, n_starts, seed, n_workers):
    """One racing round of ``n_starts`` planted starts, timed together
    with building and closing its pool when it runs on one."""
    from repro.core import WorkerPool, run_multistart
    from repro.mo.random_search import RandomSearchBackend
    from repro.mo.starts import uniform_sampler as box
    from repro.util.rng import derive_round_rngs

    backend = RandomSearchBackend(n_samples=80_000, sampler=box(1e5, 1e6))
    sampler = PlantedSampler()
    starts = [(sampler(rng, 1), rng) for rng in derive_round_rngs(seed, 0, n_starts)]
    t0 = time.perf_counter()
    if n_workers > 1:
        with WorkerPool(n_workers) as pool:
            outcome = run_multistart(weak_distance, backend, starts, pool=pool)
    else:
        outcome = run_multistart(weak_distance, backend, starts)
    return time.perf_counter() - t0, outcome.best


def test_parallel_multistart_speedup():
    """The process-pool engine must beat the serial loop >= 2x on a
    racing multi-start workload (early-cancel on first zero)."""
    from repro.analyses.boundary import multiplicative_spec as mult_spec
    from repro.core.weak_distance import WeakDistance as WD

    program, n_starts, seed = _racing_workload()

    def factory():
        return WD(instrument(program, mult_spec()))

    t_serial, serial = _timed_round(factory(), n_starts, seed, n_workers=1)
    t_parallel, parallel = _timed_round(factory(), n_starts, seed, n_workers=n_starts)
    assert serial.f_star == parallel.f_star == 0.0
    assert serial.x_star == parallel.x_star == (7.0,)
    speedup = t_serial / t_parallel
    print(
        f"\nmulti-start racing: serial {t_serial:.2f}s, "
        f"parallel({n_starts}) {t_parallel:.2f}s, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= 2.0, (
        f"parallel engine too slow: {speedup:.2f}x "
        f"(serial {t_serial:.2f}s vs parallel {t_parallel:.2f}s)"
    )
