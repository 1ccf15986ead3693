"""Vectorized-kernel benchmarks: throughput floor and bit parity.

Two questions, quantified:

* How much faster is the batched NumPy tier
  (:mod:`repro.fpir.batch_eval`) than the reference interpreter at
  scoring candidate populations?  CI gates on >= 3x per-point on the
  micro suite at 2048 points per batch
  (`test_vectorized_throughput_floor`), where per-call cost spreads
  over many points, and on >= 6x at the 32 points per batch the
  `population` backend actually scores
  (`test_vectorized_population_floor`), where per-call cost dominates.

* Is the speed free of semantic drift?  `test_vectorized_bit_parity`
  asserts bit-for-bit equality (NaN-aware) between
  ``evaluate_batch`` and the scalar interpreter over every micro-suite
  program on a magnitude-spanning deterministic point cloud — the same
  parity contract the analyses rely on for ``eval_mode``-invariant
  verdicts.
"""

import math
import time

import numpy as np

from repro.analyses.overflow import overflow_spec
from repro.core.weak_distance import WeakDistance
from repro.fpir.instrument import instrument
from repro.programs import get_program

#: The micro suite: small, branchy, real programs (paper Figs. 1-2 and
#: the Section 5.1 example) — the regime every analysis round lives in.
MICRO_SUITE = ("fig1a", "fig2", "sec51-gh")

#: Points per batch.  Large enough that per-call overhead amortizes,
#: small enough that the interpreter reference loop stays CI-friendly.
N_POINTS = 2048

#: CI floor for vectorized-vs-interpreter per-point throughput.
SPEEDUP_FLOOR = 3.0

#: Points per batch the `population` backend scores (its default
#: population size), and the per-point floor gated at that size.
POPULATION_POINTS = 32
POPULATION_FLOOR = 6.0


def _make_pair(name: str):
    """One program, two tiers: the vectorized W and the interpreter W
    over the *same* instrumented program (the overflow instrumentation,
    so branches, label sets and Halt all participate)."""
    program = get_program(name)
    vec = WeakDistance(instrument(program, overflow_spec()),
                       eval_mode="vectorized")
    ref = WeakDistance(instrument(program, overflow_spec()),
                       eval_mode="interpreter")
    return program, vec, ref


def _point_cloud(n_inputs: int, n_points: int, seed: int) -> np.ndarray:
    """Deterministic magnitude-spanning candidate batch: sign *
    10**U(-30, 30), the same wide-log shape the start samplers use."""
    rng = np.random.default_rng(seed)
    magnitudes = rng.uniform(-30.0, 30.0, size=(n_points, n_inputs))
    signs = rng.choice((-1.0, 1.0), size=(n_points, n_inputs))
    return signs * 10.0 ** magnitudes


def _interpreter_loop(ref: WeakDistance, X: np.ndarray) -> np.ndarray:
    return np.array([ref(tuple(map(float, x))) for x in X])


def test_vectorized_bit_parity():
    """The parity contract, enforced: every lane of ``evaluate_batch``
    must equal the interpreter bit for bit (inf included; NaN never
    escapes — both tiers report it as inf)."""
    for name in MICRO_SUITE:
        program, vec, ref = _make_pair(name)
        assert vec.supports_batch, f"{name} must lower to the batch tier"
        X = _point_cloud(program.num_inputs, 512, seed=0xBEEF)
        got = vec.evaluate_batch(X)
        want = _interpreter_loop(ref, X)
        mismatches = np.nonzero(
            got.view(np.uint64) != want.view(np.uint64)
        )[0]
        assert mismatches.size == 0, (
            f"{name}: {mismatches.size} lanes diverge, first at "
            f"row {mismatches[0]}: vectorized {got[mismatches[0]]!r} "
            f"vs interpreter {want[mismatches[0]]!r}"
        )
        assert not np.isnan(got).any(), f"{name}: NaN escaped evaluate_batch"


def test_vectorized_throughput_floor():
    """CI gate: the vectorized tier must score the micro suite >= 3x
    faster per point than the reference interpreter."""
    print("\nvectorized kernel vs interpreter "
          f"({N_POINTS} points per batch, best of 3):")
    worst = math.inf
    for name in MICRO_SUITE:
        program, vec, ref = _make_pair(name)
        X = _point_cloud(program.num_inputs, N_POINTS, seed=0xF00D)
        vec.evaluate_batch(X[:8])  # pay lowering + calibration up front

        t_vec = min(
            _timed(lambda: vec.evaluate_batch(X)) for _ in range(3)
        )
        t_ref = min(
            _timed(lambda: _interpreter_loop(ref, X)) for _ in range(3)
        )
        speedup = t_ref / t_vec
        worst = min(worst, speedup)
        print(
            f"  {name:<10} interpreter {t_ref / N_POINTS * 1e6:8.2f} us/pt"
            f"  vectorized {t_vec / N_POINTS * 1e6:8.2f} us/pt"
            f"  speedup {speedup:8.1f}x"
        )
    assert worst >= SPEEDUP_FLOOR, (
        f"vectorized tier too slow: {worst:.2f}x < {SPEEDUP_FLOOR}x floor"
    )


def test_vectorized_population_floor():
    """CI gate: at the population backend's 32 points per batch the
    vectorized tier must still score the micro suite >= 6x faster per
    point than the reference interpreter (a ratio, so host speed
    cancels out)."""
    print("\nvectorized kernel vs interpreter "
          f"({POPULATION_POINTS} points per batch, best of 3):")
    worst = math.inf
    for name in MICRO_SUITE:
        program, vec, ref = _make_pair(name)
        X = _point_cloud(program.num_inputs, N_POINTS, seed=0xF00D)
        batches = [
            X[i : i + POPULATION_POINTS]
            for i in range(0, N_POINTS, POPULATION_POINTS)
        ]
        vec.evaluate_batch(batches[0])  # lowering, calibration, constants

        def score_batches():
            for batch in batches:
                vec.evaluate_batch(batch)

        t_vec = min(_timed(score_batches) for _ in range(3))
        t_ref = min(_timed(lambda: _interpreter_loop(ref, X)) for _ in range(3))
        speedup = t_ref / t_vec
        worst = min(worst, speedup)
        print(
            f"  {name:<10} interpreter {t_ref / N_POINTS * 1e6:8.2f} us/pt"
            f"  vectorized {t_vec / N_POINTS * 1e6:8.2f} us/pt"
            f"  speedup {speedup:8.1f}x"
        )
    assert worst >= POPULATION_FLOOR, (
        f"vectorized tier too slow at {POPULATION_POINTS} points per "
        f"batch: {worst:.2f}x < {POPULATION_FLOOR}x floor"
    )


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
