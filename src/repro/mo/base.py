"""Mathematical-optimization backend abstraction.

The paper treats MO as "an off-the-shelf black-box technique that
produces a sampling sequence from a combination of local and global
optimization" (Section 4.1).  This module fixes the black-box interface:

* an :class:`Objective` wraps the weak distance, records the sampling
  sequence (the data behind the paper's Figs. 3(c), 4(c) and 9), and
  implements the weak-distance-specific termination rule — "if a
  minimum 0 is reached, MO should stop as no smaller minimum can be
  found" (Section 4.4, Remark);
* an :class:`MOBackend` minimizes an objective from a starting point and
  returns an :class:`MOResult`;
* starting points are drawn by pluggable samplers
  (:mod:`repro.mo.starts`), because exploring ``F^N`` requires
  magnitude-aware sampling rather than uniform boxes.

Batch protocol
--------------

Batch-native backends speak two verbs: :meth:`MOBackend.propose_batch`
(draw a population of candidate points) and
:meth:`Objective.evaluate_batch` (score them).  ``evaluate_batch`` is
defined to be observationally identical to evaluating the points one by
one with ``__call__`` — same evaluation order, same best-point
tracking, same sample recording, and the same :class:`StopMinimization`
at the same point in the sequence, with any later points discarded.
When the wrapped function exposes a vectorized kernel
(``fn.supports_batch``, e.g. a :class:`repro.core.weak_distance.
WeakDistance` in ``eval_mode="vectorized"``) the whole population is
scored in one call; otherwise a scalar loop runs.  Because the
semantics are identical either way, a backend built on
``evaluate_batch`` produces bit-identical trajectories in every
``eval_mode``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np


class StopMinimization(Exception):
    """Raised inside an objective once a zero has been reached."""


def _as_point(x) -> Tuple[float, ...]:
    """A candidate point as a tuple of Python floats."""
    if isinstance(x, (list, tuple)):
        return tuple(map(float, x))
    return tuple(float(v) for v in np.atleast_1d(x))  # scalars and arrays


@dataclasses.dataclass
class MOResult:
    """Outcome of one minimization run."""

    x_star: Tuple[float, ...]
    f_star: float
    n_evals: int
    backend: str
    #: True when the run was cut short because a zero was found.
    stopped_at_zero: bool = False


class Objective:
    """Callable wrapper around a weak distance ``f: F^N -> F``.

    * sanitizes NaN to ``+inf`` (keeps the objective nonnegative and
      MO-friendly even when the underlying program misbehaves),
    * tracks the best point seen across *all* evaluations — MO backends
      only report their final iterate, but Theorem 3.3 cares about any
      zero ever sampled,
    * optionally records the full sampling sequence,
    * raises :class:`StopMinimization` when a zero is sampled,
    * optionally polls an external ``should_stop`` predicate — the
      cooperative cancellation hook the parallel driver
      (:mod:`repro.core.parallel`) uses to stop the remaining workers
      once any of them has reached a zero.
    """

    def __init__(
        self,
        fn: Callable[[Sequence[float]], float],
        n_dims: int,
        record_samples: bool = False,
        stop_at_zero: bool = True,
        max_samples: Optional[int] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.fn = fn
        self.n_dims = n_dims
        self.record_samples = record_samples
        self.stop_at_zero = stop_at_zero
        self.max_samples = max_samples
        self.should_stop = should_stop
        self.samples: List[Tuple[Tuple[float, ...], float]] = []
        self.n_evals = 0
        self.best_x: Optional[Tuple[float, ...]] = None
        self.best_f = math.inf

    def __call__(self, x) -> float:
        # _as_point, inlined: this is the scalar search's hot path.
        if isinstance(x, (list, tuple)):
            xs = tuple(map(float, x))
        else:  # scalars and arrays
            xs = tuple(float(v) for v in np.atleast_1d(x))
        return self._absorb(xs, self.fn(xs))

    @property
    def supports_batch(self) -> bool:
        """True when the wrapped function scores populations in one
        call (a vectorized weak-distance kernel)."""
        return bool(getattr(self.fn, "supports_batch", False))

    def evaluate_batch(self, points) -> List[float]:
        """Evaluate a population with sequential-call semantics.

        Observationally identical to ``[self(p) for p in points]``:
        points are absorbed in order, and a stop condition (zero found,
        budget exhausted, external cancellation) raises
        :class:`StopMinimization` at the same point it would have in
        the scalar loop — later points are computed in vain at most,
        never recorded.  The vectorized kernel's bit-parity contract
        (:mod:`repro.fpir.batch_eval`) makes the returned values
        identical in both paths, so batch-native backends behave the
        same in every ``eval_mode``.
        """
        coerced = [_as_point(p) for p in points]
        if self.supports_batch and len(coerced) > 1:
            values = self.fn.evaluate_batch(np.asarray(coerced, dtype=np.float64))
            values = np.asarray(values, dtype=np.float64).tolist()
            return [self._absorb(xs, v) for xs, v in zip(coerced, values)]
        return [self._absorb(xs, float(self.fn(xs))) for xs in coerced]

    def _absorb(self, xs: Tuple[float, ...], value: float) -> float:
        """Bookkeeping for one evaluated point (the ``__call__`` body)."""
        if value != value:  # NaN
            value = math.inf
        self.n_evals += 1
        if self.record_samples:
            self.samples.append((xs, value))
        if value < self.best_f or self.best_x is None:
            # The first point counts even when it is inf, so a run that
            # never sees a finite value still has a result.
            self.best_f = value
            self.best_x = xs
        if self.stop_at_zero and value <= 0.0:
            raise StopMinimization()
        if self.max_samples is not None and self.n_evals >= self.max_samples:
            raise StopMinimization()
        if self.should_stop is not None and self.should_stop():
            raise StopMinimization()
        return value

    def result(self, backend: str) -> MOResult:
        """Package the best point seen so far."""
        if self.best_x is None:
            raise RuntimeError("objective was never evaluated")
        return MOResult(
            x_star=self.best_x,
            f_star=self.best_f,
            n_evals=self.n_evals,
            backend=backend,
            stopped_at_zero=self.best_f <= 0.0,
        )


class MOBackend:
    """Interface all backends implement."""

    name = "abstract"

    def minimize(
        self,
        objective: Objective,
        start: Sequence[float],
        rng: np.random.Generator,
    ) -> MOResult:
        """Minimize ``objective`` from ``start``; never raises
        :class:`StopMinimization` (it is converted to a result)."""
        raise NotImplementedError

    def propose_batch(
        self,
        x: Sequence[float],
        rng: np.random.Generator,
        size: int,
        scale: float = 1.0,
    ) -> List[Tuple[float, ...]]:
        """Propose a population of candidate points around ``x``.

        Batch-native backends override this (and feed the result to
        :meth:`Objective.evaluate_batch`); the default signals that the
        backend proposes points one at a time.
        """
        raise NotImplementedError(f"backend {self.name!r} does not propose batches")

    def _run(
        self,
        objective: Objective,
        start: Sequence[float],
        rng: np.random.Generator,
    ) -> None:
        raise NotImplementedError

    def _guarded(
        self,
        objective: Objective,
        start: Sequence[float],
        rng: np.random.Generator,
    ) -> MOResult:
        try:
            self._run(objective, start, rng)
        except StopMinimization:
            pass
        return objective.result(self.name)
