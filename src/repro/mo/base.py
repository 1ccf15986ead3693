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

Ask/tell protocol
-----------------

Every in-tree search speaks ask/tell: :meth:`MOBackend.steps` is a
generator that *yields* a non-empty list of candidate points (tuples of
Python floats), *receives* their values (Python floats, NaN already
read as ``inf``), and returns when its search is done.  :func:`drive`
is the one loop that runs such searches — one start alone, or every
start of a multi-start round in lockstep (:mod:`repro.core.parallel`).
Each step concatenates the live searches' asks.  When the wrapped
function exposes a vectorized kernel (``fn.supports_batch``, e.g. a
:class:`repro.core.weak_distance.WeakDistance` in
``eval_mode="vectorized"``) and the step holds at least
:data:`BATCH_MIN_POINTS` points, one ``fn.evaluate_batch`` call scores
them all; otherwise ``fn`` scores them one by one with the objective's
``__call__`` bookkeeping.  A scored batch is absorbed per search by
:meth:`Objective.absorb_batch`, which is observationally identical to
that — same evaluation count, best-point tracking and sample recording,
and the same stop at the same point in the sequence (a zero, the
budget), with any later points discarded uncounted.  Because searches
are independent and the semantics are identical either way, an
ask/tell backend produces bit-identical trajectories in every
``eval_mode``, alone or in lockstep with other starts.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Generator, List, Optional, Sequence, Tuple

import numpy as np

#: A point of ``F^N`` as the ask/tell protocol carries it.
Point = Tuple[float, ...]

#: One recorded sample: (point, W value).
Sample = Tuple[Point, float]

#: What :meth:`MOBackend.steps` returns: yields asks, receives values.
Steps = Generator[List[Point], List[float], None]

#: The narrowest step :func:`drive` sends to ``fn.evaluate_batch``;
#: narrower steps are scored point by point on W's scalar tier.  Kernel
#: vs compiled tier, µs per point on the overflow W at N = 4 / 16 / 32 /
#: 64 points (2 CPUs): fig2 20.6 / 5.4 / 2.8 / 1.4 vs 3.0, gsl-bessel
#: 49.8 / 17.7 / 9.9 / 4.7 vs 5.1, glibc-sin 125 / 45 / 31 / 22 vs 8.6.
#: Below 16 points the kernel loses on every suite program, so a few
#: lockstep basinhopping starts' one-point asks stay scalar while a
#: population generation (32 points) still reaches the kernel.  The
#: crossover is per program; a constant cannot follow it.
BATCH_MIN_POINTS = 32


class StopMinimization(Exception):
    """Raised inside an objective once a zero has been reached."""


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
        self.samples: List[Sample] = []
        self.n_evals = 0
        self.best_x: Optional[Tuple[float, ...]] = None
        self.best_f = math.inf

    def __call__(self, x) -> float:
        # The SciPy callbacks' entry: coerce to a tuple of Python floats.
        if isinstance(x, (list, tuple)):
            xs = tuple(map(float, x))
        else:  # scalars and arrays
            xs = tuple(float(v) for v in np.atleast_1d(x))
        return self._absorb(xs, self.fn(xs))

    @property
    def supports_batch(self) -> bool:
        """True when the wrapped function scores many points in one
        call (a vectorized weak-distance kernel)."""
        return bool(getattr(self.fn, "supports_batch", False))

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

    def absorb_batch(
        self, points: Sequence[Point], values: Sequence[float]
    ) -> List[float]:
        """Absorb evaluated ``points`` with sequential-call semantics.

        Observationally identical to absorbing the points one by one
        through ``__call__``: only the points up to and including the
        first stop point count — the first value ``<= 0`` under
        ``stop_at_zero``, or the point that reaches ``max_samples`` —
        and :class:`StopMinimization` is raised after them, so later
        points are never counted or recorded.  The best point becomes
        the first strict minimum of the counted prefix if it beats the
        running best.  ``should_stop`` is polled once per batch, so an
        external cancel lands at a batch boundary.  Returns the values
        with NaN read as ``inf``.
        """
        values = [math.inf if v != v else float(v) for v in values]
        head = values
        if self.max_samples is not None:
            # At least one point: ``__call__`` counts a point before it
            # checks the budget.
            head = values[: max(1, self.max_samples - self.n_evals)]
        lowest = min(head)
        if self.stop_at_zero and lowest <= 0.0:
            head = head[: next(k for k, v in enumerate(head) if v <= 0.0) + 1]
            lowest = min(head)
        self.n_evals += len(head)
        if self.record_samples:
            self.samples.extend(zip(points, head))
        if lowest < self.best_f or self.best_x is None:
            # The first point counts even when it is inf (see _absorb).
            self.best_f = lowest
            self.best_x = points[head.index(lowest)]
        if (
            (self.stop_at_zero and head[-1] <= 0.0)
            or (self.max_samples is not None and self.n_evals >= self.max_samples)
            or (self.should_stop is not None and self.should_stop())
        ):
            raise StopMinimization()
        return values

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


def drive(searches: Sequence[Tuple[Objective, Steps]]) -> None:
    """Run ask/tell searches in lockstep until every one has ended.

    ``searches`` pairs each start's :class:`Objective` with its
    :meth:`MOBackend.steps` generator; every objective must wrap the
    same function.  Each step collects the live searches' asks in start
    order.  When the function supports batches and the step holds at
    least :data:`BATCH_MIN_POINTS` points, one ``fn.evaluate_batch``
    call on an ``(N, d)`` array scores them all and each search's slice
    is absorbed in order (:meth:`Objective.absorb_batch`); otherwise
    each point is scored by ``fn`` on its tuple and absorbed as
    ``__call__`` absorbs it.  A search ends when its objective stops (a
    zero, the budget, ``should_stop``) or its generator returns; the
    points a stopped search asked for past its stop point are computed
    in vain and never counted.  Searches are independent, so stepping
    them together changes no search's evaluations, samples or result.
    """
    if not searches:
        return
    fn = searches[0][0].fn
    batch = searches[0][0].supports_batch
    # Each live search is [its ask, objective, steps.send]; on a
    # batch-capable W a running width (points asked for the next step)
    # decides the kernel.
    live = [[next(steps, None), o, steps.send] for o, steps in searches]
    live = [search for search in live if search[0] is not None]
    width = sum(len(search[0]) for search in live) if batch else 0
    while live:
        values = None
        if width >= BATCH_MIN_POINTS:
            values = _evaluate_batch(fn, [x for search in live for x in search[0]])
        offset = width = 0
        ended = False
        for search in live:
            ask, objective, send = search
            try:
                if values is None:
                    told = [objective._absorb(x, float(fn(x))) for x in ask]
                else:
                    chunk = values[offset : offset + len(ask)]
                    offset += len(ask)
                    told = objective.absorb_batch(ask, chunk)
                ask = search[0] = send(told)
                if batch:
                    width += len(ask)
            except (StopMinimization, StopIteration):
                search[0] = None
                ended = True
        if ended:
            live = [search for search in live if search[0] is not None]


def _evaluate_batch(fn, points: List[Point]) -> List[float]:
    """``fn``'s kernel on ``points``, as Python floats."""
    X = np.array(points, dtype=np.float64)
    return np.asarray(fn.evaluate_batch(X), dtype=np.float64).tolist()


class MOBackend:
    """Interface all backends implement.

    An ask/tell backend implements :meth:`steps` and inherits
    :meth:`minimize`, which runs it through :func:`drive`; that is
    every in-tree search (basinhopping, population, random-search).  A
    black-box backend (the SciPy loops, the portfolio, custom
    backends) overrides :meth:`minimize` and hands the
    :class:`Objective` to a loop of its own.
    """

    name = "abstract"

    def steps(self, start: Sequence[float], rng: np.random.Generator) -> Steps:
        """The search from ``start`` as an ask/tell generator (see the
        module docstring).  Black-box backends do not implement it."""
        raise NotImplementedError(f"backend {self.name!r} does not speak ask/tell")

    @property
    def ask_tell(self) -> bool:
        """True when :meth:`minimize` is the default driver over
        :meth:`steps`, so a round may step this backend's starts in
        lockstep without changing any start's result."""
        cls = type(self)
        return cls.steps is not MOBackend.steps and cls.minimize is MOBackend.minimize

    def minimize(
        self,
        objective: Objective,
        start: Sequence[float],
        rng: np.random.Generator,
    ) -> MOResult:
        """Minimize ``objective`` from ``start``; never raises
        :class:`StopMinimization` (it is converted to a result).  The
        default drives :meth:`steps` for this one start."""
        drive([(objective, self.steps(start, rng))])
        return objective.result(self.name)
