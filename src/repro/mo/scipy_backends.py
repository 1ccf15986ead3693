"""The MO backends the paper evaluates in Table 1.

* **Basinhopping** [23, 37] — MCMC sampling over local minimum points;
  the paper's workhorse (used by CoverMe, XSat, and all experiments).
  An in-tree reimplementation of SciPy's ``basinhopping`` with a
  Nelder–Mead local search, over plain float lists: it evaluates the
  same points in the same order and draws the same random numbers as
  ``scipy.optimize.basinhopping`` (checked bit for bit in
  ``tests/mo/test_basinhopping_parity.py``), without the per-call
  array bookkeeping that dominates on 1–3-dimensional weak distances.
  It is an ask/tell generator (Nelder–Mead asks one point per
  evaluation), so :func:`repro.mo.base.drive` runs it alone and in
  lockstep rounds.
* **Differential Evolution** [35] — population-based direct search
  (SciPy, imported on first use).
* **Powell** [30] — derivative-free local search (SciPy, imported on
  first use).

All three are used strictly as black boxes, per Section 4.1; the two
SciPy loops take the :class:`~repro.mo.base.Objective` as a callback.
"""

from __future__ import annotations

import math
import operator
from typing import Generator, List, Sequence, Tuple

import numpy as np

from repro.mo.base import (
    MOBackend,
    MOResult,
    Objective,
    Point,
    Steps,
    StopMinimization,
)


class _MagnitudeStep:
    """Basinhopping step proposal adapted to the doubles.

    Additive uniform steps (SciPy's default) cannot move between
    magnitude regimes (1e-8 vs 1e8 vs 1e308).  This proposal mixes an
    additive perturbation with an occasional multiplicative jump by a
    random power of ten and a sign flip — cheap, derivative-free, and
    scale-free, in the spirit of sampling the binary64 representation.
    """

    def __init__(self, rng: np.random.Generator, stepsize: float = 1.0):
        self.rng = rng
        self.stepsize = stepsize  # mutated by the adaptive step size

    def __call__(self, x: Sequence[float]) -> List[float]:
        """A proposal from ``x`` (a new list; ``x`` is not modified)."""
        rng = self.rng
        out = [float(v) for v in x]
        for i, xi in enumerate(out):
            mode = rng.random()
            if mode < 0.5:
                xi += rng.uniform(-self.stepsize, self.stepsize)
            elif mode < 0.9:
                xi *= 10.0 ** rng.uniform(-2.0, 2.0)
            else:
                xi = -xi * 10.0 ** rng.uniform(-1.0, 1.0)
            if not math.isfinite(xi):
                xi = math.copysign(1e308, xi)
            out[i] = xi
        return out


def _order(sim: list, fsim: List[float]) -> Tuple[list, List[float]]:
    """``sim``/``fsim`` reordered by ``np.argsort(fsim)``, as SciPy does.

    Without ties the sorting permutation is unique, so a plain sort
    finds it.  NumPy's default sort is not stable, so tied values
    (plateaus, ``inf``, ``0.0`` vs ``-0.0``) are ordered by NumPy
    itself.  ``fsim`` never holds NaN: :class:`Objective` maps it to
    ``inf``.
    """
    if all(map(operator.lt, fsim, fsim[1:])):
        return sim, fsim
    order = sorted(range(len(fsim)), key=fsim.__getitem__)
    values = [fsim[i] for i in order]
    if any(map(operator.eq, values, values[1:])):
        order = np.argsort(fsim).tolist()
        values = [fsim[i] for i in order]
    return [sim[i] for i in order], values


#: What a local search returns to basinhopping: ``(x, fun, success)``.
Local = Generator[List[Point], List[float], Tuple[List[float], float, bool]]


def _nelder_mead(x0: List[float], maxiter: int, maxfev: int) -> Local:
    """SciPy's ``minimize(method="Nelder-Mead")`` with ``xatol=fatol=0``,
    as an ask/tell sub-search: it asks one point per evaluation and
    returns ``(x, fun, success)``.

    Every arithmetic step is SciPy's, in its order (standard
    coefficients rho=1, chi=2, psi=sigma=0.5), so the evaluated points
    are bit-identical.  Zero tolerances let the search collapse onto
    *exact* zeros of a weak distance (its minima are exact doubles, and
    Theorem 3.3 needs ``W(x*) == 0``, not ``W(x*) ≈ 0``): "converged"
    means every vertex and value equals the best one, the only way to
    succeed, and a NaN difference (``inf - inf``) never converges.
    SciPy stops at ``maxfev`` evaluations even mid-iteration: no point
    is asked once the budget is spent, and the rest of that iteration
    is skipped.  One-dimensional starts, the common case, take
    :func:`_nelder_mead_1d`: the same steps on scalars.
    """
    n = len(x0)
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [math.inf] * (n + 1)
    fcalls = min(n + 1, maxfev)
    for k in range(fcalls):
        (fsim[k],) = yield [tuple(sim[k])]
    # SciPy orders the initial simplex twice (which matters on ties).
    sim, fsim = _order(*_order(sim, fsim))
    iterations = 1
    if n == 0 and fcalls < maxfev and iterations < maxiter:
        # SciPy's first convergence test takes NumPy's max over the
        # (empty) vertex differences.
        raise ValueError(
            "zero-size array to reduction operation maximum which has no identity"
        )
    # Every ask after the reflection first checks the budget.  Once it
    # is spent the loop ends, so a cut-short iteration still counting
    # towards ``maxiter`` changes nothing.
    while fcalls < maxfev and iterations < maxiter:
        s0 = sim[0]
        # Best vs worst value first: it rejects most iterations.
        if fsim[0] - fsim[n] == 0.0 and _collapsed(sim, fsim):
            return s0, fsim[0], True
        # np.add.reduce: rows summed in order onto the identity +0.0
        # (so a -0.0 column sums to +0.0), then divided by n.
        xbar = [0.0] * n
        for row in sim[:n]:
            xbar = list(map(operator.add, xbar, row))
        xbar = [a / n for a in xbar]
        last = sim[n]
        xr = [2.0 * b - s for b, s in zip(xbar, last)]
        fcalls += 1
        (fxr,) = yield [tuple(xr)]
        if fxr < fsim[0]:
            if fcalls < maxfev:
                xe = [3.0 * b - 2.0 * s for b, s in zip(xbar, last)]
                fcalls += 1
                (fxe,) = yield [tuple(xe)]
                if fxe < fxr:
                    sim[n], fsim[n] = xe, fxe
                else:
                    sim[n], fsim[n] = xr, fxr
        elif fxr < fsim[n - 1]:
            sim[n], fsim[n] = xr, fxr
        elif fcalls < maxfev:
            shrink = False
            if fxr < fsim[n]:
                xc = [1.5 * b - 0.5 * s for b, s in zip(xbar, last)]
                fcalls += 1
                (fxc,) = yield [tuple(xc)]
                if fxc <= fxr:
                    sim[n], fsim[n] = xc, fxc
                else:
                    shrink = True
            else:
                xcc = [0.5 * b + 0.5 * s for b, s in zip(xbar, last)]
                fcalls += 1
                (fxcc,) = yield [tuple(xcc)]
                if fxcc < fsim[n]:
                    sim[n], fsim[n] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    # The vertex moves before the budget check, so a
                    # stop here leaves it with a stale value.
                    sim[j] = [a + 0.5 * (c - a) for a, c in zip(s0, sim[j])]
                    if fcalls >= maxfev:
                        break
                    fcalls += 1
                    (fsim[j],) = yield [tuple(sim[j])]
        iterations += 1
        sim, fsim = _order(sim, fsim)
    return sim[0], fsim[0], False


def _collapsed(sim: list, fsim: List[float]) -> bool:
    """SciPy's convergence test at zero tolerances: every vertex and
    every value minus the first is exactly zero (NaN never is)."""
    s0, f0 = sim[0], fsim[0]
    same_x = all(a - b == 0.0 for row in sim[1:] for a, b in zip(row, s0))
    return same_x and all(f0 - fj == 0.0 for fj in fsim[1:])


def _nelder_mead_1d(x0: List[float], maxiter: int, maxfev: int) -> Local:
    """:func:`_nelder_mead` for ``n == 1``: the same steps on scalars.

    The simplex is ``(s0, f0)``, ``(s1, f1)`` with ``f0 <= f1``, the
    centroid is ``0.0 + s0``, and SciPy's "reflection beats the
    second-worst vertex" branch never runs (that vertex is the best).
    """
    s0 = x0[0]
    s1 = (1 + 0.05) * s0 if s0 != 0 else 0.00025
    f0 = f1 = math.inf
    fcalls = min(2, maxfev)
    if fcalls > 0:
        (f0,) = yield [(s0,)]
    if fcalls > 1:
        (f1,) = yield [(s1,)]
    # SciPy orders the initial simplex twice (which matters on ties).
    for _ in range(2):
        if f1 < f0 or (f1 == f0 and np.argsort([f0, f1])[0]):
            s0, f0, s1, f1 = s1, f1, s0, f0
    iterations = 1
    while fcalls < maxfev and iterations < maxiter:
        if s1 - s0 == 0.0 and f0 - f1 == 0.0:
            return [s0], f0, True
        xbar = 0.0 + s0
        xr = 2.0 * xbar - s1
        fcalls += 1
        (fxr,) = yield [(xr,)]
        if fxr < f0:
            if fcalls < maxfev:
                xe = 3.0 * xbar - 2.0 * s1
                fcalls += 1
                (fxe,) = yield [(xe,)]
                s1, f1 = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fcalls < maxfev:
            shrink = False
            if fxr < f1:
                xc = 1.5 * xbar - 0.5 * s1
                fcalls += 1
                (fxc,) = yield [(xc,)]
                if fxc <= fxr:
                    s1, f1 = xc, fxc
                else:
                    shrink = True
            else:
                xcc = 0.5 * xbar + 0.5 * s1
                fcalls += 1
                (fxcc,) = yield [(xcc,)]
                if fxcc < f1:
                    s1, f1 = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                s1 = s0 + 0.5 * (s1 - s0)
                if fcalls < maxfev:
                    fcalls += 1
                    (f1,) = yield [(s1,)]
        iterations += 1
        if f1 < f0 or (f1 == f0 and np.argsort([f0, f1])[0]):
            s0, f0, s1, f1 = s1, f1, s0, f0
    return [s0], f0, False


class BasinhoppingBackend(MOBackend):
    """Basinhopping + Nelder–Mead with a magnitude-aware step proposal.

    Runs exactly what ``scipy.optimize.basinhopping(objective, start,
    niter, take_step=_MagnitudeStep(rng, stepsize), seed=...,
    minimizer_kwargs={"method": "Nelder-Mead", "options": {"maxiter":
    local_maxiter, "maxfev": 2 * local_maxiter, "xatol": 0, "fatol":
    0}})`` runs (SciPy 1.17): Metropolis acceptance at T=1 on a
    ``RandomState`` seeded from ``rng``, and the adaptive step size
    (every 50 steps, scale by 0.9 towards a 0.5 acceptance rate).
    """

    name = "basinhopping"

    def __init__(
        self,
        niter: int = 100,
        stepsize: float = 1.0,
        local_maxiter: int = 200,
    ) -> None:
        self.niter = niter
        self.stepsize = stepsize
        self.local_maxiter = local_maxiter

    def steps(self, start, rng) -> Steps:
        take_step = _MagnitudeStep(rng, self.stepsize)
        accept = np.random.RandomState(int(rng.integers(0, 2**31 - 1)))
        x0 = np.atleast_1d(np.asarray(start, dtype=float))
        if x0.ndim != 1:
            raise ValueError("'x0' must only have one dimension.")
        local = _nelder_mead_1d if x0.size == 1 else _nelder_mead
        maxiter = self.local_maxiter
        maxfev = 2 * maxiter
        x, energy, success = yield from local(x0.tolist(), maxiter, maxfev)
        naccept = 0
        for nstep in range(1, self.niter + 1):
            if nstep % 50 == 0:
                if naccept / nstep > 0.5:
                    take_step.stepsize /= 0.9
                else:
                    take_step.stepsize *= 0.9
            trial, f_trial, ok = yield from local(take_step(x), maxiter, maxfev)
            # Metropolis at T=1: one uniform draw per step, and a failed
            # local search never replaces a successful incumbent.
            w = math.exp(min(0, -(f_trial - energy)))
            if w >= accept.uniform() and (ok or not success):
                x, energy, success = trial, f_trial, ok
                naccept += 1


class DifferentialEvolutionBackend(MOBackend):
    """SciPy ``differential_evolution`` (needs finite box bounds)."""

    name = "differential_evolution"

    def __init__(
        self,
        bounds: Sequence[Tuple[float, float]] = ((-1e9, 1e9),),
        maxiter: int = 200,
        popsize: int = 20,
        tol: float = 0.0,
    ) -> None:
        self.bounds = tuple(bounds)
        self.maxiter = maxiter
        self.popsize = popsize
        self.tol = tol

    def minimize(self, objective: Objective, start, rng) -> MOResult:
        from scipy import optimize

        bounds = list(self.bounds)
        if len(bounds) == 1 and objective.n_dims > 1:
            bounds = bounds * objective.n_dims
        try:
            with np.errstate(all="ignore"):
                optimize.differential_evolution(
                    objective,
                    bounds,
                    maxiter=self.maxiter,
                    popsize=self.popsize,
                    tol=self.tol,
                    seed=int(rng.integers(0, 2**31 - 1)),
                    polish=False,
                )
        except StopMinimization:
            pass
        return objective.result(self.name)


class PowellBackend(MOBackend):
    """SciPy ``minimize(method="Powell")`` — pure local search [30]."""

    name = "powell"

    def __init__(self, maxiter: int = 200) -> None:
        self.maxiter = maxiter

    def minimize(self, objective: Objective, start, rng) -> MOResult:
        from scipy import optimize

        # NOTE: unlike Nelder-Mead, zero tolerances make Powell's Brent
        # line searches burn the whole budget without returning their
        # best point; the default tolerances actually land on exact
        # kink minimizers more reliably.
        try:
            with np.errstate(all="ignore"):
                optimize.minimize(
                    objective,
                    np.asarray(start, dtype=float),
                    method="Powell",
                    options={"maxiter": self.maxiter},
                )
        except StopMinimization:
            pass
        return objective.result(self.name)
