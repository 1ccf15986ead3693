"""The lone search loop's repeat-point memo (``mo.base._run_alone``).

A search whose function declares ``repeatable`` executes it once per
distinct point and serves a repeat from a per-search memo; every ask is
still absorbed, so counts, samples, best points and stops are those of
a search that scores every ask.  These tests pin the memo's key (signed
zeros never merge, a NaN matches only itself), its scope (one search;
plain callables opt out), its cap, and its parity on the suite's weak
distances.
"""

import math
import sys

import pytest

from repro.analyses.boundary import multiplicative_spec
from repro.analyses.coverage import coverage_spec
from repro.analyses.overflow import overflow_spec
from repro.analyses.path import build_path_distance
from repro.core.weak_distance import WeakDistance
from repro.fpir.instrument import instrument
from repro.mo.base import REPEAT_MEMO_CAP, Objective, drive
from repro.mo.scipy_backends import BasinhoppingBackend
from repro.mo.starts import DEFAULT_SAMPLER
from repro.programs import fig2, get_program, list_programs
from repro.util.rng import make_rng


class _Counting:
    """A repeatable fake: scores with ``score`` and logs every call."""

    repeatable = True

    def __init__(self, score=lambda x: 1.0):
        self.score = score
        self.calls = []

    def __call__(self, x):
        self.calls.append(x)
        return self.score(x)


def _scripted(steps, told):
    """An ask/tell search that asks ``steps`` in order and logs what it
    is told."""
    for ask in steps:
        told.append((yield list(ask)))


def _run(fn, steps):
    """Drive one scripted search; returns (objective, told values)."""
    told = []
    objective = Objective(fn, n_dims=1, record_samples=True, stop_at_zero=False)
    drive([(objective, _scripted(steps, told))])
    return objective, told


def _hex_samples(objective):
    return [(tuple(v.hex() for v in x), value.hex()) for x, value in objective.samples]


class TestKey:
    def test_signed_zeros_are_each_scored(self):
        """``0.0 == -0.0``, so a memo keyed by float equality would serve
        one zero's value for the other; W can tell them apart."""
        fn = _Counting(lambda x: 1.0 if math.copysign(1.0, x[0]) > 0 else 2.0)
        objective, told = _run(fn, [[(0.0,), (-0.0,), (0.0,)]])
        assert told == [[1.0, 2.0, 1.0]]
        assert len(fn.calls) == 3
        assert _hex_samples(objective) == [
            (("0x0.0p+0",), (1.0).hex()),
            (("-0x0.0p+0",), (2.0).hex()),
            (("0x0.0p+0",), (1.0).hex()),
        ]
        # The same across steps, and with a zero in any coordinate.
        fn = _Counting(lambda x: sum(math.copysign(1.0, v) for v in x))
        _, told = _run(fn, [[(1.0, 0.0)], [(1.0, -0.0)], [(1.0, 0.0)], [(1.0, -0.0)]])
        assert told == [[2.0], [0.0], [2.0], [0.0]]
        assert len(fn.calls) == 4

    def test_a_repeat_is_served_and_still_absorbed(self):
        fn = _Counting(lambda x: x[0] + 1.0)
        objective, told = _run(fn, [[(1.0,)], [(3.0,), (1.0,)]])
        assert told == [[2.0], [4.0, 2.0]]
        assert fn.calls == [(1.0,), (3.0,)]
        assert objective.n_evals == 3
        assert objective.samples == [((1.0,), 2.0), ((3.0,), 4.0), ((1.0,), 2.0)]

    def test_a_nan_matches_only_the_same_object(self):
        """A NaN hashes by identity: the same object is served (it has
        the same bits), two distinct NaN objects are each scored."""
        fn = _Counting()
        nan = float("nan")
        _run(fn, [[(nan,)], [(nan,)]])
        assert len(fn.calls) == 1
        fn = _Counting()
        first, second = float("nan"), float("nan")
        assert first is not second
        _run(fn, [[(first,)], [(second,)]])
        assert len(fn.calls) == 2


class TestScope:
    def test_a_plain_callable_is_called_once_per_ask(self):
        calls = []
        fn = lambda x: calls.append(x) or 1.0  # noqa: E731
        objective, told = _run(fn, [[(1.0,), (1.0,)], [(1.0,)]])
        assert told == [[1.0, 1.0], [1.0]]
        assert len(calls) == objective.n_evals == 3

    def test_the_memo_is_capped(self):
        """After ``REPEAT_MEMO_CAP + 1`` distinct points the memo was
        cleared once, so the first point is scored again.  Its size is
        read from the driving frame at every call of the function."""
        sizes = []

        def score(x):
            sizes.append(len(sys._getframe(2).f_locals["memo"]))
            return 1.0

        fn = _Counting(score)
        points = [(float(k + 1),) for k in range(REPEAT_MEMO_CAP + 1)]
        objective, _ = _run(fn, [points, [points[0]]])
        assert objective.n_evals == REPEAT_MEMO_CAP + 2
        assert len(fn.calls) == REPEAT_MEMO_CAP + 2
        assert max(sizes) == REPEAT_MEMO_CAP
        # Cleared when full: it held only the last new point then.
        assert sizes[-1] == 1

    def test_each_search_scores_its_own_points(self):
        fn = _Counting()
        told = [[], []]
        drive(
            [
                (
                    Objective(fn, n_dims=1, stop_at_zero=False),
                    _scripted([[(1.0,)], [(1.0,)]], told[k]),
                )
                for k in range(2)
            ]
        )
        assert told == [[[1.0], [1.0]], [[1.0], [1.0]]]
        assert fn.calls == [(1.0,), (1.0,)]

    def test_a_label_set_grown_between_searches_is_seen(self, monkeypatch):
        """Algorithm 3 grows ``L`` between rounds: the next search over
        the same W scores its points afresh.  At ``x = 1e308`` fig2's
        ``y = x * x`` overflows, so the probe of ``l2`` reads 0 until
        ``l2`` is in ``L``."""
        executed = _count_executions(monkeypatch)
        wd = WeakDistance(instrument(fig2.make_program(), overflow_spec()))
        asks = [[(1e308,)], [(1e308,)]]
        assert _run(wd, asks)[1] == [[0.0], [0.0]]
        assert len(executed) == 1
        wd.label_sets["L"].add("l2")
        assert _run(wd, asks)[1] == [[1.0], [1.0]]
        assert len(executed) == 2


def _count_executions(monkeypatch):
    """Log every execution of W, wrapped at class level as a tracer
    wraps it (W keeps its ``repeatable`` declaration)."""
    executed = []
    call = WeakDistance.__call__

    def counting(self, x):
        executed.append(x)
        return call(self, x)

    monkeypatch.setattr(WeakDistance, "__call__", counting)
    return executed


def _suite_distance(name, kind):
    program = get_program(name)
    if kind == "overflow":
        return WeakDistance(instrument(program, overflow_spec()))
    if kind == "boundary":
        return WeakDistance(instrument(program, multiplicative_spec()))
    if kind == "coverage":
        return WeakDistance(instrument(program, coverage_spec()))
    return build_path_distance(program)[0]


def _one_start(wd, seed):
    backend = BasinhoppingBackend(niter=4)
    start = DEFAULT_SAMPLER(make_rng(seed), wd.program.num_inputs)
    objective = Objective(
        wd, n_dims=len(start), record_samples=True, stop_at_zero=False
    )
    result = backend.minimize(objective, start, make_rng(seed + 1))
    return result, objective.n_evals, _hex_samples(objective), objective.samples


def _memo_model(points):
    """How many points of the sequence a memo with the documented rule
    executes: a repeat of a stored point is served, a point with a zero
    coordinate is never stored, and a full memo is cleared."""
    stored, executed = set(), 0
    for x in points:
        if x in stored:
            continue
        executed += 1
        if 0.0 not in x:
            if len(stored) >= REPEAT_MEMO_CAP:
                stored.clear()
            stored.add(x)
    return executed


@pytest.mark.parametrize("kind", ("overflow", "boundary", "path", "coverage"))
@pytest.mark.parametrize("name", list(list_programs()))
def test_suite_parity(name, kind, monkeypatch):
    """One basinhopping start on each suite W takes the same points,
    values, count and result with the memo as with every ask scored
    (samples compared bit for bit), and executes W once per point the
    memo rule cannot serve: fewer times wherever the start repeats a
    point (every W here but gsl-hyperg's coverage W)."""
    executed = _count_executions(monkeypatch)
    with_memo = _one_start(_suite_distance(name, kind), seed=11)
    memo_runs = len(executed)
    monkeypatch.setattr(WeakDistance, "repeatable", False)
    executed.clear()
    without = _one_start(_suite_distance(name, kind), seed=11)
    assert with_memo[:3] == without[:3]
    n_evals, points = without[1], [x for x, _ in without[3]]
    assert len(executed) == n_evals
    assert memo_runs == _memo_model(points)
    assert (memo_runs < n_evals) == (len(set(points)) < n_evals)
