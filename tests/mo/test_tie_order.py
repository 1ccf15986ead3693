"""Nelder–Mead's tie order: NumPy's, served from a memo keyed by bits.

SciPy reorders the simplex with ``np.argsort``, which is not stable, so
the in-tree Nelder–Mead asks NumPy for the order of tied values and
memoizes the answer by the values and their signs.  On common
platforms ``np.argsort`` returns ``[0, 1]`` for every tied pair,
``±0.0`` included, so the parity sweep cannot tell a memo keyed by
float equality from one keyed by bits.  A sign-aware fake sort can.
"""

import math

import numpy as np
import pytest

from repro.mo import scipy_backends
from repro.mo.base import Objective
from repro.mo.scipy_backends import (
    TIE_MEMO_CAP,
    BasinhoppingBackend,
    _order,
    _swaps,
)
from repro.util.rng import make_rng


@pytest.fixture(autouse=True)
def empty_memo():
    scipy_backends._TIE_ORDERS.clear()
    yield
    scipy_backends._TIE_ORDERS.clear()


def _fake_argsort(values):
    """A sort that orders ``-0.0`` before ``0.0`` and reverses every
    other tie: a legal unstable sort that the memo must reproduce."""
    values = list(values)
    return np.array(
        sorted(
            range(len(values)),
            key=lambda i: (values[i], math.copysign(1.0, values[i]), -i),
        )
    )


TIED_PAIRS = [
    (0.0, -0.0),
    (-0.0, 0.0),
    (0.0, 0.0),
    (-0.0, -0.0),
    (2.5, 2.5),
    (math.inf, math.inf),
    (-0.0, 0.0),
    (0.0, -0.0),
]

TIED_TRIPLES = [
    (0.0, -0.0, 0.0),
    (-0.0, 0.0, 0.0),
    (0.0, 0.0, -0.0),
    (-0.0, -0.0, -0.0),
    (0.0, 0.0, 0.0),
    (1.0, math.inf, math.inf),
    (3.0, 3.0, 1.0),
    (-0.0, 0.0, -0.0),
]


def test_pair_order_is_the_sorts_order_by_bits(monkeypatch):
    """The 1-D path swaps its vertices exactly when the sort puts the
    second value first, across pairs equal as floats but not as bits."""
    monkeypatch.setattr(np, "argsort", _fake_argsort)
    for f0, f1 in TIED_PAIRS:
        assert _swaps(f0, f1) == (_fake_argsort([f0, f1])[0] == 1), (f0, f1)


def test_simplex_order_is_the_sorts_order_by_bits(monkeypatch):
    """The n-D path returns the vertices in the sort's order."""
    monkeypatch.setattr(np, "argsort", _fake_argsort)
    for fsim in TIED_TRIPLES:
        sim = [[float(k)] for k in range(len(fsim))]
        order = _fake_argsort(fsim).tolist()
        got_sim, got_fsim = _order(sim, list(fsim))
        assert got_sim == [sim[i] for i in order], fsim
        assert [math.copysign(1.0, v) for v in got_fsim] == [
            math.copysign(1.0, fsim[i]) for i in order
        ], fsim


@pytest.mark.parametrize("n_dims", [1, 2])
def test_plateau_start_sorts_once_per_distinct_tie(monkeypatch, n_dims):
    """On a constant plateau every reordering is a tie of one key, so a
    whole basinhopping start calls ``np.argsort`` once."""
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(
        np, "argsort", lambda values: calls.append(tuple(values)) or argsort(values)
    )
    objective = Objective(lambda x: 1.0, n_dims=n_dims, stop_at_zero=False)
    start = [0.5] * n_dims
    result = BasinhoppingBackend(niter=20).minimize(objective, start, make_rng(1))
    assert result.n_evals > 100
    assert len(calls) == len(set(calls)) == len(scipy_backends._TIE_ORDERS) == 1


def test_memo_is_bounded_by_its_cap(monkeypatch):
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(
        np, "argsort", lambda values: calls.append(1) or argsort(values)
    )
    for k in range(TIE_MEMO_CAP + 1):
        _swaps(float(k), float(k))
        assert len(scipy_backends._TIE_ORDERS) <= TIE_MEMO_CAP
    assert len(calls) == TIE_MEMO_CAP + 1
    assert len(scipy_backends._TIE_ORDERS) == 1
