"""Shared infrastructure for the experiment harness.

Every module in :mod:`repro.experiments` regenerates one of the paper's
tables or figures and exposes::

    run(quick: bool = False, seed: int | None = None) -> ExperimentResult

``quick`` selects a reduced sampling budget (used by the benchmark
suite and CI); the default budget targets the paper's qualitative
results on a laptop.  All randomness flows from the single seed.
"""

from __future__ import annotations

import atexit
import dataclasses
import os
from typing import Any, Dict, List, Optional, Sequence

from repro.util.tables import format_table

#: Shared sessions, keyed by worker count.  The whole experiment
#: harness runs hundreds of analyses; sharing one session across them
#: keeps its workers warm, lets the pool's program cache carry compiled
#: programs from one table to the next, and lets the session's round
#: cache serve a campaign another table already ran (Table 5 replays
#: Table 3's overflow campaigns).
_SHARED_SESSIONS: Dict[int, Any] = {}


def shared_session(n_workers: int):
    """The harness-wide :class:`repro.api.session.Session` for
    ``n_workers`` (serial for ``n_workers <= 1``)."""
    n_workers = max(1, n_workers)
    session = _SHARED_SESSIONS.get(n_workers)
    if session is None or session.closed:
        from repro.api import EngineConfig, Session

        session = Session(EngineConfig(n_workers=n_workers))
        _SHARED_SESSIONS[n_workers] = session
    return session


def close_shared_sessions() -> None:
    """Close the harness sessions and their pools (atexit, and between
    timed runs, so a run does not time another run's cached rounds)."""
    while _SHARED_SESSIONS:
        _, session = _SHARED_SESSIONS.popitem()
        session.close()


atexit.register(close_shared_sessions)


def run_analysis(
    name: str,
    target: Any,
    *,
    seed: Optional[int] = None,
    backend: Any = None,
    backend_options: Optional[Dict[str, Any]] = None,
    n_starts: Optional[int] = None,
    max_rounds: Optional[int] = None,
    sampler: Any = None,
    spec: Any = None,
    n_workers: Optional[int] = None,
    **options: Any,
):
    """Run one analysis through the :mod:`repro.api` facade.

    Every experiment drives its analyses through this helper, so the
    whole harness inherits the engine's seeding discipline and runs in
    one *shared* :class:`~repro.api.session.Session` per worker count,
    kept for the whole process.  Setting ``REPRO_WORKERS=N`` in the
    environment fans each round's starts across that session's worker
    pool without touching any table script.
    """
    from repro.api import EngineConfig

    if n_workers is None:
        n_workers = int(os.environ.get("REPRO_WORKERS", "1") or 1)
    config = EngineConfig(
        seed=seed,
        n_workers=n_workers,
        backend=backend,
        backend_options=backend_options or {},
        n_starts=n_starts,
        max_rounds=max_rounds,
        start_sampler=sampler,
    )
    return shared_session(n_workers).run(
        name, target, spec=spec, config=config, **options
    )


@dataclasses.dataclass
class ExperimentResult:
    """Uniform container for a regenerated table/figure."""

    name: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[Any]]
    #: Free-form extra data (series for figures, raw reports...).
    data: Dict[str, Any] = dataclasses.field(default_factory=dict)
    notes: str = ""

    def to_text(self) -> str:
        lines = [f"== {self.name}: {self.title} =="]
        lines.append(format_table(self.headers, self.rows))
        if self.notes:
            lines.append("")
            lines.append(self.notes)
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.to_text()


def render_ascii_series(
    xs: Sequence[float],
    ys: Sequence[float],
    width: int = 64,
    height: int = 12,
) -> str:
    """Tiny ASCII scatter for figure-style experiments (no matplotlib
    offline)."""
    if not xs:
        return "(no data)"
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y in zip(xs, ys):
        col = int((x - x_lo) / x_span * (width - 1))
        row = height - 1 - int((y - y_lo) / y_span * (height - 1))
        grid[row][col] = "*"
    lines = ["".join(row) for row in grid]
    lines.append(f"x: [{x_lo:.3g}, {x_hi:.3g}]  y: [{y_lo:.3g}, {y_hi:.3g}]")
    return "\n".join(lines)
