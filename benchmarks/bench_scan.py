"""Project-scan benchmarks: discovery throughput and incremental replay.

Two questions, quantified:

* How cheap is discovery?  Classification (one real lowering per
  function) must stay negligible next to one analysis run —
  `test_prescan_throughput` walks and classifies the repository's own
  ``examples/`` tree and gates on a sane discovery count.

* What does the incremental store buy?  A cold scan pays one campaign
  per distinct lowerable program (equal twins share it); a re-scan
  with unchanged sources must replay every verdict with **zero**
  engine evaluations.  CI gates on
  >= 5x wall-clock (`test_incremental_replay_speedup`) — in practice
  the gap is orders of magnitude, the gate just keeps it from
  silently regressing into re-analysis.
"""

import time

from repro.scan import ScanConfig, scan_project
from repro.scan.classify import discover_functions
from repro.scan.walker import walk_source_files

SEED = 20190622

EXAMPLES = "examples"


def _config(store_dir: str) -> ScanConfig:
    return ScanConfig(
        analyses=("boundary",),
        seed=SEED,
        smoke=True,
        store_dir=store_dir,
    )


def test_prescan_throughput(once):
    """Walk + classify the examples tree; no engine."""

    def prescan():
        files = walk_source_files(EXAMPLES, suffixes=(".py",))
        return discover_functions(files)

    discovered = once(prescan)
    assert len(discovered) >= 8
    assert sum(1 for d in discovered if d.lowerable) >= 5


def test_cold_scan(tmp_path, once):
    """The cold campaign: every distinct lowerable program analyzed once."""
    report = once(
        scan_project, EXAMPLES, _config(str(tmp_path / "store"))
    )
    assert report.n_analyzed >= 5
    assert report.n_evals > 0


def test_incremental_replay_speedup(tmp_path):
    """An unchanged re-scan replays from the store, >= 5x faster."""
    store = str(tmp_path / "store")

    t0 = time.perf_counter()
    cold = scan_project(EXAMPLES, _config(store))
    cold_s = time.perf_counter() - t0
    assert cold.n_analyzed >= 5

    t0 = time.perf_counter()
    warm = scan_project(EXAMPLES, _config(store))
    warm_s = time.perf_counter() - t0
    assert warm.n_analyzed == 0
    assert warm.n_evals == 0
    assert warm.n_cached == len(cold.results)

    speedup = cold_s / max(warm_s, 1e-9)
    print(
        f"\ncold scan {cold_s * 1e3:.0f}ms, replay {warm_s * 1e3:.0f}ms "
        f"({speedup:.0f}x)"
    )
    assert speedup >= 5.0
