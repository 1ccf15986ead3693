"""Fast self-test of the benchmark harness at tiny sizes.

Runs every workload on two jobs (the scan on one small C file), checks
that each metric ``BENCHMARK.json`` names is emitted with its unit,
untraced and traced, and that the reference comparison catches a
deliberately altered verdict and altered findings.

Usage (from the repository root): python3 perfbench/selftest.py
"""

from __future__ import annotations

import argparse
import copy
import json
import sys

import run

LIMIT = 2


def _args(workload: str, trace: int) -> argparse.Namespace:
    return argparse.Namespace(
        workload=workload,
        seed=7,
        analysis_seed=run.DEFAULT_SEED,
        seconds=0.1,
        trace=trace,
        limit=LIMIT,
    )


def _check_metrics(out, declared, label: str) -> None:
    emitted = {name: m["unit"] for name, m in out["metrics"].items()}
    expected = {m["name"]: m["unit"] for m in declared}
    assert emitted == expected, f"{label}: metrics {emitted} != declared {expected}"
    for name, metric in out["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and value == value, f"{label}: {name}={value}"


def check_reference_comparison() -> None:
    reference = json.loads((run.REFERENCE_DIR / "serve-mixed.json").read_text())
    jobs = [
        dict(key=key, verdict=ref["verdict"], findings=ref["findings"], error="")
        for key, ref in reference["jobs"].items()
    ]
    attempted, failures = run.compare(jobs, reference)
    assert attempted == len(jobs) and not failures, failures
    altered = copy.deepcopy(jobs)
    altered[0]["verdict"] = "found" if jobs[0]["verdict"] != "found" else "not-found"
    _, failures = run.compare(altered, reference)
    assert len(failures) == 1 and "verdict" in failures[0], failures
    altered = copy.deepcopy(jobs)
    altered[1]["findings"] = altered[1]["findings"] + [["overflow", "l99"]]
    _, failures = run.compare(altered, reference)
    assert len(failures) == 1 and "findings" in failures[0], failures
    _, failures = run.check_run({"jobs": jobs[1:]}, reference)
    assert failures == [f"{jobs[0]['key']}: never ran"], failures


def main() -> int:
    run.check_sources()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_reference_comparison()
    print("reference comparison: ok", flush=True)
    for workload in run.WORKLOADS:
        out = run.run(_args(workload, 0))
        assert out["correct"] and out["attempted"] >= 1, out
        _check_metrics(out, spec["end_to_end"], workload)
        print(f"{workload}: {len(out['metrics'])} end-to-end metrics ok", flush=True)
    out = run.run(_args("suite-scalar", 1))
    assert out["correct"], out
    _check_metrics(out, spec["per_layer"], "suite-scalar traced")
    assert out["metrics"]["core.weak_distance.evals"]["value"] > 0, out
    print(f"suite-scalar traced: {len(out['metrics'])} per-layer metrics ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
