"""In-flight dedup: one engine run per (program digest, analysis).

An analysis depends only on the program and the seed, so a scan runs
each (digest, analysis) key once and reports every other function with
the same key as ``shared`` with that run.  The project here holds a
C kernel, its equal Python twin, and one distinct function.
"""

import json

import pytest

from repro.api import EngineConfig, Session
from repro.api.events import JobStarted
from repro.api.report import finding_to_dict
from repro.core.batch import BatchJob
from repro.scan import ScanConfig, scan_exit_code, scan_project
from repro.scan.orchestrator import _job_params
from repro.scan.report import (
    FROM_ENGINE,
    FROM_SHARED,
    FROM_STORE,
    render_scan_report,
    scan_report_to_dict,
)

TWIN_PY = (
    "def edgy(x):\n"
    "    if x < 1.0:\n"
    "        return x + 1.0\n"
    "    return x * 3.0\n"
)
TWIN_C = (
    "double edgy(double x) {\n"
    "    if (x < 1.0) {\n"
    "        return x + 1.0;\n"
    "    }\n"
    "    return x * 3.0;\n"
    "}\n"
)
OTHER_PY = "def smooth(x):\n    return x * 2.0 + 1.0\n"

ANALYSES = ("boundary", "overflow")


@pytest.fixture
def project(tmp_path):
    root = tmp_path / "proj"
    root.mkdir()
    (root / "twin.py").write_text(TWIN_PY)
    (root / "twin.c").write_text(TWIN_C)
    (root / "other.py").write_text(OTHER_PY)
    return root


def _config(store, **kwargs):
    return ScanConfig(
        analyses=ANALYSES, smoke=True, store_dir=str(store), **kwargs
    )


def _essence(report):
    return [
        (
            r.target, r.analysis, r.source, r.shared_with, r.digest,
            r.verdict, r.findings, r.n_evals, r.error,
        )
        for r in report.results
    ]


def _store_keys(store):
    lines = (store / "results.jsonl").read_text().splitlines()
    return [
        (record["digest"], record["analysis"], record["fingerprint"])
        for record in map(json.loads, lines)
    ]


class TestColdScan:
    def test_one_job_per_digest_and_analysis(self, project, tmp_path):
        events = []
        config = _config(tmp_path / "store", on_event=events.append)
        report = scan_project(str(project), config)
        keys = {(r.digest, r.analysis) for r in report.results}
        assert len(report.results) == 3 * len(ANALYSES)
        assert len(keys) == 2 * len(ANALYSES)
        started = [e for e in events if isinstance(e, JobStarted)]
        assert len(started) == len(keys)
        assert report.n_analyzed == len(keys)
        assert report.n_shared == len(ANALYSES)
        assert report.n_analyzed + report.n_shared == len(report.results)
        # Persisted once per key.
        assert sorted(_store_keys(tmp_path / "store")) == sorted(
            (d, a, config.fingerprint()) for d, a in keys
        )

    def test_follower_names_its_leader(self, project, tmp_path):
        report = scan_project(str(project), _config(tmp_path / "store"))
        by_key = {(r.target, r.analysis): r for r in report.results}
        followers = [r for r in report.results if r.source == FROM_SHARED]
        assert {r.target.rpartition("/")[2] for r in followers} <= {
            "twin.py::edgy",
            "twin.c::edgy",
        }
        for follower in followers:
            leader = by_key[(follower.shared_with, follower.analysis)]
            assert leader.source == FROM_ENGINE
            assert leader.target != follower.target
            assert leader.digest == follower.digest
            assert leader.verdict == follower.verdict
            assert leader.findings == follower.findings
            assert leader.findings is not follower.findings
            assert leader.n_evals == follower.n_evals > 0
        # Shared results cost no evaluations of their own.
        assert report.n_evals == sum(
            r.n_evals for r in report.results if r.source == FROM_ENGINE
        )
        assert report.n_evals < sum(r.n_evals for r in report.results)

    def test_follower_matches_its_own_run(self, project, tmp_path):
        """What the follower reports is what running its own job would
        have found: same verdict, findings and evaluation count."""
        from repro.core.batch import job_request

        config = _config(tmp_path / "store")
        report = scan_project(str(project), config)
        followers = [r for r in report.results if r.source == FROM_SHARED]
        assert followers
        with Session(EngineConfig(n_workers=1)) as session:
            for follower in followers:
                request = job_request(
                    BatchJob(
                        analysis=follower.analysis,
                        target=follower.target,
                        seed=config.seed,
                        params=_job_params(config),
                    )
                )
                own = session.run(
                    request.analysis,
                    request.target,
                    spec=request.spec,
                    config=request.config,
                    **request.options,
                )
                assert own.verdict == follower.verdict
                assert [
                    finding_to_dict(f) for f in own.findings
                ] == follower.findings
                assert own.n_evals == follower.n_evals

    def test_reports_count_shared_results(self, project, tmp_path):
        report = scan_project(str(project), _config(tmp_path / "store"))
        text = render_scan_report(report)
        assert f"{report.n_analyzed} run(s) executed, " in text
        assert f"{report.n_shared} shared with an identical function, " in text
        payload = json.loads(json.dumps(scan_report_to_dict(report)))
        assert payload["n_shared"] == report.n_shared
        assert (
            payload["n_analyzed"] + payload["n_shared"]
            == len(payload["results"])
        )
        for result in payload["results"]:
            assert bool(result["shared_with"]) == (result["source"] == FROM_SHARED)


class TestDeterminism:
    def test_serial_and_parallel_share_identically(self, project, tmp_path):
        serial = scan_project(str(project), _config(tmp_path / "s1"))
        parallel = scan_project(
            str(project), _config(tmp_path / "s2", n_workers=2)
        )
        assert _essence(serial) == _essence(parallel)
        assert _store_keys(tmp_path / "s1") == _store_keys(tmp_path / "s2")

    def test_warm_rescan_replays_everything(self, project, tmp_path):
        cold = scan_project(str(project), _config(tmp_path / "store"))
        events = []
        warm = scan_project(
            str(project), _config(tmp_path / "store", on_event=events.append)
        )
        assert events == []
        assert warm.n_evals == 0
        assert warm.n_analyzed == 0 and warm.n_shared == 0
        assert warm.n_cached == len(cold.results)
        assert all(r.source == FROM_STORE for r in warm.results)
        assert [(r.target, r.verdict, r.findings) for r in warm.results] == [
            (r.target, r.verdict, r.findings) for r in cold.results
        ]


class TestFailedLeader:
    def test_follower_carries_the_error_and_nothing_persists(
        self, project, tmp_path, monkeypatch
    ):
        import repro.core.batch as batch

        def broken(job):
            raise RuntimeError("engine unavailable")

        monkeypatch.setattr(batch, "job_request", broken)
        store = tmp_path / "store"
        report = scan_project(str(project), _config(store))
        followers = [r for r in report.results if r.source == FROM_SHARED]
        assert followers
        assert all(
            r.error == "RuntimeError: engine unavailable" for r in report.results
        )
        assert report.n_evals == 0
        assert scan_exit_code(report) == 3
        assert not (store / "results.jsonl").exists()
