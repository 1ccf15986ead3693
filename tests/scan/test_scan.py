"""The scan campaign end-to-end: incrementality, baselines, exit codes.

The acceptance bar for the scanner: an immediate re-scan with
unchanged sources runs *zero* engine evaluations (every verdict
replays from the store, keyed by lowered-FPIR digest), an edited
function re-analyzes exactly itself, and ``--baseline`` suppresses
accepted findings without hiding new ones.
"""

import json
import os

import pytest

from repro.scan import ScanConfig, scan_exit_code, scan_project
from repro.scan.report import FROM_ENGINE, FROM_STORE, scan_report_to_dict
from repro.scan.store import STORE_VERSION

#: One function with a boundary finding (the x == 1.0 edge), one
#: condition-free function no boundary analysis can find anything in.
EDGY = "def edgy(x):\n    if x < 1.0:\n        return x + 1.0\n    return x\n"
SMOOTH = "def smooth(x):\n    return x * 2.0 + 1.0\n"


def _project(tmp_path, files):
    root = tmp_path / "proj"
    root.mkdir()
    for name, source in files.items():
        (root / name).write_text(source)
    return root


def _bump_mtime(path):
    """Force a new mtime tick so the file-target cache invalidates."""
    stat = path.stat()
    os.utime(path, (stat.st_atime, stat.st_mtime + 1))


def _config(**kwargs):
    kwargs.setdefault("analyses", ("boundary",))
    kwargs.setdefault("smoke", True)
    return ScanConfig(**kwargs)


class TestIncrementalScan:
    def test_rescan_of_unchanged_sources_runs_nothing(self, tmp_path):
        root = _project(tmp_path, {"a.py": EDGY, "b.py": SMOOTH})
        events = []
        first = scan_project(str(root), _config(on_event=events.append))
        assert first.n_analyzed == 2 and first.n_cached == 0
        assert first.n_evals > 0
        assert events, "the first scan must actually run jobs"

        events.clear()
        second = scan_project(str(root), _config(on_event=events.append))
        assert second.n_analyzed == 0 and second.n_cached == 2
        assert second.n_evals == 0
        assert events == [], "a fully cached re-scan emits no job events"
        assert all(r.source == FROM_STORE for r in second.results)
        # Replayed verdicts and findings are the stored ones.
        assert {r.verdict for r in second.results} == {
            r.verdict for r in first.results
        }

    def test_edited_function_reanalyzes_exactly_itself(self, tmp_path):
        root = _project(tmp_path, {"a.py": EDGY, "b.py": SMOOTH})
        scan_project(str(root), _config())

        # Rewrite b.py with a changed body; a.py is untouched.
        (root / "b.py").write_text(
            "def smooth(x):\n    return x * 4.0 + 1.0\n"
        )
        _bump_mtime(root / "b.py")
        second = scan_project(str(root), _config())
        by_target = {r.target: r for r in second.results}
        assert by_target[f"{root}/b.py::smooth"].source == FROM_ENGINE
        assert by_target[f"{root}/a.py::edgy"].source == FROM_STORE
        assert second.n_analyzed == 1 and second.n_cached == 1

    def test_comment_edit_still_replays_fully(self, tmp_path):
        """The store key is the lowered FPIR, not the source text."""
        root = _project(tmp_path, {"a.py": EDGY})
        scan_project(str(root), _config())
        (root / "a.py").write_text("# a comment\n" + EDGY)
        _bump_mtime(root / "a.py")
        second = scan_project(str(root), _config())
        assert second.n_analyzed == 0 and second.n_cached == 1
        assert second.n_evals == 0

    def test_different_config_does_not_replay(self, tmp_path):
        root = _project(tmp_path, {"a.py": EDGY})
        scan_project(str(root), _config(seed=0))
        second = scan_project(str(root), _config(seed=1))
        assert second.n_analyzed == 1 and second.n_cached == 0


class TestBaseline:
    def test_baseline_suppresses_old_but_not_new_findings(self, tmp_path):
        root = _project(tmp_path, {"a.py": EDGY})
        first = scan_project(
            str(root), _config(update_baseline=True)
        )
        assert first.findings and scan_exit_code(first) == 1

        # With the baseline accepted, the same findings stay green.
        accepted = scan_project(str(root), _config(baseline=True))
        assert accepted.findings
        assert not accepted.new_findings
        assert scan_exit_code(accepted) == 0

        # A new function with a new finding fails the gate again.
        (root / "c.py").write_text(
            "def edgy2(x):\n    if x < 2.0:\n        return x + 1.0\n"
            "    return x\n"
        )
        regressed = scan_project(str(root), _config(baseline=True))
        assert regressed.new_findings
        assert all(
            f["target"].endswith("c.py::edgy2") for f in regressed.new_findings
        )
        assert scan_exit_code(regressed) == 1


class TestExitCodesAndReport:
    def test_clean_scan_exits_zero(self, tmp_path):
        root = _project(tmp_path, {"b.py": SMOOTH})
        report = scan_project(str(root), _config())
        assert not report.findings and not report.partial
        assert scan_exit_code(report) == 0

    def test_findings_exit_one(self, tmp_path):
        root = _project(tmp_path, {"a.py": EDGY})
        report = scan_project(str(root), _config())
        assert report.findings
        assert scan_exit_code(report) == 1

    def test_skips_carry_located_reasons(self, tmp_path):
        root = _project(
            tmp_path, {"a.py": SMOOTH, "s.py": "def f(xs):\n    return xs[0]\n"}
        )
        report = scan_project(str(root), _config())
        (skip,) = report.skipped
        assert skip.spec.endswith("s.py::f")
        assert skip.skip_reason.startswith("line 2:")

    def test_json_report_is_serializable_and_versioned(self, tmp_path):
        root = _project(tmp_path, {"a.py": EDGY})
        report = scan_project(str(root), _config())
        payload = json.loads(json.dumps(scan_report_to_dict(report)))
        assert payload["version"] == STORE_VERSION
        assert payload["exit_code"] == 1
        assert payload["n_lowerable"] == 1
        (result,) = payload["results"]
        assert result["findings"]

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            scan_project(str(tmp_path / "nope"), _config())

    def test_smoke_rejects_rounds(self, tmp_path):
        """A smoke scan ignores ``rounds``; accepting it would change
        the store fingerprint without changing what runs."""
        root = _project(tmp_path, {"b.py": SMOOTH})
        with pytest.raises(ValueError, match="rounds cannot be combined"):
            scan_project(str(root), _config(rounds=2))
        assert not (root / ".repro-scan").exists()

    def test_smoke_jobs_carry_no_budget_knobs(self, tmp_path, monkeypatch):
        """A smoke job runs the smoke budget, so the scan sends neither
        ``rounds`` nor ``max_samples``: ``job_request`` rejects them
        next to ``smoke`` rather than dropping them."""
        import repro.core.batch as batch

        jobs = []
        run_batch = batch.run_batch

        def recording_run_batch(batch_jobs, **kwargs):
            jobs.extend(batch_jobs)
            return run_batch(batch_jobs, **kwargs)

        monkeypatch.setattr(batch, "run_batch", recording_run_batch)
        root = _project(tmp_path, {"a.py": EDGY})
        report = scan_project(str(root), _config(analyses=("boundary", "overflow")))
        assert len(jobs) == 2
        assert [r.error for r in report.results] == ["", ""]
        for job in jobs:
            assert job.param("smoke") is True
            assert not {name for name, _ in job.params} & {"rounds", "max_samples"}

    def test_non_smoke_jobs_keep_their_budget_knobs(self):
        from repro.scan.orchestrator import _job_params

        assert _job_params(_config(smoke=False, rounds=5)) == (("rounds", 5),)
        assert _job_params(_config(smoke=False)) == (("rounds", 20),)


@pytest.mark.slow
class TestParallelParity:
    def test_serial_and_parallel_scans_bit_identical(self, tmp_path):
        root = _project(tmp_path, {"a.py": EDGY, "b.py": SMOOTH})
        serial = scan_project(
            str(root), _config(store_dir=str(tmp_path / "s1"))
        )
        parallel = scan_project(
            str(root), _config(n_workers=4, store_dir=str(tmp_path / "s4"))
        )

        def essence(report):
            return [
                (r.target, r.analysis, r.verdict, r.findings)
                for r in report.results
            ]

        assert essence(serial) == essence(parallel)
