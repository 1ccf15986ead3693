"""The command-line front-end."""

import pytest

from repro.api import available_analyses
from repro.cli import main


class TestList:
    def test_lists_programs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2", "gsl-bessel", "glibc-sin"):
            assert name in out

    def test_lists_registered_analyses(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in available_analyses():
            assert name in out


class TestGeneratedRun:
    """`repro run <analysis>` subcommands come from the registry."""

    @pytest.mark.parametrize("name", available_analyses())
    def test_smoke_run_every_registered_analysis(self, name, capsys):
        assert main(["run", name, "--smoke", "--seed", "1"]) == 0
        assert capsys.readouterr().out.strip()

    def test_unknown_analysis_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "mystery", "fig2"])
        assert excinfo.value.code == 2

    def test_workers_flag(self, capsys):
        code = main([
            "run", "coverage", "fig2", "--smoke", "--seed", "2",
            "--workers", "2",
        ])
        assert code == 0
        assert "branch coverage" in capsys.readouterr().out

    def test_run_fpod_alias(self, capsys):
        code = main([
            "run", "overflow", "fig2", "--seed", "3", "--niter", "15",
        ])
        assert code == 0
        assert "instructions overflowed" in capsys.readouterr().out

    def test_run_path(self, capsys):
        code = main([
            "run", "path", "fig2", "--seed", "4",
            "--constraint", "b1:T", "--constraint", "b2:F",
        ])
        assert code == 0
        assert "path" in capsys.readouterr().out


class TestKnobRange:
    """A budget flag below its minimum is a usage error naming the
    flag; before the knob rule these crashed, ran a zero-work round,
    or silently ran the default budget."""

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["run", "path", "fig2", "--starts", "-1"], "--starts"),
            (["run", "path", "fig2", "--starts", "0"], "--starts"),
            (["run", "overflow", "fig2", "--rounds", "-1"], "--rounds"),
            (["run", "overflow", "fig2", "--rounds", "0"], "--rounds"),
            (["run", "coverage", "fig2", "--workers", "-2"], "--workers"),
            (["run", "coverage", "fig2", "--seed", "-1"], "--seed"),
            (["run", "coverage", "fig2", "--niter", "0"], "--niter"),
            (["run", "overflow", "fig2", "--retries", "0"], "--retries"),
            (["run", "boundary", "fig2", "--samples", "0"], "--samples"),
            # No such target or directory and an unreachable server:
            # without the rule these fail fast, but not with usage errors.
            (["batch", "--targets", "nope", "--workers", "0"], "--workers"),
            (["batch", "--targets", "nope", "--rounds", "0"], "--rounds"),
            (["scan", "no-such-dir", "--starts", "0"], "--starts"),
            (["scan", "no-such-dir", "--seed", "-1"], "--seed"),
            (["client", "--url", "http://127.0.0.1:1", "submit", "path", "fig2",
              "--max-samples", "0"], "--max-samples"),
        ],
        ids=lambda a: " ".join(a) if isinstance(a, list) else a,
    )
    def test_flag_below_its_minimum_exits_two(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err

    def test_minimums_are_accepted(self, capsys):
        code = main([
            "run", "path", "fig2", "--seed", "0", "--starts", "1",
            "--rounds", "1", "--niter", "1", "--workers", "1",
        ])
        assert code == 0
        assert "path" in capsys.readouterr().out


class TestSat:
    def test_sat_verdict(self, capsys):
        code = main([
            "run", "sat", "x < 1 && x + 1 >= 2",
            "--range", "10", "--seed", "5", "--starts", "30",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict: sat" in out
        assert "0.9999999999999999" in out

    def test_unknown_verdict(self, capsys):
        code = main([
            "run", "sat", "x > 1 && x < 0", "--range", "10", "--seed", "5",
            "--starts", "3",
        ])
        assert code == 0
        assert "verdict: unknown" in capsys.readouterr().out

    def test_naive_metric_option(self, capsys):
        code = main([
            "run", "sat", "x == 3", "--metric", "naive", "--range", "10",
            "--seed", "5", "--starts", "5",
        ])
        assert code == 0
        assert "verdict: sat" in capsys.readouterr().out


class TestFpod:
    def test_fpod_on_hyperg(self, capsys):
        code = main(["run", "overflow", "gsl-hyperg", "--seed", "7",
                     "--niter", "20", "--retries", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "/8 instructions overflowed" in out

    def test_unknown_program(self):
        with pytest.raises(KeyError):
            main(["run", "overflow", "no-such-program"])


class TestSessionFlags:
    def test_racing_flag(self, capsys):
        code = main([
            "run", "path", "fig2", "--seed", "6", "--starts", "4",
            "--workers", "2", "--racing",
        ])
        assert code == 0
        assert "path" in capsys.readouterr().out

    def test_progress_flag_streams_round_events(self, capsys):
        code = main([
            "run", "coverage", "fig2", "--smoke", "--seed", "2",
            "--progress",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "branch coverage" in captured.out
        assert "round 0" in captured.err
        assert "finished:" in captured.err


class TestBatchFormulas:
    def test_sat_campaign_from_file(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("x < 1 && x + 1 >= 2\nx > 1 && x < 0\n")
        code = main([
            "batch", "--analyses", "sat", "--formulas", str(corpus),
            "--seed", "12", "--niter", "15", "--starts", "5",
            "--workers", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "corpus:1" in out and "corpus:2" in out
        assert "sat" in out and "unknown" in out

    def test_sat_without_formulas_rejected(self, capsys):
        code = main(["batch", "--analyses", "sat"])
        assert code == 2
        assert "--formulas" in capsys.readouterr().err

    def test_formulas_without_sat_rejected(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("x == 3\n")
        code = main([
            "batch", "--analyses", "fpod", "--formulas", str(corpus),
        ])
        assert code == 2
        assert "requires 'sat'" in capsys.readouterr().err


class TestTargetsCommand:
    def test_lists_programs_and_spec_grammar(self, capsys):
        assert main(["targets"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out
        assert "pkg.mod:fn" in out
        assert "file.py::fn" in out

    def test_resolve_suite_name(self, capsys):
        assert main(["targets", "--resolve", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "entry prog(x)" in out
        assert "1 double input(s)" in out

    def test_resolve_python_file_spec(self, capsys):
        code = main([
            "targets", "--resolve",
            "examples/python_targets.py::sum_of_sines",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "entry sum_of_sines(x, y)" in out
        assert "2 function(s)" in out

    def test_resolve_bad_spec(self, capsys):
        code = main([
            "targets", "--resolve", "examples/python_targets.py::nope",
        ])
        assert code == 2
        assert "no function named" in capsys.readouterr().err


class TestPythonTargets:
    def test_run_boundary_on_python_file_target(self, capsys):
        code = main([
            "run", "boundary", "--smoke", "--seed", "1",
            "--target", "examples/python_targets.py::fig2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "examples/python_targets.py::fig2" in out
        assert "soundness replay OK" in out

    def test_run_coverage_on_module_target(self, capsys):
        code = main([
            "run", "coverage", "--smoke", "--seed", "2",
            "--target", "examples.python_targets:fig1a",
        ])
        assert code == 0
        assert "branch coverage" in capsys.readouterr().out

    def test_frontend_diagnostic_reaches_user(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x):\n    return [x]\n")
        code = main([
            "run", "coverage", "--smoke", "--seed", "1",
            "--target", f"{bad}::f",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "not supported" in err
        assert "return [x]" in err

    def test_bad_spec_exits_cleanly(self, capsys):
        code = main([
            "run", "coverage", "--smoke", "--seed", "1",
            "--target", "examples/python_targets.py::",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_batch_crosses_python_targets(self, capsys):
        code = main([
            "batch", "--analyses", "coverage",
            "--targets", "fig2,examples/python_targets.py::fig1a",
            "--seed", "5", "--niter", "10", "--rounds", "4",
            "--workers", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "examples/python_targets.py::fig1a" in out
        assert "branch coverage" in out


class TestEventsOut:
    def test_run_writes_jsonl(self, tmp_path, capsys):
        import json

        out = tmp_path / "events.jsonl"
        code = main([
            "run", "coverage", "fig2", "--smoke", "--seed", "2",
            "--events-out", str(out),
        ])
        assert code == 0
        records = [
            json.loads(line) for line in out.read_text().splitlines()
        ]
        assert records[0]["event"] == "JobStarted"
        assert records[-1]["event"] == "JobFinished"
        assert any(r["event"] == "RoundFinished" for r in records)

    def test_batch_writes_jsonl(self, tmp_path, capsys):
        import json

        out = tmp_path / "events.jsonl"
        code = main([
            "batch", "--analyses", "coverage", "--targets", "fig2",
            "--seed", "3", "--niter", "10", "--rounds", "4",
            "--events-out", str(out),
        ])
        assert code == 0
        records = [
            json.loads(line) for line in out.read_text().splitlines()
        ]
        assert sum(r["event"] == "JobFinished" for r in records) == 1


class TestBoundaryAndCoverage:
    def test_boundary_fig2(self, capsys):
        code = main([
            "run", "boundary", "fig2", "--seed", "1",
            "--samples", "10000", "--starts", "5", "--niter", "60",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "soundness replay OK" in out

    def test_coverage_fig2(self, capsys):
        code = main(["run", "coverage", "fig2", "--seed", "3",
                     "--rounds", "15", "--niter", "50"])
        assert code == 0
        assert "branch coverage" in capsys.readouterr().out


class TestScan:
    """`repro scan PATH` — the whole-project incremental front-end."""

    def _project(self, tmp_path):
        root = tmp_path / "proj"
        root.mkdir()
        (root / "edgy.py").write_text(
            "def edgy(x):\n    if x < 1.0:\n        return x + 1.0\n"
            "    return x\n"
        )
        (root / "smooth.py").write_text(
            "def smooth(x):\n    return x * 2.0 + 1.0\n"
        )
        return root

    def test_scan_finds_and_exits_one(self, tmp_path, capsys):
        root = self._project(tmp_path)
        code = main(["scan", str(root), "--smoke"])
        out = capsys.readouterr().out
        assert code == 1
        assert "2 lowerable" in out
        assert "boundary-condition" in out

    def test_rescan_replays_from_store(self, tmp_path, capsys):
        root = self._project(tmp_path)
        main(["scan", str(root), "--smoke"])
        capsys.readouterr()
        code = main(["scan", str(root), "--smoke"])
        out = capsys.readouterr().out
        assert code == 1  # findings replay, still a red gate
        assert "0 run(s) executed" in out
        assert "2 replayed from store" in out
        assert "0 engine evaluations" in out

    def test_json_output(self, tmp_path, capsys):
        import json

        root = self._project(tmp_path)
        code = main(["scan", str(root), "--smoke", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == payload["exit_code"] == 1
        assert payload["n_lowerable"] == 2

    def test_baseline_gate(self, tmp_path, capsys):
        root = self._project(tmp_path)
        assert main(["scan", str(root), "--smoke", "--update-baseline"]) == 1
        capsys.readouterr()
        code = main(["scan", str(root), "--smoke", "--baseline"])
        out = capsys.readouterr().out
        assert code == 0
        assert "baseline finding(s) suppressed" in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = tmp_path / "clean"
        root.mkdir()
        (root / "smooth.py").write_text(
            "def smooth(x):\n    return x * 2.0 + 1.0\n"
        )
        assert main(["scan", str(root), "--smoke"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_bad_path_exits_two(self, tmp_path, capsys):
        assert main(["scan", str(tmp_path / "nope"), "--smoke"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_formula_analysis_rejected(self, tmp_path, capsys):
        root = self._project(tmp_path)
        assert main(["scan", str(root), "--analyses", "sat"]) == 2
        assert "program-kind" in capsys.readouterr().err

    def test_smoke_with_rounds_exits_two(self, tmp_path, capsys):
        """``--smoke`` runs each analysis's smoke budget, so a
        ``--rounds`` next to it would be fingerprinted and ignored."""
        root = self._project(tmp_path)
        assert main(["scan", str(root), "--smoke", "--rounds", "2"]) == 2
        assert "rounds cannot be combined with smoke" in capsys.readouterr().err
