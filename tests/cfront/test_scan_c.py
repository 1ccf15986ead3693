"""Whole-project scanning over C sources.

``repro scan`` walks ``.c`` files next to ``.py`` files; the C
classifier is *exact* (it attempts the real lowering per candidate),
and the incremental store treats C targets like any other: an
unchanged re-scan replays every verdict with zero engine
evaluations.
"""

import shutil
from pathlib import Path

from repro.cfront import lower_c_file
from repro.cfront.classify import discover_c_functions
from repro.scan import ScanConfig, scan_project
from repro.scan.classify import discover_functions
from repro.scan.report import FROM_STORE
from repro.scan.walker import walk_source_files

EXAMPLES_C = Path("examples/c")


def _vendored_records():
    files = sorted(EXAMPLES_C.glob("*.c"))
    assert files, "vendored kernels must exist"
    return discover_c_functions(files)


def _c_project(tmp_path):
    """A scratch copy of examples/c (scans write a .repro-scan store)."""
    root = tmp_path / "proj"
    root.mkdir()
    for path in EXAMPLES_C.glob("*.c"):
        shutil.copy(path, root / path.name)
    return root


def _config(**kwargs):
    kwargs.setdefault("analyses", ("boundary",))
    kwargs.setdefault("smoke", True)
    return ScanConfig(**kwargs)


class TestClassifier:
    def test_every_admitted_function_lowers(self):
        """Exactness, exercised over the vendored kernels:
        ``lowerable=True`` records really lower."""
        records = _vendored_records()
        admitted = [r for r in records if r.lowerable]
        assert len(admitted) >= 6  # 3 fig + bessel(+helper counted? no) ...
        for record in admitted:
            program = lower_c_file(record.path, record.name)
            assert program.entry == record.name

    def test_rejections_carry_real_lowering_reasons(self, tmp_path):
        source = (
            "double good(double x) { return x + 1.0; }\n"
            "int bad_type(double x) { return 1; }\n"
            "double bad_body(double x) { double a[2]; return x; }\n"
            "double no_params(void) { return 1.0; }\n"
        )
        path = tmp_path / "mixed.c"
        path.write_text(source)
        by_name = {r.name: r for r in discover_c_functions([path])}
        assert by_name["good"].lowerable
        assert by_name["good"].n_params == 1
        assert not by_name["bad_type"].lowerable
        assert "not double" in by_name["bad_type"].skip_reason
        assert not by_name["bad_body"].lowerable
        assert "line 3" in by_name["bad_body"].skip_reason
        assert not by_name["no_params"].lowerable
        assert "no input domain" in by_name["no_params"].skip_reason

    def test_unparseable_file_is_one_located_record(self, tmp_path):
        path = tmp_path / "torn.c"
        path.write_text("double f(double x) { return x; } /* unterminated")
        (record,) = discover_c_functions([path])
        assert record.name == ""
        assert not record.lowerable
        assert "invalid C" in record.skip_reason

    def test_mixed_language_discovery(self, tmp_path):
        """discover_functions routes .c and .py files to their own
        classifiers and returns one merged, ordered record list."""
        (tmp_path / "a.py").write_text("def f(x):\n    return x + 1.0\n")
        (tmp_path / "b.c").write_text(
            "double g(double x) { return x * 2.0; }\n"
        )
        records = discover_functions(
            [tmp_path / "a.py", tmp_path / "b.c"]
        )
        specs = {r.spec for r in records if r.lowerable}
        assert any(s.endswith("a.py::f") for s in specs)
        assert any(s.endswith("b.c::g") for s in specs)


class TestWalker:
    def test_walk_source_files_picks_up_both_suffixes(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "b.c").write_text("int x;\n")
        (tmp_path / "c.h").write_text("int y;\n")
        names = {Path(p).name for p in walk_source_files(str(tmp_path))}
        assert names == {"a.py", "b.c"}


class TestOneLoweringPerFunction:
    def test_cold_scan_parses_each_file_once_and_lowers_each_function_once(
        self, tmp_path, monkeypatch
    ):
        """The campaign runs the program the classifier lowered: a
        cold scan parses each ``.c`` file once and lowers each C
        function once."""
        from repro.cfront import lower as lower_mod
        from repro.cfront import parser as parser_mod

        root = _c_project(tmp_path)
        parses = []
        lowerings = []
        parse = parser_mod._Parser.parse
        init = lower_mod._CUnitEnv.__init__

        def counting_parse(self):
            parses.append(self.filename)
            return parse(self)

        def counting_init(self, unit, source_lines):
            lowerings.append(unit.filename)
            init(self, unit, source_lines)

        monkeypatch.setattr(parser_mod._Parser, "parse", counting_parse)
        monkeypatch.setattr(lower_mod._CUnitEnv, "__init__", counting_init)
        report = scan_project(str(root), _config())
        assert report.n_analyzed == 21
        files = sorted(str(p) for p in root.glob("*.c"))
        assert sorted(parses) == files
        assert len(lowerings) == len(report.lowerable) == 21


class TestScanEndToEnd:
    def test_scan_discovers_and_analyzes_c_kernels(self, tmp_path):
        root = _c_project(tmp_path)
        report = scan_project(str(root), _config())
        assert report.n_files == 6
        # fig1a/fig1b/fig2, series_j0 + bessel, airy, fold + trig,
        # 5 lintdemo hazards, 8 proven kernels.
        assert len(report.discovered) == 21
        assert len(report.lowerable) == 21
        assert report.n_analyzed == 21 and report.n_cached == 0
        assert report.n_evals > 0

    def test_unchanged_rescan_replays_with_zero_evals(self, tmp_path):
        root = _c_project(tmp_path)
        first = scan_project(str(root), _config())
        assert first.n_evals > 0
        second = scan_project(str(root), _config())
        assert second.n_analyzed == 0
        assert second.n_cached == first.n_analyzed
        assert second.n_evals == 0
        assert all(r.source == FROM_STORE for r in second.results)
        assert {r.verdict for r in second.results} == {
            r.verdict for r in first.results
        }

    def test_edited_c_function_reanalyzes(self, tmp_path):
        import os

        root = _c_project(tmp_path)
        scan_project(str(root), _config())
        target = root / "fig.c"
        target.write_text(
            target.read_text().replace("y <= 4.0", "y <= 5.0")
        )
        stat = target.stat()
        os.utime(target, (stat.st_atime, stat.st_mtime + 1))
        second = scan_project(str(root), _config())
        # Only fig.c's three functions re-run; digest-keyed replay
        # keeps even fig.c functions whose lowered FPIR is unchanged.
        assert 1 <= second.n_analyzed <= 3
        assert second.n_cached == 21 - second.n_analyzed
