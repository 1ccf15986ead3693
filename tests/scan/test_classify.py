"""Function discovery: records, skip reasons, exact classification.

The classifier is *exact*: a function is lowerable iff its frontend
lowers it, and a rejected function's skip reason is the frontend's
located diagnostic on one line.  ``TestExactClassifier`` checks both
directions on every function under ``examples/``, for both frontends.
"""

import re
from pathlib import Path

from repro.cfront import lower_c_file
from repro.fpir.frontend import FrontendError, lower_file
from repro.scan import ScanConfig, scan_project
from repro.scan.classify import discover_functions
from repro.scan.report import scan_report_to_dict
from repro.scan.walker import walk_source_files

EXAMPLES = Path("examples")


def _discover(tmp_path, source):
    path = tmp_path / "mod.py"
    path.write_text(source)
    return discover_functions([path])


class TestDiscovery:
    def test_records_are_ordered_and_located(self, tmp_path):
        found = _discover(
            tmp_path,
            "def b(x):\n    return x\n\n\ndef a(y):\n    return y\n",
        )
        assert [(f.name, f.lineno) for f in found] == [("b", 1), ("a", 5)]
        assert all(f.lowerable for f in found)
        assert all(f.spec.endswith(f"mod.py::{f.name}") for f in found)

    def test_zero_parameter_functions_are_skipped(self, tmp_path):
        (record,) = _discover(tmp_path, "def f():\n    return 1.0\n")
        assert not record.lowerable
        assert "no input domain" in record.skip_reason

    def test_skip_reasons_are_located(self, tmp_path):
        (record,) = _discover(
            tmp_path,
            "def f(xs):\n    return xs[0]\n",
        )
        assert not record.lowerable
        assert record.skip_reason.startswith("line 2:")

    def test_unlowerable_helper_poisons_caller(self, tmp_path):
        found = _discover(
            tmp_path,
            "def helper(xs):\n"
            "    return xs[0]\n"
            "\n"
            "\n"
            "def caller(x):\n"
            "    return helper(x)\n",
        )
        by_name = {f.name: f for f in found}
        assert not by_name["caller"].lowerable
        # The frontend's diagnostic points at the helper's line.
        assert by_name["caller"].skip_reason.startswith("line 2:")

    def test_syntax_error_yields_file_record(self, tmp_path):
        (record,) = _discover(tmp_path, "def f(:\n")
        assert record.name == ""
        assert not record.lowerable
        assert "syntax" in record.skip_reason.lower()

    def test_size_grows_with_reachable_helpers(self, tmp_path):
        found = _discover(
            tmp_path,
            "def leaf(x):\n"
            "    return x * 2.0\n"
            "\n"
            "\n"
            "def caller(x):\n"
            "    return leaf(x) + 1.0\n",
        )
        by_name = {f.name: f for f in found}
        assert by_name["caller"].size > by_name["leaf"].size


class TestExactClassifier:
    def test_lowerable_iff_frontend_lowers(self):
        """Both directions, every function under examples/, both
        frontends: admitted functions lower, rejected ones do not."""
        records = discover_functions(walk_source_files(str(EXAMPLES)))
        functions = [r for r in records if r.name]
        assert any(r.path.endswith(".py") for r in functions)
        assert any(r.path.endswith(".c") for r in functions)
        assert sum(r.lowerable for r in functions) >= 5
        for record in functions:
            lower = lower_c_file if record.path.endswith(".c") else lower_file
            try:
                program = lower(record.path, record.name)
            except FrontendError:
                lowers = False
            else:
                lowers = program.num_inputs > 0
            assert record.lowerable == lowers, record

    def test_skip_reasons_are_one_located_line(self, tmp_path):
        (tmp_path / "torn.py").write_text("def f(:\n")
        (tmp_path / "torn.c").write_text("double f(double x) { /* open")
        records = discover_functions(
            [*walk_source_files(str(EXAMPLES)), *sorted(tmp_path.iterdir())]
        )
        skipped = [r for r in records if not r.lowerable]
        assert any(not r.name for r in skipped)
        for record in skipped:
            assert "\n" not in record.skip_reason, record
            if record.name:
                assert re.match(r"line \d+: ", record.skip_reason), record
            else:
                assert record.skip_reason.startswith(
                    ("unreadable:", "invalid Python:", "invalid C:")
                ), record

    def test_read_before_assignment_is_skipped_with_its_line(self, tmp_path):
        """A function reading ``y`` before assigning it used to be
        admitted and then demoted with a three-line diagnostic."""
        root = tmp_path / "proj"
        root.mkdir()
        (root / "mod.py").write_text(
            '"""Fixture."""\n'
            "\n"
            "SCALE = 2.0\n"
            "\n"
            "\n"
            "def f(x):\n"
            '    """Reads y before assigning it."""\n'
            "    z = y + x\n"
            "    y = SCALE\n"
            "    return z\n"
        )
        (record,) = discover_functions([root / "mod.py"])
        assert not record.lowerable
        assert record.skip_reason.startswith(
            "line 8: local variable 'y' is read before its first assignment"
        )
        report = scan_project(
            str(root), ScanConfig(smoke=True, store_dir=str(tmp_path / "s"))
        )
        (skip,) = scan_report_to_dict(report)["skipped"]
        assert skip["reason"] == record.skip_reason


class TestForRangeAdmission:
    """Classification follows the frontend's ``for i in range(...)``
    desugar admission — same shapes in, same shapes out."""

    def test_range_loop_is_admitted_and_lowers(self, tmp_path):
        (record,) = _discover(
            tmp_path,
            "def f(x):\n"
            "    s = 0.0\n"
            "    for k in range(1, 5):\n"
            "        s = s + x * k\n"
            "    return s\n",
        )
        assert record.lowerable
        assert lower_file(record.path, record.name).entry == "f"

    def test_non_range_iteration_is_rejected_with_location(self, tmp_path):
        (record,) = _discover(
            tmp_path,
            "def f(xs):\n    s = 0.0\n    for v in xs:\n"
            "        s = s + v\n    return s\n",
        )
        assert not record.lowerable
        assert record.skip_reason.startswith("line 3:")

    def test_variable_step_is_rejected(self, tmp_path):
        (record,) = _discover(
            tmp_path,
            "def f(x):\n    for i in range(0, 10.0, x):\n"
            "        x = x + 1.0\n    return x\n",
        )
        assert not record.lowerable
        assert "step" in record.skip_reason
