"""tools/src_lines.py: the physical, code-line and module counter."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"

SNIPPET = '''"""Module docstring,
over two lines."""

# a comment line
import os


def f(x):
    """Function docstring."""
    """A second string is an expression,
    not a docstring."""
    return x  # a trailing comment


class C:
    """Class docstring."""

    y = (1,
         2)
'''


def _tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_blanks():
    # Code: import, def, the two lines of the string expression,
    # return, class, and both lines of the bracketed tuple.
    assert _tool().count_source(SNIPPET) == (19, 8)


def test_tree_counts_modules(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    tool = _tool()
    assert tool.count_tree(tmp_path / "pkg") == (20, 9, 2)
    assert tool.main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out.split()[-3:] == ["20", "9", "2"]


def test_missing_root_exits_two(tmp_path):
    assert _tool().main([str(tmp_path / "nope")]) == 2
