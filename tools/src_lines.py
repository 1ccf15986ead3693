#!/usr/bin/env python3
"""Count the physical lines, code lines and modules of Python trees.

Usage: python tools/src_lines.py [ROOT ...]     (default: src)

For every ``*.py`` file under each root (a root may also be one file)
it prints the physical lines (newlines, as ``wc -l`` counts them),
the code lines and the module count, then a total when there are
several roots.  A code line is a line that holds a Python token other
than a comment, a newline or an indent, outside a module, class or
function docstring; a token that spans several lines (a multi-line
string that is not a docstring, a bracketed expression) makes each of
them a code line.  Blank lines, comment lines and docstrings are
therefore not code, so the count moves only when code does.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Iterable, Set, Tuple

#: Tokens that do not make a line a code line.
NON_CODE = frozenset(
    (
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENDMARKER,
        tokenize.ENCODING,
    )
)

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> Set[int]:
    """The lines of every module, class and function docstring."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _DOCUMENTED) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_source(text: str) -> Tuple[int, int]:
    """``(physical lines, code lines)`` of one module's source."""
    code: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NON_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return text.count("\n"), len(code - docstring_lines(ast.parse(text)))


def python_files(root: Path) -> Iterable[Path]:
    return [root] if root.is_file() else sorted(root.rglob("*.py"))


def count_tree(root: Path) -> Tuple[int, int, int]:
    """``(physical lines, code lines, modules)`` under ``root``."""
    physical = code = modules = 0
    for path in python_files(root):
        lines, code_lines = count_source(path.read_text(encoding="utf-8"))
        physical += lines
        code += code_lines
        modules += 1
    return physical, code, modules


def main(argv: list) -> int:
    roots = [Path(arg) for arg in argv] or [Path("src")]
    missing = [root for root in roots if not root.exists()]
    if missing:
        for root in missing:
            print(f"no such file or directory: {root}", file=sys.stderr)
        return 2
    totals = [0, 0, 0]
    print(f"{'root':<24} {'physical':>9} {'code':>9} {'modules':>8}")
    for root in roots:
        counts = count_tree(root)
        totals = [total + n for total, n in zip(totals, counts)]
        print(f"{str(root):<24} {counts[0]:>9} {counts[1]:>9} {counts[2]:>8}")
    if len(roots) > 1:
        print(f"{'total':<24} {totals[0]:>9} {totals[1]:>9} {totals[2]:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
