"""Project-tree discovery: which source files does a scan look at?

A deliberately boring module with one deliberate property:
**determinism**.  The walk visits directories and files in sorted
order, so the discovered-function list — and therefore job submission
order, report order, and the JSONL store's append order — is a pure
function of the tree's contents.  Two machines scanning the same
checkout produce byte-comparable reports.

Two suffixes are admitted: ``.py`` (classified by the Python frontend)
and ``.c`` (classified by the C frontend, :mod:`repro.cfront`).

Ignore rules (the usual suspects for a Python checkout):

* hidden directories (``.git``, ``.tox``, ``.repro-scan``, ...);
* ``__pycache__``, ``node_modules``, ``build``, ``dist``, egg-infos;
* virtual environments, detected *structurally* by ``pyvenv.cfg``
  rather than by name, so a venv called ``env39`` is pruned too;
* caller-supplied ``fnmatch`` patterns (``--exclude``), matched
  against each file/directory path relative to the scan root (POSIX
  separators), and against the bare name.
"""

from __future__ import annotations

import fnmatch
import os
from pathlib import Path
from typing import Iterable, List, Sequence

#: Directory names never descended into.
DEFAULT_IGNORED_DIRS = frozenset({"__pycache__", "node_modules", "build", "dist"})

#: File suffixes the scan admits, in the order reports group them.
SCAN_SUFFIXES = (".py", ".c")


def _is_virtualenv(path: Path) -> bool:
    return (path / "pyvenv.cfg").is_file()


def _excluded(rel_posix: str, name: str, patterns: Sequence[str]) -> bool:
    return any(
        fnmatch.fnmatch(rel_posix, pat) or fnmatch.fnmatch(name, pat)
        for pat in patterns
    )


def walk_source_files(
    root: str,
    exclude: Iterable[str] = (),
    suffixes: Sequence[str] = SCAN_SUFFIXES,
) -> List[Path]:
    """Every admitted source file under ``root``, sorted, ignore rules
    applied.

    ``root`` may also be a single source file (scanning one file is a
    legitimate CI shape).  Raises :class:`FileNotFoundError` for a
    missing root — a typo'd path must not report a clean empty scan.
    """
    top = Path(root)
    patterns = list(exclude)
    if top.is_file():
        return [top] if top.suffix in suffixes else []
    if not top.is_dir():
        raise FileNotFoundError(f"no file or directory at {root!r}")
    found: List[Path] = []
    for dirpath, dirnames, filenames in os.walk(top):
        here = Path(dirpath)
        kept = []
        for name in sorted(dirnames):
            child = here / name
            rel = child.relative_to(top).as_posix()
            if (
                name.startswith(".")
                or name in DEFAULT_IGNORED_DIRS
                or name.endswith(".egg-info")
                or _is_virtualenv(child)
                or _excluded(rel, name, patterns)
            ):
                continue
            kept.append(name)
        dirnames[:] = kept
        for name in sorted(filenames):
            if Path(name).suffix not in suffixes or name.startswith("."):
                continue
            child = here / name
            rel = child.relative_to(top).as_posix()
            if _excluded(rel, name, patterns):
                continue
            found.append(child)
    return found
