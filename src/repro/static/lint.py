"""``repro lint``: the static tier as a standalone diagnostics surface.

Walks a tree exactly like ``repro scan`` (same walker, same exact
classifiers, same frontends), abstractly interprets every lowerable
function, and renders the hazards as located caret diagnostics:

    examples/c/lintdemo.c:12:15: [div-by-zero] divisor range ... (in unstable_quotient)
        double r = x / d;
                       ^

Exit contract (mirrors ``scan``'s shape, minus the partial state —
static analysis has no partial runs): ``0`` clean, ``1`` hazards
found, ``2`` usage error.  Because both frontends lower twins to
identical FPIR, a C kernel and its Python twin lint identically
(same kinds, ops and functions; only file:line anchors differ).
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.scan.classify import DiscoveredFunction, discover_functions
from repro.scan.walker import walk_source_files
from repro.static.absint import analyze
from repro.static.hazards import Hazard, find_hazards


@dataclasses.dataclass
class LintReport:
    """Everything one ``repro lint`` invocation established."""

    root: str
    n_files: int = 0
    discovered: List[DiscoveredFunction] = dataclasses.field(default_factory=list)
    #: ``(target spec, hazard)`` pairs, sorted by location.
    hazards: List[Tuple[str, Hazard]] = dataclasses.field(default_factory=list)
    #: Specs whose abstract run was incomplete (hazards may be missing).
    incomplete: List[str] = dataclasses.field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def lowerable(self) -> List[DiscoveredFunction]:
        return [d for d in self.discovered if d.lowerable]

    @property
    def skipped(self) -> List[DiscoveredFunction]:
        return [d for d in self.discovered if not d.lowerable]

    @property
    def kinds(self) -> List[str]:
        return sorted({h.kind for _, h in self.hazards})


def lint_exit_code(report: LintReport) -> int:
    return 1 if report.hazards else 0


def lint_paths(root: str, exclude: Tuple[str, ...] = ()) -> LintReport:
    """Lint every lowerable function under ``root``; see module doc."""
    t0 = time.perf_counter()
    files = walk_source_files(root, exclude=exclude)
    discovered = discover_functions(files)
    report = LintReport(root=str(root), n_files=len(files), discovered=discovered)
    for fn in discovered:
        if not fn.lowerable:
            continue
        result = analyze(fn.program)
        if not result.complete:
            report.incomplete.append(fn.spec)
        for hazard in find_hazards(result):
            report.hazards.append((fn.spec, hazard))
    report.hazards.sort(key=lambda pair: (pair[1].sort_key(), pair[0]))
    report.elapsed_seconds = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_SOURCE_CACHE: Dict[str, List[str]] = {}


def _source_line(path: str, line: int) -> Optional[str]:
    lines = _SOURCE_CACHE.get(path)
    if lines is None:
        try:
            lines = Path(path).read_text().splitlines()
        except OSError:
            lines = []
        _SOURCE_CACHE[path] = lines
    if 1 <= line <= len(lines):
        return lines[line - 1]
    return None


def _caret_block(hazard: Hazard) -> List[str]:
    loc = hazard.loc
    if loc is None:
        return []
    source = _source_line(loc.file, loc.line)
    if source is None:
        return []
    out = [f"    {source}"]
    if loc.col is not None and 0 <= loc.col <= len(source):
        out.append("    " + " " * loc.col + "^")
    return out


def render_lint_report(report: LintReport) -> str:
    lines: List[str] = []
    lines.append(
        f"linted {report.root}: {report.n_files} file(s), "
        f"{len(report.lowerable)} lowerable function(s), "
        f"{len(report.hazards)} hazard(s) "
        f"({report.elapsed_seconds:.1f}s)"
    )
    for target, hazard in report.hazards:
        loc = hazard.loc
        where = f"{loc.file}:{loc.line}:" if loc else f"{target}:"
        if loc and loc.col is not None:
            where = f"{loc.file}:{loc.line}:{loc.col + 1}:"
        lines.append(
            f"{where} [{hazard.kind}] {hazard.message} (in {hazard.function})"
        )
        lines.extend(_caret_block(hazard))
    if report.skipped:
        lines.append(f"skipped ({len(report.skipped)}):")
        for entry in report.skipped:
            where = entry.spec if entry.name else entry.path
            lines.append(f"  {where}: {entry.skip_reason}")
    if report.incomplete:
        lines.append(
            f"incomplete analysis ({len(report.incomplete)}): "
            + ", ".join(report.incomplete)
        )
    if not report.hazards:
        lines.append("clean")
    return "\n".join(lines)


def lint_report_to_dict(report: LintReport) -> Dict[str, Any]:
    """The ``--json`` shape."""
    return {
        "root": report.root,
        "n_files": report.n_files,
        "n_discovered": len(report.discovered),
        "n_lowerable": len(report.lowerable),
        "n_hazards": len(report.hazards),
        "kinds": report.kinds,
        "exit_code": lint_exit_code(report),
        "elapsed_seconds": report.elapsed_seconds,
        "hazards": [
            {
                "target": target,
                "function": hazard.function,
                "kind": hazard.kind,
                "op": hazard.op,
                "message": hazard.message,
                "file": hazard.loc.file if hazard.loc else None,
                "line": hazard.loc.line if hazard.loc else None,
                "col": hazard.loc.col if hazard.loc else None,
            }
            for target, hazard in report.hazards
        ],
        "skipped": [
            {
                "path": d.path,
                "name": d.name,
                "line": d.lineno,
                "reason": d.skip_reason,
            }
            for d in report.skipped
        ],
        "incomplete": list(report.incomplete),
    }
