"""Scan results: the report object, its renderings, the exit contract.

The CI contract (mirrors and extends the single-run CLI's):

* ``0`` — every discovered lowerable function analyzed (or shared
  with an equal function's run, or replayed from the store) and no
  findings to fail on;
* ``1`` — findings present (under ``--baseline``: *new* findings
  present; accepted baseline findings alone stay green);
* ``3`` — partial: some job was cancelled or failed mid-run, so the
  scan is a lower bound, not a verdict.  (A function the classifier
  admitted but the frontend rejected becomes a *skip*, not a partial.)
  Findings beat partiality: ``1`` wins when both apply (a red build
  must not turn amber by also crashing).

Machine consumers get :func:`scan_report_to_dict` (``--json``), whose
shape is versioned alongside the store schema.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List

from repro.scan.classify import DiscoveredFunction
from repro.scan.store import STORE_VERSION

#: How one function × analysis result came to be.
FROM_ENGINE = "analyzed"
FROM_STORE = "cached"
FROM_PROOF = "proven"
#: Copied from an engine run of an equal program in the same scan.
FROM_SHARED = "shared"


@dataclasses.dataclass
class FunctionResult:
    """One (function, analysis) outcome."""

    target: str  # file.py::fn spec
    analysis: str
    verdict: str = ""
    #: Finding dicts: kind, label, detail, x (input tuple or None),
    #: and — under --baseline — ``new`` (False = accepted baseline).
    findings: List[Dict[str, Any]] = dataclasses.field(default_factory=list)
    source: str = FROM_ENGINE
    digest: str = ""
    n_evals: int = 0
    elapsed_seconds: float = 0.0
    partial: bool = False
    error: str = ""
    #: Static safety certificate payload (``source == FROM_PROOF``).
    certificate: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Target spec of the engine run this result copies
    #: (``source == FROM_SHARED``).
    shared_with: str = ""

    @property
    def ok(self) -> bool:
        return not self.error and not self.partial

    @property
    def new_findings(self) -> List[Dict[str, Any]]:
        return [f for f in self.findings if f.get("new", True)]


@dataclasses.dataclass
class ScanReport:
    """Everything one ``repro scan`` invocation established."""

    root: str
    analyses: List[str]
    n_files: int = 0
    #: Every function the classifier saw (lowerable or not).
    discovered: List[DiscoveredFunction] = dataclasses.field(default_factory=list)
    #: One entry per (lowerable function, analysis).
    results: List[FunctionResult] = dataclasses.field(default_factory=list)
    #: Engine evaluations this scan actually ran (0 = fully incremental;
    #: shared results, like store hits, cost none).
    n_evals: int = 0
    elapsed_seconds: float = 0.0
    baseline: bool = False
    store_dir: str = ""

    # -- derived ------------------------------------------------------------

    @property
    def lowerable(self) -> List[DiscoveredFunction]:
        return [d for d in self.discovered if d.lowerable]

    @property
    def skipped(self) -> List[DiscoveredFunction]:
        return [d for d in self.discovered if not d.lowerable]

    @property
    def n_cached(self) -> int:
        return sum(1 for r in self.results if r.source == FROM_STORE)

    @property
    def n_analyzed(self) -> int:
        return sum(1 for r in self.results if r.source == FROM_ENGINE)

    @property
    def n_proven(self) -> int:
        return sum(1 for r in self.results if r.source == FROM_PROOF)

    @property
    def n_shared(self) -> int:
        return sum(1 for r in self.results if r.source == FROM_SHARED)

    @property
    def findings(self) -> List[Dict[str, Any]]:
        out: List[Dict[str, Any]] = []
        for result in self.results:
            for finding in result.findings:
                entry = dict(finding)
                entry["target"] = result.target
                entry["analysis"] = result.analysis
                out.append(entry)
        return out

    @property
    def new_findings(self) -> List[Dict[str, Any]]:
        return [f for f in self.findings if f.get("new", True)]

    @property
    def partial(self) -> bool:
        return any(r.partial or r.error for r in self.results)


def scan_exit_code(report: ScanReport) -> int:
    """The CI gate: findings (1) beat partial (3) beat clean (0)."""
    failing = report.new_findings if report.baseline else report.findings
    if failing:
        return 1
    if report.partial:
        return 3
    return 0


def render_scan_report(report: ScanReport) -> str:
    """The human rendering (one screen for a typical project)."""
    lines: List[str] = []
    lines.append(
        f"scanned {report.root}: {report.n_files} file(s), "
        f"{len(report.discovered)} function(s) discovered, "
        f"{len(report.lowerable)} lowerable"
    )
    proven = f", {report.n_proven} statically proven" if report.n_proven else ""
    lines.append(
        f"analyses: {', '.join(report.analyses)} — "
        f"{report.n_analyzed} run(s) executed, "
        f"{report.n_shared} shared with an identical function, "
        f"{report.n_cached} replayed from store{proven} "
        f"({report.n_evals} engine evaluations, "
        f"{report.elapsed_seconds:.1f}s)"
    )
    if report.skipped:
        lines.append(f"skipped ({len(report.skipped)}):")
        for entry in report.skipped:
            where = entry.spec if entry.name else entry.path
            lines.append(f"  {where}: {entry.skip_reason}")
    failing = report.new_findings if report.baseline else report.findings
    accepted = len(report.findings) - len(failing)
    if failing:
        lines.append(f"findings ({len(failing)}):")
        for finding in failing:
            x = finding.get("x")
            at = f" at x={tuple(x)}" if x else ""
            detail = finding.get("detail") or ""
            detail = f" — {detail}" if detail else ""
            lines.append(
                f"  {finding['target']} [{finding['analysis']}] "
                f"{finding['kind']}:{finding['label']}{at}{detail}"
            )
    if report.baseline and accepted:
        lines.append(f"{accepted} baseline finding(s) suppressed")
    errors = [r for r in report.results if r.error]
    if errors:
        lines.append(f"errors ({len(errors)}):")
        for result in errors:
            lines.append(f"  {result.target} [{result.analysis}]: {result.error}")
    if not failing:
        lines.append("clean" if not report.partial else "partial (see above)")
    return "\n".join(lines)


def _file_records(report: ScanReport) -> List[Dict[str, Any]]:
    """Per-file discovery/skip records, so CI consumers can audit what
    a scan never dynamically analyzed (and why)."""
    by_path: Dict[str, List[DiscoveredFunction]] = {}
    for d in report.discovered:
        by_path.setdefault(d.path, []).append(d)
    out: List[Dict[str, Any]] = []
    for path in sorted(by_path):
        entries = by_path[path]
        out.append(
            {
                "path": path,
                "n_discovered": len(entries),
                "n_lowerable": sum(1 for d in entries if d.lowerable),
                "skips": [
                    {"name": d.name, "line": d.lineno, "reason": d.skip_reason}
                    for d in entries
                    if not d.lowerable
                ],
            }
        )
    return out


def scan_report_to_dict(report: ScanReport) -> Dict[str, Any]:
    """The ``--json`` shape (versioned with the store schema)."""
    return {
        "version": STORE_VERSION,
        "root": report.root,
        "analyses": list(report.analyses),
        "n_files": report.n_files,
        "n_discovered": len(report.discovered),
        "n_lowerable": len(report.lowerable),
        "n_analyzed": report.n_analyzed,
        "n_shared": report.n_shared,
        "n_cached": report.n_cached,
        "n_proven": report.n_proven,
        "n_evals": report.n_evals,
        "elapsed_seconds": report.elapsed_seconds,
        "baseline": report.baseline,
        "partial": report.partial,
        "exit_code": scan_exit_code(report),
        "skipped": [
            {
                "path": d.path,
                "name": d.name,
                "line": d.lineno,
                "reason": d.skip_reason,
            }
            for d in report.skipped
        ],
        "files": _file_records(report),
        "certificates": [
            {
                "target": r.target,
                "analysis": r.analysis,
                "digest": r.digest,
                **r.certificate,
            }
            for r in report.results
            if r.source == FROM_PROOF
        ],
        "results": [
            {
                "target": r.target,
                "analysis": r.analysis,
                "verdict": r.verdict,
                "source": r.source,
                "shared_with": r.shared_with,
                "digest": r.digest,
                "n_evals": r.n_evals,
                "elapsed_seconds": r.elapsed_seconds,
                "partial": r.partial,
                "error": r.error,
                "findings": [
                    {**f, "x": list(f["x"]) if f.get("x") else None}
                    for f in r.findings
                ],
            }
            for r in report.results
        ],
    }
