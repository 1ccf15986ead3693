"""Function classifier for ``.c`` files — the scan tier's C intake.

Like the Python classifier (:mod:`repro.scan.classify`), it is
*exact*: it attempts the lowering of every candidate and reports the
located error as a one-line skip reason, ``line N: reason``.  A
function is lowerable iff the C frontend lowers it.  Each lowering
goes through the memoized ``file.c::fn`` target
(:func:`repro.api.targets.file_target`), whose resolved target rides
on the record for the campaign's jobs to run; the file's parse is
shared by the classifier and every one of those lowerings
(:func:`repro.cfront.lower.parse_c_unit`).

Produces the same :class:`~repro.scan.classify.DiscoveredFunction`
records as the Python classifier, so the orchestrator, report, and
store layers need no C-specific handling.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Union

from repro.cfront.errors import CFrontendError
from repro.cfront.lower import c_ast_size, parse_c_unit
from repro.scan.classify import DiscoveredFunction, skip_reason


def discover_c_functions(
    files: Iterable[Union[str, Path]],
) -> List[DiscoveredFunction]:
    """Classify C ``files``; one record per recorded definition.

    Records come back in (path, line) order.  Unreadable or
    top-level-unparseable files yield a single file-level record
    (empty ``name``) so the report can say *why* a file contributed
    nothing.  Zero-parameter functions are classified but never
    lowerable as scan entries — no inputs, no domain to minimize over.
    """
    records: List[DiscoveredFunction] = []
    for file in files:
        path = str(file)
        try:
            source = Path(file).read_text()
        except OSError as exc:
            records.append(
                DiscoveredFunction(path, "", 0, 0, 0, False, f"unreadable: {exc}")
            )
            continue
        try:
            unit, _ = parse_c_unit(source, path)
        except CFrontendError as exc:
            records.append(
                DiscoveredFunction(
                    path,
                    "",
                    exc.lineno or 0,
                    0,
                    0,
                    False,
                    f"invalid C: {exc.reason} (line {exc.lineno or '?'})",
                )
            )
            continue
        for name in unit.order:
            records.append(_classify(unit, path, name))
    records.sort(key=lambda r: (r.path, r.lineno, r.name))
    return records


def _classify(unit, path: str, name: str) -> DiscoveredFunction:
    from repro.api.targets import file_target

    if name in unit.skipped:
        entry = unit.skipped[name]
        return DiscoveredFunction(
            path=path,
            name=name,
            lineno=entry.line,
            n_params=0,
            size=0,
            lowerable=False,
            skip_reason=f"line {entry.line}: {entry.reason}",
        )
    if name in unit.broken:
        entry = unit.broken[name]
        err = entry.error
        return DiscoveredFunction(
            path=path,
            name=name,
            lineno=entry.line,
            n_params=0,
            size=0,
            lowerable=False,
            skip_reason=skip_reason(err, entry.line),
        )
    fn = unit.functions[name]
    n_params = len(fn.params)
    target = None
    reason = ""
    if n_params == 0:
        reason = (
            f"line {fn.line}: takes no parameters "
            "(no input domain to search)"
        )
    else:
        target = file_target(path, name)
        try:
            target.resolve()
        except CFrontendError as exc:
            reason = skip_reason(exc, fn.line)
            target = None
    return DiscoveredFunction(
        path=path,
        name=name,
        lineno=fn.line,
        n_params=n_params,
        size=c_ast_size(fn, unit),
        lowerable=not reason,
        skip_reason=reason,
        target=target,
    )
