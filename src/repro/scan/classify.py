"""Function discovery for the scan tier: one record per function.

Every module-level ``def`` of a ``.py`` file is classified *exactly*:
it is lowerable iff the Python frontend (:mod:`repro.fpir.frontend`)
lowers it.  The lowering goes through the memoized ``file.py::fn``
target (:func:`repro.api.targets.file_target`), and that resolved
target rides on the record: the campaign's jobs run it as is, so no
function is lowered twice per scan.  A rejected function carries the
frontend's located diagnostic as a one-line skip reason,
``line N: reason`` — the same form the C classifier
(:mod:`repro.cfront.classify`) produces for ``.c`` files.

``size`` counts the AST nodes of the function plus those of the
helpers in its lowered program — the cost proxy the orchestrator
orders campaign jobs by after hazard density.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Any, Dict, Iterable, List, Union


@dataclasses.dataclass
class DiscoveredFunction:
    """One module-level function the scan found (or one broken file).

    ``name`` is empty for a file-level record (unreadable/unparseable
    file); then ``skip_reason`` explains the whole file.  ``target`` is
    the resolved ``file::fn`` target of a lowerable function (it
    describes itself as :attr:`spec`); :attr:`program` is its lowered
    FPIR program.
    """

    path: str
    name: str
    lineno: int
    n_params: int
    size: int
    lowerable: bool
    skip_reason: str = ""
    target: Any = dataclasses.field(default=None, repr=False, compare=False)

    @property
    def spec(self) -> str:
        """The ``file.py::fn`` target spec for this function."""
        return f"{self.path}::{self.name}"

    @property
    def program(self) -> Any:
        """The lowered FPIR program (``None`` unless lowerable)."""
        return self.target.resolve() if self.target is not None else None


def skip_reason(exc: Exception, line: int) -> str:
    """A frontend error (:class:`~repro.fpir.frontend.FrontendError`,
    C errors included) as a one-line ``line N: reason``; ``line``
    stands in when the error carries no location."""
    return f"line {exc.lineno or line}: {exc.reason}"


def _node_count(node: ast.AST) -> int:
    return sum(1 for _ in ast.walk(node))


def _classify(
    path: str, fn_def: ast.FunctionDef, defs: Dict[str, ast.FunctionDef]
) -> DiscoveredFunction:
    from repro.api.targets import file_target
    from repro.fpir.frontend import FrontendError

    n_params = len(fn_def.args.args)
    size = _node_count(fn_def)
    target = None
    reason = ""
    if n_params == 0:
        reason = (
            f"line {fn_def.lineno}: takes no parameters "
            "(no input domain to search)"
        )
    else:
        target = file_target(path, fn_def.name)
        try:
            program = target.resolve()
        except FrontendError as exc:
            reason = skip_reason(exc, fn_def.lineno)
            target = None
        else:
            size = sum(_node_count(defs[name]) for name in program.functions)
    return DiscoveredFunction(
        path=path,
        name=fn_def.name,
        lineno=fn_def.lineno,
        n_params=n_params,
        size=size,
        lowerable=not reason,
        skip_reason=reason,
        target=target,
    )


def discover_functions(
    files: Iterable[Union[str, Path]],
) -> List[DiscoveredFunction]:
    """Classify ``files``; one record per module-level function.

    Records come back in (path, line) order.  Unreadable or
    unparseable files yield a single file-level record (empty
    ``name``) so the report can say *why* a file contributed nothing.
    Zero-parameter functions are never lowerable as scan entries —
    with no inputs there is no domain to minimize over.

    ``.c`` files dispatch to the C frontend's classifier
    (:mod:`repro.cfront.classify`); everything else is lowered through
    the Python frontend.
    """
    all_files = list(files)
    c_files = [f for f in all_files if str(f).endswith(".c")]
    py_files = [f for f in all_files if not str(f).endswith(".c")]
    records: List[DiscoveredFunction] = []
    if c_files:
        # Lazy import: cfront's classifier imports DiscoveredFunction
        # from this module, so a top-level import would be circular.
        from repro.cfront.classify import discover_c_functions

        records.extend(discover_c_functions(c_files))
    for file in py_files:
        path = str(file)
        try:
            source = Path(file).read_text()
        except OSError as exc:
            records.append(
                DiscoveredFunction(path, "", 0, 0, 0, False, f"unreadable: {exc}")
            )
            continue
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            records.append(
                DiscoveredFunction(
                    path,
                    "",
                    exc.lineno or 0,
                    0,
                    0,
                    False,
                    f"invalid Python: {exc.msg} (line {exc.lineno})",
                )
            )
            continue
        defs = {
            stmt.name: stmt
            for stmt in tree.body
            if isinstance(stmt, ast.FunctionDef)
        }
        records.extend(_classify(path, fn_def, defs) for fn_def in defs.values())
    records.sort(key=lambda r: (r.path, r.lineno, r.name))
    return records
