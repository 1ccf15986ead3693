"""repro.cfront — a C frontend that ingests GSL/libm-style sources
directly into FPIR.

The floats-first C subset: ``double`` locals and parameters,
``+ - * / %``, comparisons, ``&& || !``, ternaries, ``if/else``,
``while``, ``for`` (desugared to ``while``), ``return``, calls into
math.h externals and same-file helper functions, and numeric
``#define``/``const double`` constants.  Everything else raises a
located :class:`CFrontendError` — file:line, source line, caret,
hint — mirroring the Python frontend's diagnostics.

Layers::

    lexer     comments/preprocessor stripping -> tokens (geometry kept)
    parser    tolerant top level, strict recursive-descent bodies
    lower     C AST -> FPIR, dataclass-equal with Python-twin lowerings
    classify  exact classification records for `repro scan`

Entry points: :func:`lower_c_source`, :func:`lower_c_file` (the
resolver behind ``file.c::fn`` target specs), and
:func:`discover_c_functions` (the scan classifier).
"""

from repro.cfront.errors import CFrontendError
from repro.cfront.lower import lower_c_file, lower_c_source

__all__ = [
    "CFrontendError",
    "lower_c_file",
    "lower_c_source",
    "discover_c_functions",
]


def discover_c_functions(files):
    """Prescan ``.c`` files for the scan tier (lazy import: the scan
    classifier imports this module, so importing it eagerly here would
    be circular)."""
    from repro.cfront.classify import discover_c_functions as _discover

    return _discover(files)
