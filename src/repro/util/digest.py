"""Content digests shared by the workers' program cache and the scan store.

One identity, two consumers: the worker pool keys its worker-side LRU
of compiled weak distances by :func:`content_digest` of the label-free
weak distance (:meth:`repro.core.pool.WorkerPool._program_blob`), and the
incremental scan store (:mod:`repro.scan.store`) keys persisted
verdicts by :func:`content_digest` of the lowered FPIR program.  "The
program changed" is therefore decided identically everywhere: if a
re-scan says a function's lowered FPIR is unchanged, the warm workers
would have had a cache hit for it too.

**Memo-free.**  A plain pickle memoizes objects by identity: the second
reference to an object is written as a back-reference, so two equal
programs whose frontends shared name strings or nodes differently
pickle to different bytes.  :func:`content_digest` pickles with the
memo switched off (``Pickler.fast``), so equal content gives equal
bytes, whichever objects carry it — a C kernel and its equal Python
twin digest alike.

**Order-preserving.**  Containers pickle in their own order; dicts are
*not* sorted.  Order is content here: label assignment walks
``Program.functions`` in insertion order, so two programs that differ
only in function order number their sites differently and report
different findings.  Type distinctions survive too (``0.0``/``-0.0``,
``1``/``1.0``/``True``, NaN payloads).

**Why dropping identity is safe.**  Instrumenters rewrite a
:meth:`~repro.fpir.program.Program.clone`, and a clone is rebuilt from
this same memo-free pickle: it is a tree whatever the original shared,
so two programs with one digest instrument to one program.

:func:`digest_bytes` hashes bytes that are already pickled (the serve
journal's round blobs).
"""

from __future__ import annotations

import hashlib
import io
import pickle
from typing import Any


def digest_bytes(blob: bytes) -> str:
    """Hex content digest of ``blob``."""
    return hashlib.sha256(blob).hexdigest()


def canonical_pickle(obj: Any) -> bytes:
    """``obj``'s memo-free, order-preserving pickle.

    Cyclic objects cannot be pickled without the memo and raise
    ``ValueError``; FPIR values are trees (at most DAGs) and never do.
    """
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    pickler.dump(obj)
    return buf.getvalue()


def content_digest(obj: Any) -> str:
    """Hex digest of :func:`canonical_pickle` of ``obj``."""
    return digest_bytes(canonical_pickle(obj))
