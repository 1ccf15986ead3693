"""Content digests shared by the worker payload cache and the scan store.

One hashing scheme, two consumers: the worker pool keys its
worker-side LRU of compiled weak distances by the digest of the pickled
label-free payload (:meth:`repro.core.pool.WorkerPool._program_blob`),
and the incremental scan store (:mod:`repro.scan.store`) keys persisted
verdicts by the digest of the pickled lowered FPIR program.  Keeping
both on the same ``sha256(pickle.dumps(obj, HIGHEST_PROTOCOL))`` recipe
means "the program changed" is decided identically everywhere: if a
re-scan says a function's lowered FPIR is unchanged, the warm workers
would have had a cache hit for it too.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Any


def digest_bytes(blob: bytes) -> str:
    """Hex content digest of ``blob``."""
    return hashlib.sha256(blob).hexdigest()


def content_digest(obj: Any) -> str:
    """Hex content digest of ``obj``'s canonical pickle.

    ``pickle.HIGHEST_PROTOCOL`` matches the worker payload path.
    Pickle memoizes objects by identity, so equal values digest equal
    only when they also share objects alike; FPIR values are built
    that way (a :class:`~repro.fpir.program.Program`'s ``entry`` is its
    entry function's own name object).
    """
    return digest_bytes(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
