"""The persistent incremental store under ``.repro-scan/``.

Two artifacts live in the store directory:

* ``results.jsonl`` — one JSON record per completed analysis run,
  append-only.  Records are keyed by
  ``(program digest, analysis, config fingerprint)``:

  - the **program digest** is the content digest of the *lowered,
    uninstrumented* FPIR program (:func:`program_digest`), computed by
    the identity-blind, order-preserving recipe the worker payload
    cache keys its compiled-W LRU with
    (:func:`repro.util.digest.content_digest`).  Editing a function's
    body changes its lowered FPIR, hence its digest; editing a
    comment, docstring or unrelated function does not — re-scans
    re-analyze exactly what changed.  Equal programs share one digest
    whichever frontend lowered them, so a C kernel and its equal
    Python twin share one record;
  - the **config fingerprint** (:func:`config_fingerprint`) folds in
    everything else that could change a verdict: seed, budgets,
    backend, eval mode, and the store schema version.  A scan run
    with different knobs never replays records produced under old
    ones.

  Last-record-wins gives update semantics, and
  :meth:`ResultStore.compact` rewrites the file to one line per key —
  automatically on open once stale (superseded) lines outgrow
  :data:`AUTO_COMPACT_RATIO` of the file, so commit-by-commit CI scans
  never let the history outgrow the live record set.  Several
  processes may share one store: appends and compactions hold an
  exclusive ``flock`` on ``results.lock``, and a compaction re-reads
  the file under that lock (so it keeps every other process's
  records) and writes through a unique temp file.  Readers take no
  lock; a torn final line is skipped, never fatal.

* ``baseline.json`` — the accepted-findings baseline for
  ``repro scan --baseline``.  Baseline keys use the *target spec*
  (``file.py::fn``), not the digest, so an accepted finding stays
  accepted across edits to unrelated parts of the function's file —
  and an edited function whose old finding persists is still
  suppressed, while genuinely new findings fail the gate.
"""

from __future__ import annotations

import contextlib
import dataclasses
import fcntl
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, Optional, Set, Tuple

from repro.util.digest import content_digest, digest_bytes

#: Bump when record semantics change; folded into the fingerprint so
#: old stores are ignored rather than misread.  Version 2: program
#: digests are identity-blind (:func:`repro.util.digest.content_digest`).
STORE_VERSION = 2

StoreKey = Tuple[str, str, str]  # (program digest, analysis, fingerprint)


def program_digest(program: Any) -> str:
    """Content digest of a lowered FPIR program (the store key)."""
    return content_digest(program)


def config_fingerprint(
    seed: Optional[int],
    niter: Optional[int],
    rounds: Optional[int],
    starts: Optional[int],
    backend: Optional[str],
    eval_mode: Optional[str],
    smoke: bool = False,
) -> str:
    """Digest of every engine knob that can change a stored verdict.

    Fingerprints the *requested* knobs (``None`` = the analysis
    default), not per-analysis effective values: the effective budget
    is a deterministic function of the request, so equal requests
    replay and different requests never alias.
    """
    payload = json.dumps(
        {
            "version": STORE_VERSION,
            "seed": seed,
            "niter": niter,
            "rounds": rounds,
            "starts": starts,
            "backend": backend,
            "eval_mode": eval_mode,
            "smoke": smoke,
        },
        sort_keys=True,
    )
    return digest_bytes(payload.encode("utf-8"))[:16]


def certificate_fingerprint(static_version: int) -> str:
    """Fingerprint for *static certificate* records.

    Certificates live in the same JSONL store as dynamic results,
    keyed under a fingerprint derived from the static tier's version
    instead of the engine knobs: a ``--prove`` scan with any engine
    budget can replay them, while a plain scan (which looks up the
    engine fingerprint) can never mistake a certificate for a
    dynamically-established verdict.
    """
    payload = json.dumps(
        {
            "version": STORE_VERSION,
            "certificate": True,
            "static_version": static_version,
        },
        sort_keys=True,
    )
    return digest_bytes(payload.encode("utf-8"))[:16]


#: Auto-compaction threshold: when more than this fraction of the
#: file's lines are stale (superseded re-runs of existing keys), an
#: opening store rewrites it.  1/3 keeps steady-state file size within
#: 1.5x of the live record count without rewriting on every open.
AUTO_COMPACT_RATIO = 1 / 3

#: Never auto-compact below this many raw lines — rewriting a tiny
#: file buys nothing and churns mtimes under concurrent CI runs.
AUTO_COMPACT_MIN_LINES = 64


class ResultStore:
    """Append-only JSONL result store with last-record-wins reads.

    Long-lived stores accrete stale lines: every re-run of a changed
    function appends a record that supersedes an earlier line for the
    same key.  Opening a store whose stale fraction exceeds
    ``auto_compact_ratio`` triggers :meth:`compact` automatically
    (``auto_compact_ratio=None`` disables this), so CI checkouts that
    scan on every commit keep the file bounded by the live key count
    instead of the full append history.
    """

    def __init__(
        self,
        directory: str,
        auto_compact_ratio: Optional[float] = AUTO_COMPACT_RATIO,
    ) -> None:
        self.directory = Path(directory)
        self.path = self.directory / "results.jsonl"
        self.lock_path = self.directory / "results.lock"
        self._records: Dict[StoreKey, Dict[str, Any]] = {}
        #: Lines dropped by the last (auto or explicit) compaction.
        self.n_compacted = 0
        raw_lines = self._load()
        if (
            auto_compact_ratio is not None
            and raw_lines >= AUTO_COMPACT_MIN_LINES
            and raw_lines - len(self._records) > raw_lines * auto_compact_ratio
        ):
            self.n_compacted = self.compact()

    def __len__(self) -> int:
        return len(self._records)

    @staticmethod
    def _key(record: Dict[str, Any]) -> StoreKey:
        return (record["digest"], record["analysis"], record["fingerprint"])

    def _load(self) -> int:
        """Read the file into memory; returns the raw line count."""
        raw_lines = 0
        if not self.path.is_file():
            return raw_lines
        with self.path.open() as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                raw_lines += 1
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn concurrent append; skip, don't die
                if record.get("version") != STORE_VERSION:
                    continue
                try:
                    self._records[self._key(record)] = record
                except KeyError:
                    continue
        return raw_lines

    def get(
        self, digest: str, analysis: str, fingerprint: str
    ) -> Optional[Dict[str, Any]]:
        return self._records.get((digest, analysis, fingerprint))

    @contextlib.contextmanager
    def _locked(self) -> Iterator[None]:
        """Hold the store's inter-process writer lock."""
        self.directory.mkdir(parents=True, exist_ok=True)
        with self.lock_path.open("a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            yield

    def put(self, record: Dict[str, Any]) -> None:
        """Persist ``record`` (append) and serve it to later gets."""
        record = dict(record)
        record["version"] = STORE_VERSION
        self._records[self._key(record)] = record
        line = json.dumps(record, sort_keys=True) + "\n"
        # Open under the lock: a compaction may replace the file, and
        # an append must land in the file that survives it.
        with self._locked(), self.path.open("a") as fh:
            fh.write(line)

    def compact(self) -> int:
        """Rewrite the file to one line per key; returns lines dropped.

        Re-reads the file under the writer lock first, so records that
        other processes appended since this store was opened survive
        (and this store's view catches up with them).
        """
        with self._locked():
            if not self.path.is_file():
                return 0
            self._records = {}
            raw_lines = self._load()
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, prefix="results.", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as fh:
                    os.fchmod(fd, os.stat(self.path).st_mode & 0o777)
                    for key in sorted(self._records):
                        record = self._records[key]
                        fh.write(json.dumps(record, sort_keys=True) + "\n")
                os.replace(tmp, self.path)
            except BaseException:
                os.unlink(tmp)
                raise
        return raw_lines - len(self._records)


# ---------------------------------------------------------------------------
# Findings baseline
# ---------------------------------------------------------------------------

#: (target spec, analysis, finding kind, finding label)
BaselineKey = Tuple[str, str, str, str]


def finding_key(target: str, analysis: str, kind: str, label: str) -> BaselineKey:
    return (target, analysis, kind, label)


@dataclasses.dataclass
class Baseline:
    """The accepted findings a ``--baseline`` scan does not fail on."""

    keys: Set[BaselineKey] = dataclasses.field(default_factory=set)

    def __contains__(self, key: BaselineKey) -> bool:
        return key in self.keys

    @classmethod
    def load(cls, directory: str) -> "Baseline":
        path = Path(directory) / "baseline.json"
        if not path.is_file():
            return cls()
        data = json.loads(path.read_text())
        keys = {tuple(entry) for entry in data.get("findings", [])}
        return cls(keys={k for k in keys if len(k) == 4})

    @classmethod
    def write(cls, directory: str, keys: Iterable[BaselineKey]) -> Path:
        path = Path(directory) / "baseline.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": STORE_VERSION,
            "findings": sorted(list(k) for k in set(keys)),
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path
