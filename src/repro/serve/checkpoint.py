"""The ``.repro-serve/`` journal: round-level checkpoints + job ledger.

One append-only ``journal.jsonl`` (same torn-line-tolerant JSONL
discipline as the scan store, :mod:`repro.scan.store`) records three
event types:

* ``job`` — a submission was accepted: job id, tenant, the canonical
  wire payload, and its :func:`~repro.serve.wire.payload_fingerprint`
  (the :mod:`repro.util.digest` keying discipline — resumed payloads
  are integrity-checked against it);
* ``round`` — one driver round completed: the round's merged
  :class:`~repro.core.parallel.MultiStartOutcome`, pickled and
  base64-wrapped, plus the digest of those pickled bytes (checked on
  load: a round whose blob no longer matches is dropped, which ends
  the replayable prefix there).  This *is* the paper
  engine's whole inter-round state: the analysis state, label sets
  included, is a deterministic function of the outcomes it absorbed
  (a round never changes a label set), and the per-start randomness of
  every later round is a pure function of ``(seed, round, start)``, so
  no generator state needs saving — the round counter is the
  ``SeedSequence`` state;
* ``done`` — the job settled (state, final report rendering, error).

``repro serve --resume`` loads the journal
(:meth:`CheckpointJournal.load`), re-registers settled jobs with their
stored reports, and resubmits unsettled ones with their checkpointed
round outcomes as ``Session.submit(resume_rounds=...)`` — the session
replays them through the analysis state without re-running a single
evaluation and continues the campaign at the first un-checkpointed
round, bit-identical to a run that was never interrupted.

Writes are flushed per record, so a ``kill -9`` loses at most the
record being written — never a previously completed round — and the
loader's torn-line tolerance makes the half-written tail harmless.
"""

from __future__ import annotations

import base64
import binascii
import dataclasses
import json
import pickle
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.serve.wire import WIRE_SCHEMA_VERSION, payload_fingerprint
from repro.util.digest import digest_bytes

#: Journal record schema version; old-versioned records are skipped on
#: load rather than misread.
JOURNAL_VERSION = 1

#: Default journal directory (relative to the server's cwd).
DEFAULT_STORE_DIR = ".repro-serve"


@dataclasses.dataclass
class JournalJob:
    """Everything the journal knows about one submitted job."""

    job_id: str
    tenant: str
    payload: Dict[str, Any]
    fingerprint: str = ""
    #: round_index -> base64-pickled MultiStartOutcome.
    rounds: Dict[int, str] = dataclasses.field(default_factory=dict)
    #: Terminal state ("done" / "failed" / "cancelled"), None = unsettled.
    state: Optional[str] = None
    report: Optional[Dict[str, Any]] = None
    error: Optional[str] = None

    @property
    def settled(self) -> bool:
        return self.state is not None

    def outcomes(self) -> List[Any]:
        """Checkpointed outcomes for rounds ``0..k``, decoded, in order.

        Only the contiguous prefix counts: a gap (which the per-round
        append discipline never produces, but a corrupted journal
        could) ends the replayable history — resuming past a missing
        round would not be bit-identical.
        """
        outcomes: List[Any] = []
        for index in range(len(self.rounds)):
            blob = self.rounds.get(index)
            if blob is None:
                break
            outcomes.append(pickle.loads(base64.b64decode(blob)))
        return outcomes


class CheckpointJournal:
    """Append-only journal under one ``.repro-serve/`` directory."""

    def __init__(self, directory: str) -> None:
        self.directory = Path(directory)
        self.path = self.directory / "journal.jsonl"
        self._lock = threading.Lock()

    # -- writing -----------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        record = dict(record)
        record["version"] = JOURNAL_VERSION
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            self.directory.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(line + "\n")
                fh.flush()

    def record_job(
        self, job_id: str, tenant: str, payload: Dict[str, Any]
    ) -> None:
        self._append(
            {
                "type": "job",
                "job_id": job_id,
                "tenant": tenant,
                "payload": payload,
                "fingerprint": payload_fingerprint(payload),
                "schema_version": WIRE_SCHEMA_VERSION,
            }
        )

    def record_round(self, job_id: str, round_index: int, outcome: Any) -> None:
        blob = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
        self._append(
            {
                "type": "round",
                "job_id": job_id,
                "round_index": round_index,
                "outcome": base64.b64encode(blob).decode("ascii"),
                "digest": _blob_digest(blob),
            }
        )

    def record_done(
        self,
        job_id: str,
        state: str,
        report: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
    ) -> None:
        self._append(
            {
                "type": "done",
                "job_id": job_id,
                "state": state,
                "report": report,
                "error": error,
            }
        )

    # -- loading -----------------------------------------------------------

    def load(self) -> Dict[str, JournalJob]:
        """Jobs by id, in submission order (dicts preserve insertion).

        Tolerates a torn final line (the ``kill -9`` case) and skips
        records from other journal versions; ``round``/``done``
        records without a preceding ``job`` record are ignored, and so
        are ``round`` records whose blob does not match their digest.
        """
        jobs: Dict[str, JournalJob] = {}
        if not self.path.is_file():
            return jobs
        with self.path.open(encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail; skip, don't die
                if record.get("version") != JOURNAL_VERSION:
                    continue
                kind = record.get("type")
                job_id = record.get("job_id")
                if not isinstance(job_id, str):
                    continue
                if kind == "job":
                    payload = record.get("payload")
                    if not isinstance(payload, dict):
                        continue
                    jobs[job_id] = JournalJob(
                        job_id=job_id,
                        tenant=str(record.get("tenant", "")),
                        payload=payload,
                        fingerprint=str(record.get("fingerprint", "")),
                    )
                elif kind == "round" and job_id in jobs:
                    index = record.get("round_index")
                    if isinstance(index, int) and _intact(record):
                        jobs[job_id].rounds[index] = record["outcome"]
                elif kind == "done" and job_id in jobs:
                    jobs[job_id].state = record.get("state")
                    jobs[job_id].report = record.get("report")
                    jobs[job_id].error = record.get("error")
        return jobs


def _blob_digest(blob: bytes) -> str:
    """The digest a ``round`` record carries for its pickled outcome."""
    return digest_bytes(blob)[:16]


def _intact(record: Dict[str, Any]) -> bool:
    """Does a ``round`` record's blob decode to the bytes its digest
    names?"""
    blob = record.get("outcome")
    if not isinstance(blob, str):
        return False
    try:
        raw = base64.b64decode(blob, validate=True)
    except (binascii.Error, ValueError):
        return False
    return _blob_digest(raw) == record.get("digest")
