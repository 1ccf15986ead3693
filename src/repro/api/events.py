"""Typed progress events streamed by `repro.api.Session` jobs.

A session job emits one :class:`JobStarted`, then a
:class:`RoundStarted`/:class:`RoundFinished` pair per driver round —
with a :class:`StartCrashed`/:class:`RoundRetried` pair interposed for
every crash-salvage cycle a round needs — and finally one
:class:`JobFinished` (also on failure and cancellation; a cancelled
job that salvaged a partial report says so via ``partial``).
Callbacks receive them synchronously from the thread driving the job —
a session running several jobs concurrently delivers events from
several threads, so a callback shared across jobs must be thread-safe
(the CLI's live renderer holds a lock around its writes).

Events are plain frozen dataclasses: cheap to construct, safe to stash,
and easy to assert on in tests.  :func:`render_event` is the shared
one-line textual rendering used by ``repro run --progress`` and
``repro batch --progress``; :class:`JsonlEventSink` is the
machine-readable counterpart — one JSON object per line, the format
external dashboards tail to watch long campaigns
(``Session(event_sink=...)``, ``repro run --events-out``).
"""

from __future__ import annotations

import dataclasses
import io
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

#: Version stamped on every serialized event record
#: (:func:`event_to_dict`).  Consumers — the JSONL sinks external
#: dashboards tail, the ``repro serve`` SSE stream and its
#: reconnecting clients — key their parsing on it; bump when an
#: event's wire shape changes incompatibly.
EVENT_SCHEMA_VERSION = 1


@dataclasses.dataclass(frozen=True)
class SessionEvent:
    """Base class: identifies the emitting job."""

    job_id: int
    analysis: str
    target: str


@dataclasses.dataclass(frozen=True)
class JobStarted(SessionEvent):
    """The job's driver loop is about to run its first round."""


@dataclasses.dataclass(frozen=True)
class RoundStarted(SessionEvent):
    """One multi-start round is about to fan out."""

    round_index: int
    n_starts: int
    note: str = ""


@dataclasses.dataclass(frozen=True)
class RoundFinished(SessionEvent):
    """One multi-start round's merged outcome, as the driver saw it."""

    round_index: int
    n_evals: int
    best_w: float
    found_zero: bool
    note: str = ""
    #: True when the round was cut short (cancellation landed
    #: mid-round); the counts cover only the starts that finished.
    interrupted: bool = False
    #: True when the session served the round from its round-outcome
    #: cache (an equal round already ran); ``n_evals`` still counts
    #: the round's evaluations.
    cached: bool = False


@dataclasses.dataclass(frozen=True)
class StartCrashed(SessionEvent):
    """A worker crashed while serving one start of a round.

    ``start_index`` names the start whose failure surfaced the crash
    (a broken executor also loses its in-flight siblings — see the
    paired :class:`RoundRetried` for the full lost set).
    """

    round_index: int
    start_index: int
    error: str


@dataclasses.dataclass(frozen=True)
class RoundRetried(SessionEvent):
    """A crashed round is being salvaged: completed starts were kept
    and the ``n_lost`` unfinished ones resubmitted to a fresh
    executor (salvage cycle ``attempt`` of ``max_attempts``)."""

    round_index: int
    n_lost: int
    attempt: int
    max_attempts: int
    error: str = ""


@dataclasses.dataclass(frozen=True)
class JobFinished(SessionEvent):
    """The job is done (successfully, cancelled, or with an error)."""

    verdict: Optional[str]
    rounds: int
    n_evals: int
    elapsed_seconds: float
    error: Optional[str] = None
    cancelled: bool = False
    #: True when the job was cancelled but a partial report was
    #: salvaged from the starts that finished first
    #: (``JobHandle.partial_result``).
    partial: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and not self.cancelled


#: Signature of a session/job progress callback.
EventCallback = Callable[[SessionEvent], None]


def render_event(event: SessionEvent) -> Optional[str]:
    """One-line rendering for live CLI progress (None = not rendered)."""
    tag = f"[job {event.job_id} {event.analysis} {event.target}]"
    if isinstance(event, JobStarted):
        return f"{tag} started"
    if isinstance(event, RoundStarted):
        note = f" ({event.note})" if event.note else ""
        return f"{tag} round {event.round_index}: {event.n_starts} starts{note}"
    if isinstance(event, RoundFinished):
        zero = "zero found" if event.found_zero else f"best W {event.best_w:.4g}"
        cut = " [interrupted]" if event.interrupted else ""
        cached = " [cached]" if event.cached else ""
        return (
            f"{tag} round {event.round_index} done: {event.n_evals} evals, "
            f"{zero}{cut}{cached}"
        )
    if isinstance(event, StartCrashed):
        return (
            f"{tag} round {event.round_index}: start {event.start_index} "
            f"crashed ({event.error})"
        )
    if isinstance(event, RoundRetried):
        return (
            f"{tag} round {event.round_index}: retry "
            f"{event.attempt}/{event.max_attempts} — resubmitting "
            f"{event.n_lost} lost start(s)"
        )
    if isinstance(event, JobFinished):
        if event.cancelled:
            salvage = " (partial report salvaged)" if event.partial else ""
            return f"{tag} cancelled after {event.elapsed_seconds:.2f}s{salvage}"
        if event.error is not None:
            return f"{tag} FAILED: {event.error}"
        return (
            f"{tag} finished: {event.verdict} in {event.elapsed_seconds:.2f}s "
            f"({event.n_evals} evals, {event.rounds} rounds)"
        )
    return None


def event_to_dict(
    event: SessionEvent, seq: Optional[int] = None
) -> Dict[str, Any]:
    """A JSON-ready dict: the event's fields plus its type name.

    Every record carries ``schema_version``
    (:data:`EVENT_SCHEMA_VERSION`); ``seq`` — the emitter's per-job
    monotonic sequence number, counted from 0 per ``job_id`` — is
    included when the caller assigns one.  The sequence number is the
    SSE resume contract: an ``repro serve`` client reconnecting with
    ``Last-Event-ID: n`` receives exactly the events with ``seq > n``,
    never a drop or a duplicate (:mod:`repro.serve.stream`).
    """
    payload: Dict[str, Any] = {
        "event": type(event).__name__,
        "schema_version": EVENT_SCHEMA_VERSION,
    }
    if seq is not None:
        payload["seq"] = seq
    payload.update(dataclasses.asdict(event))
    return payload


#: Concrete event classes by wire name (:func:`event_from_dict`).
_EVENT_TYPES: Dict[str, type] = {
    cls.__name__: cls
    for cls in (
        JobStarted,
        RoundStarted,
        RoundFinished,
        StartCrashed,
        RoundRetried,
        JobFinished,
    )
}


def event_from_dict(payload: Dict[str, Any]) -> SessionEvent:
    """Rebuild the typed event a :func:`event_to_dict` record came from.

    The round-trip inverse of :func:`event_to_dict`:
    ``event_from_dict(event_to_dict(e)) == e`` for every event type.
    Envelope fields (``event``, ``schema_version``, ``seq``, ``ts``)
    are consumed, unknown *extra* fields are ignored (so a newer
    emitter's additive fields don't break an older consumer), and an
    unknown event type or missing required field raises ``ValueError``.
    """
    name = payload.get("event")
    cls = _EVENT_TYPES.get(name or "")
    if cls is None:
        raise ValueError(f"unknown event type {name!r}")
    fields = {f.name for f in dataclasses.fields(cls)}
    kwargs = {key: value for key, value in payload.items() if key in fields}
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ValueError(f"bad {name} record: {exc}") from exc


class JsonlEventSink:
    """Writes session events as JSON Lines — one object per event.

    Accepts a path (opened for append-less overwrite, closed by
    :meth:`close`) or any text file object (left open — the caller owns
    it).  Each record carries the event fields, the event type under
    ``"event"``, the serialization ``"schema_version"``, a per-job
    monotonic ``"seq"`` (counted from 0 per ``job_id`` — the same
    resume contract the SSE stream uses), and a wall-clock ``"ts"``
    (seconds since the epoch).  Writes are locked and flushed per
    event, so a session driving several jobs from several threads
    produces whole, ordered lines that an external ``tail -f``
    consumer can parse immediately.

    Usable directly as an ``on_event`` callback, or through the
    ``Session(event_sink=...)`` convenience::

        with Session(config, event_sink="events.jsonl") as session:
            session.run("coverage", "fig2")
    """

    def __init__(self, destination: Union[str, Path, io.TextIOBase]) -> None:
        if isinstance(destination, (str, Path)):
            self._file = open(destination, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = destination
            self._owns_file = False
        self._lock = threading.Lock()
        self._closed = False
        self._seqs: Dict[int, int] = {}
        self.n_events = 0

    def __call__(self, event: SessionEvent) -> None:
        with self._lock:
            if self._closed:
                return
            seq = self._seqs.get(event.job_id, 0)
            self._seqs[event.job_id] = seq + 1
            record = event_to_dict(event, seq=seq)
            record["ts"] = time.time()
            self._file.write(json.dumps(record, sort_keys=True) + "\n")
            self._file.flush()
            self.n_events += 1

    def close(self) -> None:
        """Flush and (for path destinations) close the underlying file."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._file.flush()
            if self._owns_file:
                self._file.close()

    def __enter__(self) -> "JsonlEventSink":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
