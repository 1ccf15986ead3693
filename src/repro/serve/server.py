"""``repro serve``: the stdlib HTTP front-end over one warm Session.

::

    POST   /v1/jobs              submit a job payload -> {"id": "j0", ...}
    GET    /v1/jobs              list this tenant's jobs
    GET    /v1/jobs/<id>         one job's status (+ report when settled)
    GET    /v1/jobs/<id>/events  Server-Sent Events progress stream
    DELETE /v1/jobs/<id>         cancel; returns the salvaged report
    GET    /healthz              liveness + scheduler/pool counters

Built on :class:`http.server.ThreadingHTTPServer` only — no framework,
no dependency.  Responses are HTTP/1.0 close-delimited, which is
exactly what SSE wants: the event stream is the response body, the
connection closes when the job's :class:`~repro.serve.stream.EventLog`
does, and no chunked-encoding machinery is needed.

The SSE stream honors the standard resume contract: every frame
carries ``id: <seq>`` (the job's monotonic event sequence number), and
a reconnect with ``Last-Event-ID: n`` (header or ``?last_event_id=n``)
replays exactly the events with ``seq > n`` from the ring buffer
before going live — no drops, no duplicates.  When the requested
position has been evicted from the ring the server answers **416**
rather than silently skipping events; the client falls back to
``GET /v1/jobs/<id>`` for the authoritative result.

Multi-tenancy is by API key: when ``ServeConfig.api_keys`` is set,
``X-API-Key`` must match one of them (else 401) and becomes the
tenant; each tenant sees and touches only its own jobs (foreign ids
404).  With no keys configured every client shares the
``"anonymous"`` tenant — single-user mode.
"""

from __future__ import annotations

import dataclasses
import errno
import importlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.api.engine import EngineConfig
from repro.api.registry import available_analyses, get_analysis
from repro.api.session import Session
from repro.serve.checkpoint import DEFAULT_STORE_DIR, CheckpointJournal
from repro.serve.scheduler import DEFAULT_QUOTA, Scheduler
from repro.serve.stream import DEFAULT_RING_CAPACITY
from repro.serve.wire import WireError, error_body, job_to_dict

#: Seconds between SSE keep-alive comments while a stream is idle.
HEARTBEAT_SECONDS = 15.0

#: How long ``--resume`` waits for a SIGKILLed predecessor's orphaned
#: workers to release the listening port (see ``ReproServer._bind``).
BIND_RETRY_SECONDS = 10.0

#: Target frontends a submission would otherwise import on first use.
_FRONTEND_MODULES = ("repro.cfront", "repro.fpir.frontend", "repro.programs")


def _import_request_modules() -> None:
    """Import everything a request would otherwise import lazily.

    The analysis registry and the target frontends load on first use.
    Two request threads doing that at once can deadlock on Python's
    per-module import locks (``_DeadlockError``, a ``RuntimeError``
    the submit route answers with 503), so a server imports them all
    before it serves a request.
    """
    for name in available_analyses():
        get_analysis(name)
    for module in _FRONTEND_MODULES:
        importlib.import_module(module)


@dataclasses.dataclass
class ServeConfig:
    """Everything ``repro serve`` needs to stand up a server."""

    host: str = "127.0.0.1"
    #: 0 = pick a free port (the bound port is on ``server.address``).
    port: int = 8642
    #: Worker processes in the shared warm pool.
    n_workers: int = 2
    #: Per-tenant cap on concurrently running jobs.
    quota: int = DEFAULT_QUOTA
    #: Journal/checkpoint directory.
    store_dir: str = DEFAULT_STORE_DIR
    #: Accepted API keys (tenants).  Empty = open, single-tenant.
    api_keys: Tuple[str, ...] = ()
    #: Per-job SSE ring capacity.
    ring_capacity: int = DEFAULT_RING_CAPACITY
    #: Cap on total concurrently running jobs (None = session default).
    max_active: Optional[int] = None
    #: Replay the journal on startup: restore settled jobs, resubmit
    #: unsettled ones from their checkpointed rounds.
    resume: bool = False


class _Handler(BaseHTTPRequestHandler):
    """Routes one request; ``self.server.repro`` is the ReproServer."""

    # HTTP/1.0: close-delimited bodies, one request per connection —
    # the right shape for SSE without chunked encoding.
    protocol_version = "HTTP/1.0"
    server_version = "repro-serve"

    def log_message(self, format: str, *args: Any) -> None:
        pass  # quiet; the CLI prints the one line that matters

    # -- plumbing ----------------------------------------------------------

    @property
    def repro(self) -> "ReproServer":
        return self.server.repro  # type: ignore[attr-defined]

    def _send_json(self, status: int, body: Dict[str, Any]) -> None:
        blob = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, error_body(status, message))

    def _tenant(self) -> Optional[str]:
        """The authenticated tenant, or None after sending a 401."""
        keys = self.repro.config.api_keys
        key = self.headers.get("X-API-Key")
        if not keys:
            return key or "anonymous"
        if key in keys:
            return key
        self._error(401, "missing or unknown X-API-Key")
        return None

    def _route(self) -> Tuple[str, Dict[str, str]]:
        parts = urlsplit(self.path)
        query = {name: values[-1] for name, values in parse_qs(parts.query).items()}
        return parts.path.rstrip("/") or "/", query

    # -- verbs -------------------------------------------------------------

    def do_GET(self) -> None:
        path, query = self._route()
        if path == "/healthz":
            self._send_json(200, self.repro.health())
            return
        tenant = self._tenant()
        if tenant is None:
            return
        if path == "/v1/jobs":
            jobs = self.repro.scheduler.jobs(tenant)
            self._send_json(
                200,
                {"jobs": [job_to_dict(j, include_report=False) for j in jobs]},
            )
            return
        if path.startswith("/v1/jobs/") and path.endswith("/events"):
            job_id = path[len("/v1/jobs/"):-len("/events")]
            self._stream_events(tenant, job_id, query)
            return
        if path.startswith("/v1/jobs/"):
            job = self.repro.scheduler.get(path[len("/v1/jobs/"):], tenant)
            if job is None:
                self._error(404, "no such job")
                return
            self._send_json(200, job_to_dict(job))
            return
        self._error(404, f"no route {path}")

    def do_POST(self) -> None:
        path, _ = self._route()
        if path != "/v1/jobs":
            self._error(404, f"no route {path}")
            return
        tenant = self._tenant()
        if tenant is None:
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
            payload = json.loads(self.rfile.read(length) or b"null")
        except (ValueError, json.JSONDecodeError):
            self._error(400, "request body must be a JSON object")
            return
        try:
            job = self.repro.scheduler.submit(tenant, payload)
        except WireError as exc:
            self._error(400, str(exc))
            return
        except RuntimeError as exc:  # scheduler closed
            self._error(503, str(exc))
            return
        self._send_json(202, job_to_dict(job, include_report=False))

    def do_DELETE(self) -> None:
        path, _ = self._route()
        if not path.startswith("/v1/jobs/"):
            self._error(404, f"no route {path}")
            return
        tenant = self._tenant()
        if tenant is None:
            return
        job_id = path[len("/v1/jobs/"):]
        try:
            job = self.repro.scheduler.cancel(job_id, tenant)
        except TimeoutError as exc:
            self._error(504, str(exc))
            return
        if job is None:
            self._error(404, "no such job")
            return
        self._send_json(200, job_to_dict(job))

    # -- SSE ---------------------------------------------------------------

    def _stream_events(
        self, tenant: str, job_id: str, query: Dict[str, str]
    ) -> None:
        job = self.repro.scheduler.get(job_id, tenant)
        if job is None:
            self._error(404, "no such job")
            return
        raw = self.headers.get("Last-Event-ID") or query.get("last_event_id")
        last_seen = -1
        if raw is not None:
            try:
                last_seen = int(raw)
            except ValueError:
                self._error(400, f"bad Last-Event-ID {raw!r}")
                return
        log = job.events
        if log.truncated_after(last_seen):
            # The ring no longer holds seq last_seen+1: a replay from
            # here would silently drop events, which the resume
            # contract forbids.  416 tells the client to fall back to
            # the job resource for the authoritative state.
            self._error(
                416,
                f"events after seq {last_seen} were evicted "
                f"(oldest retained: {log.first_seq})",
            )
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        try:
            while True:
                records, closed = log.collect(last_seen, timeout=HEARTBEAT_SECONDS)
                for record in records:
                    last_seen = record["seq"]
                    frame = f"id: {record['seq']}\n" f"data: {json.dumps(record)}\n\n"
                    self.wfile.write(frame.encode("utf-8"))
                if not records and not closed:
                    self.wfile.write(b": keep-alive\n\n")
                self.wfile.flush()
                if closed and not log.collect(last_seen, timeout=0)[0]:
                    return
        except (BrokenPipeError, ConnectionResetError):
            return  # client went away; the ring keeps its place


class ReproServer:
    """One warm Session + journal + scheduler + HTTP listener.

    Imports every lazily loaded analysis and frontend, then binds, at
    construction time (so ``port=0`` resolves immediately and
    :attr:`address` is valid before :meth:`start`); ``start()`` serves
    on a daemon thread, ``serve_forever()`` serves in the caller's
    thread, ``close()`` tears everything down in dependency order.
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        _import_request_modules()
        self.session = Session(EngineConfig(n_workers=self.config.n_workers))
        self.journal = CheckpointJournal(self.config.store_dir)
        self.scheduler = Scheduler(
            self.session,
            quota=self.config.quota,
            journal=self.journal,
            max_active=self.config.max_active,
            ring_capacity=self.config.ring_capacity,
        )
        self.n_resumed = 0
        if self.config.resume:
            self.n_resumed = self._resume()
        self._httpd = self._bind()
        self._httpd.daemon_threads = True
        self._httpd.repro = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    def _bind(self) -> ThreadingHTTPServer:
        """Bind the listening socket, riding out a dying predecessor.

        After a ``kill -9`` deploy, the old server's pool workers hold
        fork-inherited copies of its listening socket for up to a
        watchdog poll interval before their parent-death watchdogs
        fire (:func:`repro.core.parallel.watch_parent`), so the port
        can still read as in-use the moment ``--resume`` starts.  Only
        the resume path retries — a fresh server colliding with a
        *live* one should fail immediately.
        """
        address = (self.config.host, self.config.port)
        deadline = time.monotonic() + BIND_RETRY_SECONDS
        while True:
            try:
                return ThreadingHTTPServer(address, _Handler)
            except OSError as exc:
                if (
                    not self.config.resume
                    or exc.errno != errno.EADDRINUSE
                    or time.monotonic() >= deadline
                ):
                    raise
                time.sleep(0.25)

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — resolved even for ``port=0``."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ReproServer":
        """Serve on a background daemon thread; returns self."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve in the calling thread until :meth:`close` (or SIGINT)."""
        self._httpd.serve_forever()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self.scheduler.close()
        self.session.close()

    def __enter__(self) -> "ReproServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- resume ------------------------------------------------------------

    def _resume(self) -> int:
        """Replay the journal: restore settled jobs, resubmit the rest.

        An unsettled job re-enters its tenant's queue under its
        original id with every checkpointed round attached; the
        session replays those rounds through the analysis state
        without re-running an evaluation and continues the campaign at
        the first un-checkpointed round — bit-identical (per-round
        randomness is a pure function of ``(seed, round, start)``) to
        the run the restart interrupted.  An unsettled job whose
        payload no longer validates (say, it names a backend this
        version dropped) settles as ``failed`` with the validation
        message, journaled and still queryable, and the other jobs
        resume.  Returns how many jobs were resubmitted live.
        """
        resumed = 0
        for job_id, entry in self.journal.load().items():
            self.scheduler.claim_job_id(job_id)
            if entry.settled:
                self.scheduler.restore_settled(
                    job_id,
                    entry.tenant,
                    entry.payload,
                    entry.state or "done",
                    entry.report,
                    entry.error,
                )
                continue
            try:
                self.scheduler.submit(
                    entry.tenant,
                    entry.payload,
                    job_id=job_id,
                    resume_rounds=entry.outcomes(),
                    record=False,
                )
            except WireError as exc:
                self.journal.record_done(job_id, "failed", None, str(exc))
                self.scheduler.restore_settled(
                    job_id, entry.tenant, entry.payload, "failed", None, str(exc)
                )
                continue
            resumed += 1
        return resumed

    # -- health ------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {"ok": True, "n_resumed": self.n_resumed}
        body.update(self.scheduler.stats())
        pool = self.session.pool
        if pool is not None:
            body["n_workers"] = pool.n_workers
        return body
