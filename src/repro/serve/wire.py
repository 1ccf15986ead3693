"""The service's wire schema: job payloads in, reports and jobs out.

One strict, versioned JSON vocabulary shared by the HTTP server
(:mod:`repro.serve.server`), the checkpoint journal
(:mod:`repro.serve.checkpoint`) and the client
(:mod:`repro.serve.client`):

* **in** — :func:`parse_job_payload` validates a ``POST /v1/jobs``
  body (analysis, target spec, budget knobs) field by field and turns
  it into the :class:`~repro.core.batch.BatchJob` the existing
  :func:`repro.core.batch.job_request` translator understands, so an
  HTTP submission budgets *identically* to a ``repro batch`` job or a
  scanner job: ``job_request`` is the one knob→EngineConfig
  translation for campaign jobs (batch, scan, serve).  Unknown fields
  are rejected (a typo'd knob must not silently run with defaults),
  and so are knobs the job would ignore (``rounds``/``max_samples``
  next to ``smoke``, whose budget is the analysis's smoke options) and
  knobs below their minimum (:data:`repro.api.base.KNOB_MINIMUMS`).
* **out** — :func:`report_to_dict` / :func:`job_to_dict` are the JSON
  renderings of an :class:`~repro.api.report.AnalysisReport` and a
  scheduler job; both carry ``schema_version`` so clients can key
  their parsing.

:func:`payload_fingerprint` digests the canonical payload with the
same :mod:`repro.util.digest` recipe the worker payload cache and the
scan store key by — the journal stores it per job so a resumed
submission can be integrity-checked against what was originally
accepted.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Tuple

from repro.api.base import check_knob
from repro.api.report import finding_to_dict
from repro.core.batch import BatchJob
from repro.core.weak_distance import EVAL_MODES
from repro.util.digest import digest_bytes

#: Version stamped on every wire-level JSON envelope (job payloads,
#: job/report renderings, journal records).  Bump on incompatible
#: shape changes.
WIRE_SCHEMA_VERSION = 1


class WireError(ValueError):
    """A request payload failed validation (HTTP 400)."""


#: Knob name -> (python type, human description).  ``starts`` is the
#: CLI spelling; it travels as the ``n_starts`` BatchJob param.
_INT_KNOBS = ("seed", "niter", "rounds", "starts", "max_samples")
_BOOL_KNOBS = ("smoke", "racing")
_STR_KNOBS = ("backend", "eval_mode")
_ALLOWED_KEYS = frozenset(
    ("analysis", "target", "label") + _INT_KNOBS + _BOOL_KNOBS + _STR_KNOBS
)


def normalize_job_payload(payload: Any) -> Dict[str, Any]:
    """Validate a job payload and return its canonical dict form.

    The canonical form drops absent/None knobs, so two submissions
    that mean the same job normalize (and fingerprint) identically.
    Raises :class:`WireError` with a field-naming message on any
    violation — the server's 400 body.
    """
    from repro.api.registry import canonical_name, get_analysis
    from repro.mo.registry import available_backends

    if not isinstance(payload, dict):
        raise WireError("job payload must be a JSON object")
    unknown = sorted(set(payload) - _ALLOWED_KEYS)
    if unknown:
        raise WireError(
            f"unknown job field(s) {unknown}; allowed: "
            f"{sorted(_ALLOWED_KEYS)}"
        )
    analysis = payload.get("analysis")
    if not isinstance(analysis, str) or not analysis:
        raise WireError("'analysis' must be a non-empty string")
    try:
        analysis = canonical_name(analysis)
        cls = get_analysis(analysis)
    except KeyError:
        raise WireError(f"unknown analysis {analysis!r}") from None
    target = payload.get("target")
    if not isinstance(target, str) or not target:
        raise WireError("'target' must be a non-empty string")
    if cls.target_kind == "program":
        # Fail a malformed program spec at POST time, not job time
        # (file targets are resolved on the *server's* filesystem).
        from repro.api.targets import TargetError, parse_target_spec

        try:
            parse_target_spec(target)
        except TargetError as exc:
            raise WireError(f"bad target {target!r}: {exc}") from None
    normalized: Dict[str, Any] = {"analysis": analysis, "target": target}
    label = payload.get("label")
    if label is not None:
        if not isinstance(label, str):
            raise WireError("'label' must be a string")
        normalized["label"] = label
    for knob in _INT_KNOBS:
        value = payload.get(knob)
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, int):
            raise WireError(f"'{knob}' must be an integer")
        try:
            normalized[knob] = check_knob(knob, value)
        except ValueError as exc:
            raise WireError(str(exc)) from None
    for knob in _BOOL_KNOBS:
        value = payload.get(knob)
        if value is None:
            continue
        if not isinstance(value, bool):
            raise WireError(f"'{knob}' must be a boolean")
        if value:
            normalized[knob] = True
    if normalized.get("smoke"):
        for knob in ("rounds", "max_samples"):
            if knob in normalized:
                raise WireError(
                    f"'{knob}' cannot be combined with 'smoke' (a smoke job "
                    "runs the analysis's smoke budget)"
                )
    backend = payload.get("backend")
    if backend is not None:
        if backend not in available_backends():
            raise WireError(
                f"unknown backend {backend!r}; available: "
                f"{available_backends()}"
            )
        normalized["backend"] = backend
    eval_mode = payload.get("eval_mode")
    if eval_mode is not None:
        if eval_mode not in EVAL_MODES:
            raise WireError(f"bad eval_mode {eval_mode!r}; one of {EVAL_MODES}")
        normalized["eval_mode"] = eval_mode
    return normalized


def payload_to_batch_job(normalized: Dict[str, Any]) -> BatchJob:
    """The :class:`BatchJob` a canonical payload describes.

    Feed the result to :func:`repro.core.batch.job_request` for the
    session-ready :class:`~repro.api.session.JobRequest` — the same
    translator every campaign shape uses.
    """
    params = []
    for knob in (
        "niter", "rounds", "max_samples", "racing", "backend", "eval_mode", "smoke"
    ):
        if knob in normalized:
            params.append((knob, normalized[knob]))
    if "starts" in normalized:
        params.append(("n_starts", normalized["starts"]))
    return BatchJob(
        analysis=normalized["analysis"],
        target=normalized["target"],
        seed=normalized.get("seed"),
        params=tuple(params),
        label=normalized.get("label", ""),
    )


def parse_job_payload(payload: Any) -> Tuple[Dict[str, Any], BatchJob]:
    """Validate ``payload`` → ``(canonical dict, BatchJob)``."""
    normalized = normalize_job_payload(payload)
    return normalized, payload_to_batch_job(normalized)


def payload_fingerprint(normalized: Dict[str, Any]) -> str:
    """Digest of the canonical payload (journal integrity key)."""
    blob = json.dumps(
        {"version": WIRE_SCHEMA_VERSION, "payload": normalized},
        sort_keys=True,
    )
    return digest_bytes(blob.encode("utf-8"))[:16]


# ---------------------------------------------------------------------------
# Outbound renderings
# ---------------------------------------------------------------------------


def report_to_dict(report: Any) -> Dict[str, Any]:
    """JSON rendering of an :class:`~repro.api.report.AnalysisReport`.

    Carries everything the resume-parity contract is judged on
    (verdict, findings with representative inputs, per-round trace,
    evaluation counts); the analysis-specific ``detail`` object and
    the raw sample stream stay server-side (not JSON-serializable /
    unbounded).  ``elapsed_seconds`` and ``n_evals_cached`` say how
    the run went, not what it found, so parity leaves them out.
    """
    return {
        "schema_version": WIRE_SCHEMA_VERSION,
        "analysis": report.analysis,
        "target": report.target,
        "verdict": report.verdict,
        "findings": [finding_to_dict(f) for f in report.findings],
        "n_evals": report.n_evals,
        "rounds": report.rounds,
        "elapsed_seconds": report.elapsed_seconds,
        "trace": [
            {
                "index": t.index,
                "n_starts": t.n_starts,
                "n_evals": t.n_evals,
                "best_w": t.best_w,
                "found_zero": t.found_zero,
                "note": t.note,
            }
            for t in report.trace
        ],
        "seed": report.seed,
        "n_workers": report.n_workers,
        "partial": report.partial,
        "n_crash_retries": report.n_crash_retries,
        "n_evals_cached": report.n_evals_cached,
    }


def job_to_dict(job: Any, include_report: bool = True) -> Dict[str, Any]:
    """JSON rendering of a scheduler :class:`~repro.serve.scheduler.ServerJob`."""
    out: Dict[str, Any] = {
        "schema_version": WIRE_SCHEMA_VERSION,
        "id": job.job_id,
        "state": job.state,
        "analysis": job.payload["analysis"],
        "target": job.payload["target"],
        "label": job.payload.get("label", ""),
        "payload": dict(job.payload),
        "created": job.created,
        "started": job.started,
        "finished": job.finished,
        "n_events": job.events.next_seq,
        "n_resumed_rounds": job.n_resumed_rounds,
        "n_checkpointed_rounds": job.n_checkpointed_rounds,
        "error": job.error,
    }
    if include_report:
        out["report"] = job.report
    return out


def error_body(status: int, message: str) -> Dict[str, Any]:
    """The uniform JSON error envelope."""
    return {
        "schema_version": WIRE_SCHEMA_VERSION,
        "error": message,
        "status": status,
    }
