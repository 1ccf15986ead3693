"""The scan campaign: discovery → store lookup → session batch → report.

One :func:`scan_project` call is one CI run:

1. **walk** the tree (:mod:`repro.scan.walker`) and **discover** every
   function (:mod:`repro.scan.classify`): each one is classified by
   attempting its real lowering, so a function is lowerable iff its
   frontend lowers it, and a skipped one carries the frontend's
   located diagnostic;
2. **digest** the program each lowerable function's record carries
   (:func:`repro.scan.store.program_digest`).  The record's target is
   the memoized ``file::fn`` target the classifier lowered
   (:func:`repro.api.targets.file_target`), and the campaign's jobs
   run that very target, so no function is lowered twice and each job
   analyzes exactly the program its store key digests;
3. **replay** every (digest, analysis, config-fingerprint) hit from
   the persistent store — an unchanged function costs zero engine
   evaluations on re-scan.  Under ``--prove``, the static tier
   (:mod:`repro.static`) runs next: a persisted or freshly-proved
   safety certificate (:func:`repro.static.prove.prove`) also replays
   with zero engine evaluations, keyed in the same store under the
   :func:`~repro.scan.store.certificate_fingerprint`;
4. run the misses as one prioritized
   :func:`repro.core.batch.run_batch` campaign (one session, one
   warm worker pool) — hazard-dense functions first
   (:func:`repro.static.hazards.find_hazards` counts per program),
   then smallest (AST size), then target spec: a total order, so
   a scan interrupted mid-CI has spent its budget where the static
   tier sees danger.  Each job carries its own
   :class:`~repro.api.engine.EngineConfig` built by
   :func:`repro.core.batch.job_request` with a fixed seed and
   ``deterministic=True``, so serial and ``--workers N`` scans are
   bit-identical.  Only the first miss of each (digest, analysis) key
   in that order runs: an analysis depends only on the program and
   the seed, so every later miss with the same key (typically a C
   kernel and its equal Python twin) becomes a ``shared`` result that
   copies the leader's verdict, findings and ``n_evals`` and names
   the leader in ``shared_with``.  Shared results cost no engine
   evaluations and emit no job events, like store hits;
5. **persist** every complete new result (once per key), apply the
   findings baseline, and assemble the
   :class:`~repro.scan.report.ScanReport`.

Partial or failed jobs are reported but never persisted: a store
record always describes a *complete* run.  A follower of a failed or
partial leader carries the same error or partial flag.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.scan.classify import DiscoveredFunction, discover_functions
from repro.scan.report import (
    FROM_ENGINE,
    FROM_PROOF,
    FROM_SHARED,
    FROM_STORE,
    FunctionResult,
    ScanReport,
)
from repro.scan.store import (
    Baseline,
    ResultStore,
    certificate_fingerprint,
    config_fingerprint,
    finding_key,
    program_digest,
)
from repro.scan.walker import walk_source_files

#: Default store directory name, created under the scan root.
STORE_DIRNAME = ".repro-scan"


@dataclasses.dataclass
class ScanConfig:
    """Everything one scan run is parameterized by.

    ``seed`` defaults to 0 (not "random"): incremental replay and the
    serial/parallel bit-identity guarantee both need the engine's
    start derivation to be a pure function of the scan request.
    """

    analyses: Tuple[str, ...] = ("boundary",)
    n_workers: int = 1
    seed: int = 0
    niter: Optional[int] = None
    rounds: Optional[int] = None
    starts: Optional[int] = None
    backend: Optional[str] = None
    eval_mode: Optional[str] = None
    #: Tiny CI budget (each analysis's ``smoke_options``).
    smoke: bool = False
    #: Extra ``fnmatch`` patterns pruned from the walk.
    exclude: Tuple[str, ...] = ()
    #: Store directory (default: ``<root>/.repro-scan``).
    store_dir: Optional[str] = None
    #: Fail only on findings absent from the accepted baseline.
    baseline: bool = False
    #: Accept every current finding as the new baseline.
    update_baseline: bool = False
    #: Consult the static tier before building session jobs: a
    #: (function, analysis) pair with a safety certificate replays
    #: with zero engine evaluations, exactly like a cache hit.
    prove: bool = False
    on_event: Any = None
    event_sink: Any = None

    def fingerprint(self) -> str:
        return config_fingerprint(
            seed=self.seed,
            niter=self.niter,
            rounds=self.rounds,
            starts=self.starts,
            backend=self.backend,
            eval_mode=self.eval_mode,
            smoke=self.smoke,
        )


def _default_store_dir(root: str) -> str:
    top = Path(root)
    base = top if top.is_dir() else top.parent
    return str(base / STORE_DIRNAME)


def _job_params(config: ScanConfig) -> Tuple[Tuple[str, Any], ...]:
    """The :class:`~repro.core.batch.BatchJob` knob tuple for one scan."""
    params: List[Tuple[str, Any]] = []
    if config.niter is not None:
        params.append(("niter", config.niter))
    if config.rounds is not None:
        params.append(("rounds", config.rounds))
    else:
        params.append(("rounds", 20))
    if config.starts is not None:
        params.append(("n_starts", config.starts))
    if config.backend is not None:
        params.append(("backend", config.backend))
    if config.eval_mode is not None:
        params.append(("eval_mode", config.eval_mode))
    if config.smoke:
        params.append(("smoke", True))
    params.append(("max_samples", None))
    return tuple(params)


class _StaticTier:
    """Lazy per-digest access to the static pass during one scan.

    One abstract-interpretation run serves every consumer — hazard
    counts for miss prioritization and certificates for ``--prove`` —
    and runs only for functions that actually miss the store.
    """

    def __init__(self) -> None:
        self._results: Dict[str, Any] = {}
        self._hazards: Dict[str, int] = {}

    def _result(self, digest: str, program: Any) -> Any:
        if digest not in self._results:
            from repro.static import analyze

            try:
                self._results[digest] = analyze(program)
            except Exception:
                # The static tier is advisory here: a failure must
                # degrade to "no priority signal, no certificate",
                # never take the dynamic scan down with it.
                self._results[digest] = None
        return self._results[digest]

    def hazard_count(self, digest: str, program: Any) -> int:
        if digest not in self._hazards:
            from repro.static import find_hazards

            result = self._result(digest, program)
            try:
                count = len(find_hazards(result)) if result else 0
            except Exception:
                count = 0
            self._hazards[digest] = count
        return self._hazards[digest]

    def certificate(self, digest: str, program: Any, analysis: str) -> Any:
        from repro.static import prove

        result = self._result(digest, program)
        if result is None or not result.complete:
            return None
        try:
            return prove(program, analysis, result)
        except Exception:
            return None


def _proven_result(
    target: str, analysis: str, digest: str, certificate: Dict[str, Any]
) -> FunctionResult:
    return FunctionResult(
        target=target,
        analysis=analysis,
        verdict="not-found",
        findings=[],
        source=FROM_PROOF,
        digest=digest,
        n_evals=0,
        elapsed_seconds=0.0,
        certificate=dict(certificate),
    )


def _cached_result(
    record: Dict[str, Any], target: str, analysis: str
) -> FunctionResult:
    return FunctionResult(
        target=target,
        analysis=analysis,
        verdict=record.get("verdict", ""),
        findings=[dict(f) for f in record.get("findings", [])],
        source=FROM_STORE,
        digest=record["digest"],
        n_evals=int(record.get("n_evals", 0)),
        elapsed_seconds=float(record.get("elapsed_seconds", 0.0)),
    )


def _shared_result(leader: FunctionResult, target: str) -> FunctionResult:
    """``leader``'s outcome, reported for the equal program ``target``."""
    return dataclasses.replace(
        leader,
        target=target,
        findings=[dict(f) for f in leader.findings],
        source=FROM_SHARED,
        shared_with=leader.target,
    )


def _run_campaign(
    misses: Sequence[Tuple[DiscoveredFunction, str, str]],
    config: ScanConfig,
) -> List[FunctionResult]:
    """Analyze the store misses as one :func:`~repro.core.batch.run_batch`
    campaign.

    ``misses`` is ``(function, digest, analysis)`` triples, already
    prioritized and deduplicated.  Each job runs the classifier's
    lowered target (it describes itself as ``fn.spec``), not a
    re-resolution of the spec.
    """
    from repro.api.report import finding_to_dict
    from repro.core.batch import BatchJob, run_batch

    params = _job_params(config)
    jobs = [
        BatchJob(
            analysis=analysis,
            target=fn.target,
            seed=config.seed,
            params=params,
            label=fn.spec,
        )
        for fn, _, analysis in misses
    ]
    batch = run_batch(
        jobs,
        n_workers=config.n_workers,
        on_event=config.on_event,
        event_sink=config.event_sink,
    )
    results: List[FunctionResult] = []
    for (fn, digest, analysis), outcome in zip(misses, batch):
        result = FunctionResult(
            target=fn.spec,
            analysis=analysis,
            digest=digest,
            error=outcome.error or "",
        )
        report = outcome.report
        if report is not None:
            result.verdict = report.verdict
            result.findings = [finding_to_dict(f) for f in report.findings]
            result.n_evals = report.n_evals
            result.elapsed_seconds = report.elapsed_seconds
            result.partial = report.partial
        results.append(result)
    return results


def _apply_baseline(results: Sequence[FunctionResult], baseline: Baseline) -> None:
    for result in results:
        for finding in result.findings:
            key = finding_key(
                result.target,
                result.analysis,
                str(finding.get("kind", "")),
                str(finding.get("label", "")),
            )
            finding["new"] = key not in baseline


def scan_project(root: str, config: Optional[ScanConfig] = None) -> ScanReport:
    """Scan every lowerable function under ``root``; see module doc."""
    config = config or ScanConfig()
    if config.smoke and config.rounds is not None:
        raise ValueError(
            "rounds cannot be combined with smoke (a smoke scan runs each "
            "analysis's smoke budget)"
        )
    t0 = time.perf_counter()
    files = walk_source_files(root, exclude=config.exclude)
    discovered = discover_functions(files)
    store_dir = config.store_dir or _default_store_dir(root)
    store = ResultStore(store_dir)
    fingerprint = config.fingerprint()

    lowered = [
        (fn, program_digest(fn.program), fn.program)
        for fn in discovered
        if fn.lowerable
    ]
    static_tier = _StaticTier()
    cert_fp = None
    if config.prove:
        from repro.static import STATIC_VERSION

        cert_fp = certificate_fingerprint(STATIC_VERSION)

    cached: List[FunctionResult] = []
    proven: List[FunctionResult] = []
    misses: List[Tuple[DiscoveredFunction, str, str]] = []
    programs: Dict[str, Any] = {}
    for fn, digest, program in lowered:
        programs[digest] = program
        for analysis in config.analyses:
            record = store.get(digest, analysis, fingerprint)
            if record is not None:
                cached.append(_cached_result(record, fn.spec, analysis))
                continue
            if config.prove:
                # Prove-before-search: a persisted certificate replays
                # like a cache hit; a fresh proof is persisted so the
                # next --prove scan replays it without re-analyzing.
                cert_record = store.get(digest, analysis, cert_fp)
                if cert_record is None:
                    certificate = static_tier.certificate(
                        digest, program, analysis
                    )
                    if certificate is not None:
                        cert_record = {
                            "digest": digest,
                            "analysis": analysis,
                            "fingerprint": cert_fp,
                            "target": fn.spec,
                            "certificate": certificate.to_dict(),
                        }
                        store.put(cert_record)
                if cert_record is not None:
                    proven.append(
                        _proven_result(
                            fn.spec,
                            analysis,
                            digest,
                            cert_record.get("certificate", {}),
                        )
                    )
                    continue
            misses.append((fn, digest, analysis))
    # Hazard-dense functions first (a scan killed mid-CI has spent its
    # budget where the static tier sees danger), then cheapest (small
    # AST), then (target spec, analysis): a total order, so submission
    # order — and the JSONL append order — is bit-identical between
    # serial and ``--workers N`` scans.
    misses.sort(
        key=lambda m: (
            -static_tier.hazard_count(m[1], programs[m[1]]),
            m[0].size,
            m[0].spec,
            m[2],
        )
    )

    # One engine run per (digest, analysis): the first miss of a key in
    # that total order leads, and the others share its result.
    runs: List[Tuple[DiscoveredFunction, str, str]] = []
    followers: List[Tuple[DiscoveredFunction, str, str]] = []
    run_keys = set()
    for miss in misses:
        key = (miss[1], miss[2])
        (followers if key in run_keys else runs).append(miss)
        run_keys.add(key)

    fresh: List[FunctionResult] = []
    if runs:
        fresh = _run_campaign(runs, config)
        for result in fresh:
            if result.error or result.partial:
                continue  # never persist an incomplete verdict
            store.put(
                {
                    "digest": result.digest,
                    "analysis": result.analysis,
                    "fingerprint": fingerprint,
                    "target": result.target,
                    "verdict": result.verdict,
                    "findings": result.findings,
                    "n_evals": result.n_evals,
                    "elapsed_seconds": result.elapsed_seconds,
                }
            )

    by_key = {(r.digest, r.analysis): r for r in fresh}
    shared = [
        _shared_result(by_key[(digest, analysis)], fn.spec)
        for fn, digest, analysis in followers
    ]

    results = cached + proven + fresh + shared
    results.sort(key=lambda r: (r.target, r.analysis))

    if config.update_baseline:
        Baseline.write(
            store_dir,
            (
                finding_key(
                    r.target,
                    r.analysis,
                    str(f.get("kind", "")),
                    str(f.get("label", "")),
                )
                for r in results
                for f in r.findings
            ),
        )
    if config.baseline:
        _apply_baseline(results, Baseline.load(store_dir))

    return ScanReport(
        root=str(root),
        analyses=list(config.analyses),
        n_files=len(files),
        discovered=discovered,
        results=results,
        n_evals=sum(r.n_evals for r in results if r.source == FROM_ENGINE),
        elapsed_seconds=time.perf_counter() - t0,
        baseline=config.baseline,
        store_dir=store_dir,
    )
