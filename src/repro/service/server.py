"""The synthesis service core and its asyncio HTTP front-end.

:class:`SynthesisService` is the transport-agnostic heart of the service
layer: it owns the problem registry, the content-addressed result cache and a
**bounded async job engine** (submit → poll/await → result), and exposes the
typed contracts of :mod:`repro.service.api` to every front-end.  The CLI
calls its synchronous methods in-process; the HTTP server speaks the same
objects over the wire, so ``repro synthesize`` and ``POST /v1/synthesize``
cannot drift apart.

Job engine invariants
=====================

* **The event loop never blocks on proof search.**  Each job runs in its own
  worker process (:func:`repro.service.workers.run_request_in_process` — the
  same spawn/poll/terminate machinery as the sweep pool), awaited through an
  executor thread.  The loop stays free to answer ``/healthz``, job polls and
  further submissions while searches run.
* **Warm-cache submissions never enter the queue.**  ``submit`` peeks the
  cache first (:meth:`SynthesisCache.peek` — no stats mutation); a hit is
  served inline as an already-``done`` job, concurrent hits cost a dict
  lookup each, and the worker slots stay reserved for cold traffic.
* **The queue is bounded.**  At most ``queue_limit`` jobs may be queued or
  running; submissions past the bound fail fast with the structured
  ``queue_full`` error instead of growing an unbounded backlog.
* **Jobs are cancellable and deadlined.**  ``cancel`` terminates a running
  job's worker process; a per-job timeout (request field or service default)
  does the same and surfaces the structured ``timeout`` error.
* **Results flow back into the cache.**  A cold job's synthesized AST rides
  home over the result pipe and is adopted into the parent's memory tier, so
  the next identical submission is a warm hit even without a disk tier.

The HTTP layer is a deliberately small stdlib-only HTTP/1.1 implementation
over ``asyncio.start_server`` (one JSON document per request/response,
``Connection: close``) — enough surface for the v1 API without pulling in a
framework the environment does not ship:

=========  ==================================  =================================
method     path                                body / response
=========  ==================================  =================================
GET        ``/healthz``                        liveness + job/cache counters +
                                               node identity (id, role,
                                               manifest generation, queue depth)
GET        ``/v1/problems[?tag=T]``            list of :class:`api.ProblemInfo`;
                                               with ``limit``/``cursor`` a
                                               :class:`api.ProblemPage`
POST       ``/v1/synthesize[?wait=1]``         :class:`api.SynthesizeRequest` →
                                               :class:`api.JobStatus` (202 while
                                               queued, 200 when finished)
GET        ``/v1/jobs/<id>``                   :class:`api.JobStatus`
DELETE     ``/v1/jobs/<id>``                   cancel → :class:`api.JobStatus`
POST       ``/v1/sweeps[?wait=1]``             :class:`api.SweepSubmitRequest` →
                                               :class:`api.SweepJobStatus` (202);
                                               ``wait=1`` blocks and answers the
                                               legacy :class:`api.SweepResponse`
GET        ``/v1/sweeps/<id>``                 :class:`api.SweepJobStatus` with
                                               per-shard progress
GET        ``/v1/witnesses[?limit=N]``         :class:`api.WitnessPage` (newest
                                               first)
GET        ``/v1/witnesses/<digest>``          :class:`api.WitnessPayload`
PUT        ``/v1/witnesses``                   import a
                                               :class:`api.WitnessPayload`
                                               (re-validated end to end) →
                                               :class:`api.WitnessInfo`
GET        ``/v1/cache/stats[?cache_dir]``     :class:`api.DiskCacheStats` /
                                               :class:`api.ProcessCacheStats`;
                                               ``limit``/``cursor`` paginate
=========  ==================================  =================================

Sweeps are first-class fleet jobs: ``submit_sweep`` plans shards with a
:class:`~repro.service.fleet.SweepCoordinator` over this service's
``worker_nodes`` (or the submission's ``nodes``, or the local pool), runs
the blocking coordinator on an executor thread, and publishes per-shard
progress snapshots for ``GET /v1/sweeps/<id>`` as the coordinator reports
transitions.
"""

from __future__ import annotations

import asyncio
import base64
import itertools
import json
import logging
import os
import socket
import threading
import time
import weakref
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro.core.interning import intern_cache_stats
from repro.nr.columns import shared_interner_metric_samples
from repro.obs.metrics import get_registry, process_uptime_seconds
from repro.obs.trace import TRACE_HEADER, TraceContext, get_tracer
from repro.proofs.search import last_tables_stats
from repro.service import api
from repro.service.cache import SynthesisCache, disk_entries
from repro.service.fleet import SweepCoordinator, nodes_from_urls
from repro.service.manifest import CacheManifest
from repro.service.registry import ProblemRegistry, RegistryEntry, default_registry
from repro.service.workers import (
    execute_synthesize_request,
    resolve_request_entry,
    resolve_sweep_names,
    run_request_in_process,
    run_sweep,
)

logger = logging.getLogger(__name__)

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8075
#: Bound on jobs queued + running; past it ``submit`` fails with queue_full.
DEFAULT_QUEUE_LIMIT = 64
#: Finished jobs retained for polling before the oldest are forgotten.
FINISHED_JOB_RETENTION = 256


@dataclass
class _Job:
    """Mutable engine-side record of one async job (snapshots go out typed)."""

    id: str
    request: api.SynthesizeRequest
    state: str
    #: Wall-clock timestamps — *display only* (they go out on the wire).
    #: All ordering/duration arithmetic uses the ``*_mono`` fields so a
    #: wall-clock jump (NTP step, VM resume) cannot reorder or misage jobs.
    submitted_at: float
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    submitted_mono: float = 0.0
    finished_mono: Optional[float] = None
    #: The resolved registry entry (a synthetic one for ``spec_text`` jobs,
    #: whose requests carry no registry name).
    entry: Optional[RegistryEntry] = None
    result: Optional[api.SynthesisResult] = None
    error: Optional[api.ErrorInfo] = None
    task: Optional[asyncio.Task] = None
    cancel_event: threading.Event = field(default_factory=threading.Event)
    done_event: Optional[asyncio.Event] = None
    trace_id: Optional[str] = None

    @property
    def problem_name(self) -> str:
        return self.entry.name if self.entry is not None else self.request.problem

    @property
    def active(self) -> bool:
        return self.state in (api.JOB_QUEUED, api.JOB_RUNNING)


@dataclass
class _SweepJob:
    """Mutable engine-side record of one async *sweep* job."""

    id: str
    request: api.SweepSubmitRequest
    state: str
    submitted_at: float
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    submitted_mono: float = 0.0
    finished_mono: Optional[float] = None
    shards: Tuple[api.ShardInfo, ...] = ()
    result: Optional[api.SweepResponse] = None
    error: Optional[api.ErrorInfo] = None
    task: Optional[asyncio.Task] = None
    done_event: Optional[asyncio.Event] = None
    trace_id: Optional[str] = None

    @property
    def active(self) -> bool:
        return self.state in (api.JOB_QUEUED, api.JOB_RUNNING)


class SynthesisService:
    """The service core: registry + cache + bounded async job engine.

    Synchronous methods (``list_problems``/``synthesize``/``verify``/
    ``sweep``/``cache_stats``) run inline and are what the CLI uses; the
    ``async`` job methods (``submit``/``job_status``/``wait``/``cancel``)
    power the HTTP front-end.  Both speak :mod:`repro.service.api` types and
    raise :class:`~repro.service.api.ApiError` exclusively.
    """

    def __init__(
        self,
        registry: Optional[ProblemRegistry] = None,
        cache: Optional[SynthesisCache] = None,
        cache_dir: Optional[str] = None,
        max_workers: Optional[int] = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        default_job_timeout: Optional[float] = None,
        node_id: Optional[str] = None,
        worker_nodes: Sequence[str] = (),
    ) -> None:
        self.registry = registry or default_registry()
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.node_id = node_id or f"{socket.gethostname()}-{os.getpid()}"
        #: Base URLs of remote worker nodes this service coordinates sweeps
        #: across; empty means sweeps run on the local pool only.
        self.worker_nodes = tuple(worker_nodes)
        if cache is not None:
            self.cache = cache
        else:
            try:
                self.cache = SynthesisCache(disk_dir=self.cache_dir, node_id=self.node_id)
            except OSError as exc:
                raise api.invalid_request(
                    f"cannot use cache dir {self.cache_dir!r}: {exc}"
                ) from exc
        self.max_workers = max_workers or (os.cpu_count() or 2)
        self.queue_limit = queue_limit
        self.default_job_timeout = default_job_timeout
        self.jobs_enqueued = 0
        self.warm_submissions = 0
        self.sweeps_enqueued = 0
        self._jobs: Dict[str, _Job] = {}
        self._sweep_jobs: Dict[str, _SweepJob] = {}
        self._ids = itertools.count(1)
        self._worker_slots: Optional[asyncio.Semaphore] = None
        _register_service_collectors(self)

    # ------------------------------------------------------------ sync methods
    def _entry(self, name: str) -> RegistryEntry:
        try:
            return self.registry.get(name)
        except KeyError as exc:
            raise api.unknown_problem(exc.args[0]) from exc

    def list_problems(self, tag: Optional[str] = None) -> List[api.ProblemInfo]:
        return [entry.describe() for entry in self.registry.entries(tag=tag)]

    def list_problems_page(
        self,
        tag: Optional[str] = None,
        limit: Optional[int] = None,
        cursor: Optional[str] = None,
    ) -> api.ProblemPage:
        """One page of the (optionally tag-filtered) registry listing.

        Ordering is registration order — stable across requests — so pages
        tile the listing.  The cursor is opaque and only valid for the same
        ``tag`` filter it was issued under; anything else is
        ``invalid_request``.
        """
        infos = self.list_problems(tag=tag)
        start = 0
        if cursor is not None:
            last_name = _decode_cursor(cursor)
            names = [info.name for info in infos]
            if last_name not in names:
                raise api.invalid_request(
                    f"unknown cursor {cursor!r} for this listing", cursor=cursor
                )
            start = names.index(last_name) + 1
        page = infos[start:] if limit is None else infos[start : start + limit]
        next_cursor = None
        if page and start + len(page) < len(infos):
            next_cursor = _encode_cursor(page[-1].name)
        return api.ProblemPage(problems=tuple(page), next_cursor=next_cursor)

    def synthesize(self, request: api.SynthesizeRequest) -> api.SynthesisResult:
        """Run one request inline (the CLI path; blocks until finished)."""
        response, _, _ = execute_synthesize_request(
            request, registry=self.registry, cache=self.cache
        )
        return response

    def verify(self, request: api.VerifyRequest) -> api.SynthesisResult:
        entry = self._entry(request.problem)
        if entry.instances is None:
            raise api.invalid_request(
                f"problem {request.problem!r} has no instance generator; cannot verify"
            )
        return self.synthesize(request.to_synthesize())

    def sweep(self, request: api.SweepRequest) -> api.SweepResponse:
        summary = run_sweep(
            names=resolve_sweep_names(request, self.registry),
            registry=self.registry,
            processes=request.processes,
            timeout=request.timeout,
            cache_dir=request.cache_dir,
            max_depth=request.max_depth,
            verify_scale=request.verify_scale,
        )
        return summary.to_api()

    def cache_stats(
        self,
        cache_dir: Optional[str] = None,
        limit: Optional[int] = None,
        cursor: Optional[str] = None,
    ) -> Union[api.DiskCacheStats, api.ProcessCacheStats]:
        """Disk inventory for ``cache_dir``, else this process's telemetry.

        ``limit``/``cursor`` paginate the entry listing: paginated pages are
        ordered digest-ascending (stable under concurrent stores, and a
        cursor pointing at a since-evicted entry degrades to "resume after
        where it would sort" instead of an error).  ``total_payload_bytes``
        always covers the whole directory, not just the page.
        """
        if not cache_dir:
            if limit is not None or cursor is not None:
                raise api.invalid_request(
                    "limit/cursor apply to the disk entry listing; pass cache_dir"
                )
            from repro.nr.columns import shared_interner_stats

            return api.ProcessCacheStats(
                intern_table=intern_cache_stats(),
                shared_value_interner=shared_interner_stats(),
                search_tables=last_tables_stats(),
                result_cache=self.cache.stats.as_dict(),
                witness_store=(
                    self.cache.witnesses.stats.as_dict()
                    if self.cache.witnesses is not None
                    else {}
                ),
            )
        entries = disk_entries(cache_dir)
        total_payload_bytes = sum(entry.payload_bytes for entry in entries)
        next_cursor = None
        if limit is not None or cursor is not None:
            entries = sorted(entries, key=lambda entry: entry.digest)
            start = 0
            if cursor is not None:
                digests = [entry.digest for entry in entries]
                start = bisect_right(digests, _decode_cursor(cursor))
            page = entries[start:] if limit is None else entries[start : start + limit]
            if page and start + len(page) < len(entries):
                next_cursor = _encode_cursor(page[-1].digest)
            entries = page
        manifest_state = CacheManifest(cache_dir).read()
        manifest_info: Dict[str, object] = dict(manifest_state.to_json_dict())
        return api.DiskCacheStats(
            cache_dir=str(cache_dir),
            entries=entries,
            total_payload_bytes=total_payload_bytes,
            next_cursor=next_cursor,
            manifest=manifest_info,
        )

    # --------------------------------------------------------- witness store
    def _witness_store(self):
        store = self.cache.witnesses
        if store is None:
            raise api.invalid_request(
                "witness store unavailable: the server cache has no disk directory"
            )
        return store

    def list_witnesses(self, limit: Optional[int] = None) -> api.WitnessPage:
        """The witness-store inventory (``GET /v1/witnesses``), newest first."""
        summaries = self._witness_store().list()
        if limit is not None:
            summaries = summaries[:limit]
        return api.WitnessPage(witnesses=tuple(summary.to_api() for summary in summaries))

    def get_witness(self, digest: str) -> api.WitnessPayload:
        """One witness's portable payload (``GET /v1/witnesses/<digest>``)."""
        store = self._witness_store()
        blob = store.export_payload(digest)
        if blob is None:
            raise api.ApiError("not_found", f"no witness {digest!r} in this store")
        info = None
        for summary in store.list():
            if summary.digest == digest:
                info = summary.to_api()
                break
        return api.WitnessPayload(payload=base64.b64encode(blob).decode("ascii"), info=info)

    def import_witness(self, payload: api.WitnessPayload) -> api.WitnessInfo:
        """Adopt a serialized witness payload (``PUT /v1/witnesses``).

        The payload re-validates end to end (fingerprint, digest, full proof
        re-check) before anything touches disk; a bad payload is the caller's
        error, not a silent miss.
        """
        from repro.errors import ProofError

        try:
            blob = base64.b64decode(payload.payload, validate=True)
        except Exception as exc:
            raise api.invalid_request(f"witness payload is not valid base64: {exc}") from exc
        store = self._witness_store()
        try:
            record = store.import_payload(blob)
        except ProofError as exc:
            raise api.invalid_request(f"witness payload rejected: {exc}") from exc
        return api.WitnessInfo(
            digest=record.digest,
            name=record.name,
            proof_size=record.proof_size,
            created=record.created,
            payload_bytes=len(blob),
            sequent=str(record.sequent),
        )

    def queue_depth(self) -> int:
        """Jobs currently queued or running (sync jobs + sweep jobs)."""
        return sum(1 for job in self._jobs.values() if job.active) + sum(
            1 for job in self._sweep_jobs.values() if job.active
        )

    def health(self) -> Dict[str, object]:
        counts = {state: 0 for state in api.JOB_STATES}
        for job in self._jobs.values():
            counts[job.state] += 1
        sweep_counts = {state: 0 for state in api.JOB_STATES}
        for sweep_job in self._sweep_jobs.values():
            sweep_counts[sweep_job.state] += 1
        registry = get_registry()
        return {
            "status": "ok",
            "version": api.API_VERSION,
            "uptime_seconds": process_uptime_seconds(),
            "requests_total": registry.counter_total("repro_http_requests_total"),
            "errors_total": registry.counter_total("repro_http_errors_total"),
            "problems": len(self.registry),
            "jobs": counts,
            "jobs_enqueued": self.jobs_enqueued,
            "warm_submissions": self.warm_submissions,
            "sweeps": sweep_counts,
            "sweeps_enqueued": self.sweeps_enqueued,
            "cache": self.cache.stats.as_dict(),
            # Node identity: what a coordinator needs to score this node.
            "node": {
                "id": self.node_id,
                "role": "coordinator" if self.worker_nodes else "worker",
                "worker_nodes": list(self.worker_nodes),
                "manifest_generation": self.cache.manifest_generation(),
                "queue_depth": self.queue_depth(),
            },
        }

    # ------------------------------------------------------------- job engine
    def _snapshot(self, job: _Job) -> api.JobStatus:
        return api.JobStatus(
            id=job.id,
            state=job.state,
            problem=job.problem_name,
            submitted_at=job.submitted_at,
            started_at=job.started_at,
            finished_at=job.finished_at,
            result=job.result,
            error=job.error,
        )

    def _get_job(self, job_id: str) -> _Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise api.unknown_job(job_id)
        return job

    def _prune_finished(self) -> None:
        finished = [job for job in self._jobs.values() if not job.active]
        if len(finished) <= FINISHED_JOB_RETENTION:
            return
        # Monotonic ordering: a backwards wall-clock step must not make a
        # fresh result the eviction victim while stale ones linger.
        finished.sort(key=lambda job: job.finished_mono or job.submitted_mono)
        for job in finished[: len(finished) - FINISHED_JOB_RETENTION]:
            del self._jobs[job.id]

    def _warm_response(
        self, request: api.SynthesizeRequest, entry: RegistryEntry
    ) -> Optional[api.SynthesisResult]:
        """Serve ``request`` from the cache if that is cheap and sufficient.

        Only cache-tier traffic qualifies: a verification family or a custom
        cache directory means real work that belongs on a worker.  The peek
        is mutation-free; on a hit the inline pipeline run is just validate +
        lookup (microseconds), which is safe on the event loop.  The
        pipeline's lookup is the only one that counts the hit.
        """
        if request.verify_scale or request.cache_dir:
            return None
        problem = entry.problem()
        tier = self.cache.peek(problem)
        if tier is None:
            return None
        # A peeked disk entry can be corrupt or concurrently evicted, and
        # falling through to a cold proof search here would block the event
        # loop for seconds, so it is promoted (a disk read, not a hit) before
        # anything runs inline.  The pipeline run below is then guaranteed a memory
        # hit: nothing can evict the entry between these statements (no
        # awaits, same thread).
        if tier == "disk" and self.cache.promote(problem) is None:
            return None
        response, _, _ = execute_synthesize_request(
            request, registry=self.registry, cache=self.cache
        )
        return response

    async def submit(self, request: api.SynthesizeRequest) -> api.JobStatus:
        """Enqueue a job — or answer it inline when the cache is warm.

        ``spec_text`` submissions resolve to a synthetic registry entry here
        (parse errors surface as the structured ``parse_error`` before
        anything is enqueued); registry submissions resolve by name.
        """
        entry = resolve_request_entry(request, self.registry)
        job_id = f"job-{next(self._ids):06d}"
        now = time.time()
        mono = time.monotonic()
        context = get_tracer().current()
        trace_id = context.trace_id if context is not None else None
        warm = self._warm_response(request, entry)
        if warm is not None:
            self.warm_submissions += 1
            job = _Job(
                id=job_id,
                request=request,
                state=api.JOB_DONE,
                submitted_at=now,
                started_at=now,
                finished_at=time.time(),
                submitted_mono=mono,
                finished_mono=time.monotonic(),
                entry=entry,
                result=warm,
                trace_id=trace_id,
            )
            self._jobs[job_id] = job
            self._prune_finished()
            return self._snapshot(job)
        if self.queue_depth() >= self.queue_limit:
            raise api.queue_full(self.queue_limit)
        job = _Job(
            id=job_id,
            request=request,
            state=api.JOB_QUEUED,
            submitted_at=now,
            submitted_mono=mono,
            entry=entry,
            done_event=asyncio.Event(),
            trace_id=trace_id,
        )
        self._jobs[job_id] = job
        self.jobs_enqueued += 1
        if self._worker_slots is None:
            self._worker_slots = asyncio.Semaphore(self.max_workers)
        job.task = asyncio.create_task(self._run_job(job))
        self._prune_finished()
        return self._snapshot(job)

    async def _run_job(self, job: _Job) -> None:
        try:
            async with self._worker_slots:
                if job.cancel_event.is_set():
                    self._finish(job, api.JOB_CANCELLED, error=api.job_cancelled(job.id).info)
                    return
                job.state = api.JOB_RUNNING
                job.started_at = time.time()
                loop = asyncio.get_running_loop()
                tracer = get_tracer()
                # The span closes (and is recorded) before this coroutine
                # yields after ``_finish``, so ``wait``-ers that resume on the
                # done event always see the complete job span.
                with tracer.span("job", job_id=job.id, problem=job.problem_name) as job_span:
                    if job_span.context is not None:
                        job.trace_id = job_span.context.trace_id
                    runner = partial(
                        run_request_in_process,
                        job.request,
                        cache_dir=job.request.cache_dir or self.cache_dir,
                        timeout=job.request.timeout or self.default_job_timeout,
                        cancel=job.cancel_event,
                        trace_context=tracer.current(),
                    )
                    try:
                        response, result = await loop.run_in_executor(None, runner)
                    except api.ApiError as exc:
                        job_span.set_attribute("error", exc.code)
                        state = api.JOB_CANCELLED if exc.code == "cancelled" else api.JOB_FAILED
                        self._finish(job, state, error=exc.info)
                        return
                    except Exception as exc:  # noqa: BLE001 - jobs never crash the engine
                        job_span.set_attribute("error", type(exc).__name__)
                        self._finish(
                            job,
                            api.JOB_FAILED,
                            error=api.ApiError("internal", f"{type(exc).__name__}: {exc}").info,
                        )
                        return
                    self._adopt_result(job, result)
                    self._finish(job, api.JOB_DONE, result=response)
        except asyncio.CancelledError:
            if not job.finished_at:
                self._finish(job, api.JOB_CANCELLED, error=api.job_cancelled(job.id).info)

    def _adopt_result(self, job: _Job, result) -> None:
        """Warm the parent's memory tier with the worker's synthesized AST."""
        if result is None:
            return
        try:
            entry = job.entry if job.entry is not None else self.registry.get(job.request.problem)
            self.cache.store_memory(entry.problem(), result)
        except Exception as exc:  # noqa: BLE001 - cache warming is best-effort
            # Best-effort, but not silent: the next identical submission pays
            # a cold search, so leave a trail for whoever wonders why.
            logger.debug(
                "cache warm failed for job %s (%s): %s", job.id, job.problem_name, exc
            )
            get_registry().counter(
                "repro_cache_warm_failures_total",
                "Worker results that failed to warm the parent memory tier",
            ).inc()

    def _finish(self, job: _Job, state: str, result=None, error=None) -> None:
        job.state = state
        job.result = result
        job.error = error
        job.finished_at = time.time()
        job.finished_mono = time.monotonic()
        if job.done_event is not None:
            job.done_event.set()

    async def job_status(self, job_id: str) -> api.JobStatus:
        return self._snapshot(self._get_job(job_id))

    async def wait(self, job_id: str, timeout: Optional[float] = None) -> api.JobStatus:
        """Block until the job finishes (or ``timeout`` elapses), then snapshot."""
        job = self._get_job(job_id)
        if job.active and job.done_event is not None:
            try:
                await asyncio.wait_for(job.done_event.wait(), timeout)
            except asyncio.TimeoutError:
                pass  # return the still-running snapshot
        return self._snapshot(job)

    async def cancel(self, job_id: str) -> api.JobStatus:
        job = self._get_job(job_id)
        if job.state == api.JOB_QUEUED:
            job.cancel_event.set()
            if job.task is not None:
                job.task.cancel()
            self._finish(job, api.JOB_CANCELLED, error=api.job_cancelled(job.id).info)
        elif job.state == api.JOB_RUNNING:
            # The executor thread sees the event, terminates the worker
            # process and resolves the job as cancelled.
            job.cancel_event.set()
        return self._snapshot(job)

    # ------------------------------------------------------- sweep job engine
    def _sweep_snapshot(self, job: _SweepJob) -> api.SweepJobStatus:
        return api.SweepJobStatus(
            id=job.id,
            state=job.state,
            submitted_at=job.submitted_at,
            started_at=job.started_at,
            finished_at=job.finished_at,
            shards=job.shards,
            result=job.result,
            error=job.error,
        )

    def _get_sweep_job(self, job_id: str) -> _SweepJob:
        job = self._sweep_jobs.get(job_id)
        if job is None:
            raise api.unknown_job(job_id)
        return job

    def _prune_finished_sweeps(self) -> None:
        finished = [job for job in self._sweep_jobs.values() if not job.active]
        if len(finished) <= FINISHED_JOB_RETENTION:
            return
        finished.sort(key=lambda job: job.finished_mono or job.submitted_mono)
        for job in finished[: len(finished) - FINISHED_JOB_RETENTION]:
            del self._sweep_jobs[job.id]

    def _coordinator_for(
        self, request: api.SweepSubmitRequest, on_update
    ) -> Tuple[SweepCoordinator, api.SweepRequest, List[str]]:
        """The coordinator, effective shard request and problem list for a sweep.

        Nodes come from the submission (falling back to this service's
        standing ``worker_nodes``); no nodes at all means the local pool.
        The shard request inherits this service's cache directory when the
        submission names none, so every node warms the same disk tier.
        """
        urls = request.nodes or self.worker_nodes
        coordinator = SweepCoordinator(
            nodes=nodes_from_urls(urls, include_local=not urls),
            shard_size=request.shard_size,
            max_retries=request.max_retries,
            on_update=on_update,
        )
        sweep_request = request.to_sweep_request()
        if sweep_request.cache_dir is None and self.cache_dir is not None:
            sweep_request = api.SweepRequest.from_json_dict(
                {**sweep_request.to_json_dict(), "cache_dir": self.cache_dir}
            )
        return coordinator, sweep_request, resolve_sweep_names(sweep_request, self.registry)

    async def submit_sweep(self, request: api.SweepSubmitRequest) -> api.SweepJobStatus:
        """Enqueue a sweep as one pollable fleet job (``POST /v1/sweeps``)."""
        if self.queue_depth() >= self.queue_limit:
            raise api.queue_full(self.queue_limit)
        job_id = f"sweep-{next(self._ids):06d}"
        context = get_tracer().current()
        job = _SweepJob(
            id=job_id,
            request=request,
            state=api.JOB_QUEUED,
            submitted_at=time.time(),
            submitted_mono=time.monotonic(),
            done_event=asyncio.Event(),
            trace_id=context.trace_id if context is not None else None,
        )

        def _on_update(shards: Tuple[api.ShardInfo, ...]) -> None:
            # Called from the coordinator's executor thread; a tuple
            # assignment is atomic, so pollers always see a consistent set.
            job.shards = shards

        coordinator, sweep_request, names = self._coordinator_for(request, _on_update)
        self._sweep_jobs[job_id] = job
        self.sweeps_enqueued += 1
        if self._worker_slots is None:
            self._worker_slots = asyncio.Semaphore(self.max_workers)
        job.task = asyncio.create_task(
            self._run_sweep_job(job, coordinator, sweep_request, names)
        )
        self._prune_finished_sweeps()
        return self._sweep_snapshot(job)

    async def _run_sweep_job(
        self,
        job: _SweepJob,
        coordinator: SweepCoordinator,
        sweep_request: api.SweepRequest,
        names: List[str],
    ) -> None:
        try:
            async with self._worker_slots:
                job.state = api.JOB_RUNNING
                job.started_at = time.time()
                loop = asyncio.get_running_loop()
                tracer = get_tracer()
                with tracer.span("sweep.job", job_id=job.id, problems=len(names)) as sweep_span:
                    if sweep_span.context is not None:
                        job.trace_id = sweep_span.context.trace_id
                    try:
                        result = await loop.run_in_executor(
                            None, coordinator.run, sweep_request, names, tracer.current()
                        )
                    except api.ApiError as exc:
                        sweep_span.set_attribute("error", exc.code)
                        job.shards = coordinator.shard_snapshots()
                        self._finish_sweep(job, api.JOB_FAILED, error=exc.info)
                        return
                    except Exception as exc:  # noqa: BLE001 - engine must survive
                        sweep_span.set_attribute("error", type(exc).__name__)
                        self._finish_sweep(
                            job,
                            api.JOB_FAILED,
                            error=api.ApiError("internal", f"{type(exc).__name__}: {exc}").info,
                        )
                        return
                    job.shards = coordinator.shard_snapshots()
                    self._finish_sweep(job, api.JOB_DONE, result=result)
        except asyncio.CancelledError:
            if not job.finished_at:
                self._finish_sweep(
                    job, api.JOB_CANCELLED, error=api.job_cancelled(job.id).info
                )

    def _finish_sweep(self, job: _SweepJob, state: str, result=None, error=None) -> None:
        job.state = state
        job.result = result
        job.error = error
        job.finished_at = time.time()
        job.finished_mono = time.monotonic()
        if job.done_event is not None:
            job.done_event.set()

    async def sweep_status(self, job_id: str) -> api.SweepJobStatus:
        return self._sweep_snapshot(self._get_sweep_job(job_id))

    async def wait_sweep(
        self, job_id: str, timeout: Optional[float] = None
    ) -> api.SweepJobStatus:
        """Block until the sweep finishes (or ``timeout``), then snapshot."""
        job = self._get_sweep_job(job_id)
        if job.active and job.done_event is not None:
            try:
                await asyncio.wait_for(job.done_event.wait(), timeout)
            except asyncio.TimeoutError:
                pass  # return the still-running snapshot
        return self._sweep_snapshot(job)

    # -------------------------------------------------------------- telemetry
    def job_trace(self, job_id: str) -> api.TraceInfo:
        """Spans recorded so far for a (sweep) job — ``GET /v1/jobs/<id>/trace``.

        Finished jobs answer their full stitched trace; running jobs answer
        whatever spans have closed so far.  Jobs submitted while tracing was
        disabled have no trace and answer the structured ``no_trace`` error.
        """
        job = self._jobs.get(job_id) or self._sweep_jobs.get(job_id)
        if job is None:
            raise api.unknown_job(job_id)
        if job.trace_id is None:
            raise api.ApiError(
                "no_trace",
                f"job {job_id!r} has no recorded trace (tracing disabled at submit)",
                {"job_id": job_id},
            )
        spans = tuple(
            api.SpanInfo.from_json_dict(span)
            for span in get_tracer().spans_for(job.trace_id)
        )
        return api.TraceInfo(trace_id=job.trace_id, job_id=job_id, spans=spans)

    def trace_spans(self, trace_id: Optional[str]) -> Tuple[api.SpanInfo, ...]:
        """Typed spans for ``trace_id`` (empty when unknown or ``None``)."""
        if trace_id is None:
            return ()
        return tuple(
            api.SpanInfo.from_json_dict(span)
            for span in get_tracer().spans_for(trace_id)
        )


def _register_service_collectors(service: SynthesisService) -> None:
    """Mirror this service's live telemetry into the metrics registry.

    Registered as a pull collector (run on every scrape) holding only a weak
    reference — when the service is garbage collected the callback reports
    itself dead and the registry prunes it, so tests that build many
    short-lived services do not leak collectors.  All values are ``set`` as
    absolute snapshots of the service's own cumulative counters; nothing here
    shares a metric name with the ``inc``/merge-based pipeline metrics.
    """
    ref = weakref.ref(service)

    def _collect() -> bool:
        svc = ref()
        if svc is None:
            return False
        registry = get_registry()
        for key, value in svc.cache.stats.as_dict().items():
            registry.counter(
                f"repro_cache_{key}_total", f"Result cache cumulative {key} (service-local)"
            ).set(float(value))
        registry.gauge(
            "repro_cache_memory_entries", "Entries currently in the memory (LRU) tier"
        ).set(float(len(svc.cache)))
        registry.gauge(
            "repro_cache_manifest_generation",
            "Manifest generation this node's memory tier was warmed under",
        ).set(float(svc.cache.manifest_generation()))
        registry.gauge(
            "repro_jobs_queue_depth", "Jobs currently queued or running (jobs + sweeps)"
        ).set(float(svc.queue_depth()))
        registry.counter(
            "repro_jobs_enqueued_total", "Cold synthesize jobs accepted into the queue"
        ).set(float(svc.jobs_enqueued))
        registry.counter(
            "repro_jobs_warm_submissions_total", "Submissions answered inline from cache"
        ).set(float(svc.warm_submissions))
        registry.counter(
            "repro_sweeps_enqueued_total", "Sweep jobs accepted into the queue"
        ).set(float(svc.sweeps_enqueued))
        for key, value in intern_cache_stats().items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            registry.gauge(
                "repro_interner_table", "Formula intern table telemetry", labelnames=("key",)
            ).set(float(value), key=str(key))
        for key, value in shared_interner_metric_samples().items():
            registry.gauge(
                "repro_interner_shared",
                "Shared value-interner telemetry",
                labelnames=("key",),
            ).set(value, key=str(key))
        for key, value in last_tables_stats().items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            registry.gauge(
                "repro_proof_tables",
                "Most recent proof-search table telemetry",
                labelnames=("key",),
            ).set(float(value), key=str(key))
        return True

    get_registry().register_collector(_collect)


# --------------------------------------------------------------- HTTP plumbing
_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Request bodies past this size are rejected (no streaming uploads in v1).
MAX_BODY_BYTES = 1 << 20


@dataclass
class _HttpRequest:
    method: str
    path: str
    query: Dict[str, str]
    body: bytes
    headers: Dict[str, str] = field(default_factory=dict)


@dataclass
class _PlainText:
    """A non-JSON route payload: raw text plus its Content-Type."""

    text: str
    content_type: str = "text/plain; version=0.0.4; charset=utf-8"


async def _read_http_request(reader: asyncio.StreamReader) -> Optional[_HttpRequest]:
    request_line = await reader.readline()
    if not request_line or not request_line.strip():
        return None
    try:
        method, target, _version = request_line.decode("latin-1").split(None, 2)
    except ValueError:
        raise api.invalid_request(f"malformed HTTP request line {request_line!r}")
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise api.invalid_request("Content-Length is not an integer")
    if length < 0:
        raise api.invalid_request("Content-Length must be non-negative")
    if length > MAX_BODY_BYTES:
        raise api.invalid_request(f"request body exceeds {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    split = urlsplit(target)
    query = {key: values[-1] for key, values in parse_qs(split.query).items()}
    return _HttpRequest(
        method=method.upper(), path=split.path, query=query, body=body, headers=headers
    )


def _truthy(value: Optional[str]) -> bool:
    return (value or "").lower() in ("1", "true", "yes", "on")


def _encode_cursor(token: str) -> str:
    """Opaque page cursor over ``token`` (URL-safe, padding stripped)."""
    return base64.urlsafe_b64encode(token.encode("utf-8")).decode("ascii").rstrip("=")


def _decode_cursor(cursor: str) -> str:
    try:
        padded = cursor + "=" * (-len(cursor) % 4)
        return base64.urlsafe_b64decode(padded.encode("ascii")).decode("utf-8")
    except (ValueError, UnicodeError) as exc:
        raise api.invalid_request(f"malformed cursor {cursor!r}", cursor=cursor) from exc


def _limit_query(request: "_HttpRequest") -> Optional[int]:
    value = request.query.get("limit")
    if value is None:
        return None
    try:
        limit = int(value)
    except ValueError:
        raise api.invalid_request(f"limit must be an integer, got {value!r}")
    if limit < 1:
        raise api.invalid_request("limit must be at least 1")
    return limit


async def _route(service: SynthesisService, request: _HttpRequest) -> Tuple[int, object]:
    path, method = request.path, request.method
    v = f"/{api.API_VERSION}"
    if path == "/healthz":
        if method != "GET":
            raise api.ApiError("not_found", f"no route for {method} {path}")
        return 200, service.health()
    if path == f"{v}/problems":
        if method != "GET":
            raise api.ApiError("not_found", f"no route for {method} {path}")
        limit = _limit_query(request)
        cursor = request.query.get("cursor")
        if limit is None and cursor is None:
            # Legacy unpaginated shape: a bare JSON array.
            infos = service.list_problems(tag=request.query.get("tag"))
            return 200, [info.to_json_dict() for info in infos]
        page = service.list_problems_page(
            tag=request.query.get("tag"), limit=limit, cursor=cursor
        )
        return 200, page.to_json_dict()
    if path == f"{v}/synthesize":
        if method != "POST":
            raise api.ApiError("not_found", f"no route for {method} {path}")
        synth_request = api.SynthesizeRequest.from_json(request.body.decode("utf-8") or "{}")
        status = await service.submit(synth_request)
        if _truthy(request.query.get("wait")) and not status.finished:
            status = await service.wait(status.id)
        return _job_http_status(status), status.to_json_dict()
    if path == f"{v}/metrics":
        if method != "GET":
            raise api.ApiError("not_found", f"no route for {method} {path}")
        registry = get_registry()
        if request.query.get("format") == "json":
            return 200, registry.collect()
        return 200, _PlainText(registry.render_prometheus())
    if path.startswith(f"{v}/jobs/") and path.endswith("/trace"):
        job_id = path[len(f"{v}/jobs/") : -len("/trace")]
        if method != "GET" or not job_id:
            raise api.ApiError("not_found", f"no route for {method} {path}")
        return 200, service.job_trace(job_id).to_json_dict()
    if path.startswith(f"{v}/jobs/"):
        job_id = path[len(f"{v}/jobs/") :]
        if method == "GET":
            status = await service.job_status(job_id)
            return _job_http_status(status, poll=True), status.to_json_dict()
        if method == "DELETE":
            status = await service.cancel(job_id)
            return 200, status.to_json_dict()
        raise api.ApiError("not_found", f"no route for {method} {path}")
    if path == f"{v}/sweeps":
        if method != "POST":
            raise api.ApiError("not_found", f"no route for {method} {path}")
        submit = api.SweepSubmitRequest.from_json(request.body.decode("utf-8") or "{}")
        status = await service.submit_sweep(submit)
        if _truthy(request.query.get("wait")):
            # The legacy inline path: block, then answer with the bare
            # SweepResponse document (what `repro sweep` printed before
            # sweeps became jobs) — or the structured error on failure.
            status = await service.wait_sweep(status.id)
            if status.error is not None:
                raise api.ApiError.from_info(status.error)
            if status.result is None:
                raise api.ApiError("internal", f"sweep {status.id} finished without result")
            payload = status.result.to_json_dict()
            # Hand the caller this node's spans for the sweep so a remote
            # coordinator can stitch one fleet-wide trace across HTTP hops.
            job = service._sweep_jobs.get(status.id)
            spans = service.trace_spans(job.trace_id if job is not None else None)
            if spans:
                payload["spans"] = [span.to_json_dict() for span in spans]
                current = get_tracer().current_span()
                if current is not None:
                    payload["spans"].append(current.snapshot())
            return 200, payload
        return _sweep_http_status(status), status.to_json_dict()
    if path.startswith(f"{v}/sweeps/"):
        sweep_id = path[len(f"{v}/sweeps/") :]
        if method != "GET":
            raise api.ApiError("not_found", f"no route for {method} {path}")
        status = await service.sweep_status(sweep_id)
        return 200, status.to_json_dict()
    if path == f"{v}/witnesses":
        if method == "GET":
            return 200, service.list_witnesses(limit=_limit_query(request)).to_json_dict()
        if method == "PUT":
            payload = api.WitnessPayload.from_json(request.body.decode("utf-8") or "{}")
            return 200, service.import_witness(payload).to_json_dict()
        raise api.ApiError("not_found", f"no route for {method} {path}")
    if path.startswith(f"{v}/witnesses/"):
        digest = path[len(f"{v}/witnesses/") :]
        if method != "GET" or not digest:
            raise api.ApiError("not_found", f"no route for {method} {path}")
        return 200, service.get_witness(digest).to_json_dict()
    if path == f"{v}/cache/stats":
        if method != "GET":
            raise api.ApiError("not_found", f"no route for {method} {path}")
        stats = service.cache_stats(
            cache_dir=request.query.get("cache_dir"),
            limit=_limit_query(request),
            cursor=request.query.get("cursor"),
        )
        return 200, stats.to_json_dict()
    raise api.ApiError("not_found", f"no route for {method} {path}")


def _sweep_http_status(status: api.SweepJobStatus) -> int:
    """HTTP status for a fresh sweep submission (202 until terminal)."""
    if not status.finished:
        return 202
    if status.error is None:
        return 200
    return status.error.http_status


def _job_http_status(status: api.JobStatus, poll: bool = False) -> int:
    """HTTP status for a job snapshot: 202 while in flight, the structured
    error's status once failed (polls always 200 — the *resource* exists)."""
    if not status.finished:
        return 200 if poll else 202
    if poll or status.error is None:
        return 200
    return status.error.http_status


def _normalize_endpoint(path: str) -> str:
    """A bounded-cardinality endpoint label for HTTP metrics."""
    v = f"/{api.API_VERSION}"
    if path.startswith(f"{v}/jobs/"):
        return f"{v}/jobs/<id>/trace" if path.endswith("/trace") else f"{v}/jobs/<id>"
    if path.startswith(f"{v}/sweeps/"):
        return f"{v}/sweeps/<id>"
    if path.startswith(f"{v}/witnesses/"):
        return f"{v}/witnesses/<digest>"
    known = {
        "/healthz",
        f"{v}/problems",
        f"{v}/synthesize",
        f"{v}/sweeps",
        f"{v}/witnesses",
        f"{v}/cache/stats",
        f"{v}/metrics",
    }
    return path if path in known else "<other>"


async def _handle_connection(
    service: SynthesisService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    status, payload = 500, api.ApiError("internal", "unhandled server error").to_json_dict()
    endpoint, http_method = "<other>", "?"
    started = time.perf_counter()
    span = None
    record = False
    tracer = get_tracer()
    try:
        try:
            request = await _read_http_request(reader)
            if request is None:
                return
            endpoint = _normalize_endpoint(request.path)
            http_method = request.method
            parent = TraceContext.from_header(request.headers.get(TRACE_HEADER.lower()))
            span = tracer.span(
                "http.request", parent=parent, method=request.method, endpoint=endpoint
            )
            record = True
            status, payload = await _route(service, request)
        except api.ApiError as exc:
            record = True
            status, payload = exc.http_status, exc.to_json_dict()
        except (asyncio.IncompleteReadError, ConnectionError):
            return
        except Exception as exc:  # noqa: BLE001 - a request must never kill the server
            error = api.ApiError("internal", f"{type(exc).__name__}: {exc}")
            status, payload = error.http_status, error.to_json_dict()
        if isinstance(payload, _PlainText):
            body = payload.text.encode("utf-8")
            content_type = payload.content_type
        else:
            body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
            content_type = "application/json"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
    except ConnectionError:
        pass
    finally:
        if span is not None:
            span.set_attribute("status", status)
            span.finish()
        if record:
            registry = get_registry()
            registry.counter(
                "repro_http_requests_total",
                "HTTP requests served, by method/endpoint/status",
                labelnames=("method", "endpoint", "status"),
            ).inc(method=http_method, endpoint=endpoint, status=str(status))
            if status >= 500:
                registry.counter(
                    "repro_http_errors_total",
                    "HTTP requests answered with a 5xx status",
                    labelnames=("endpoint",),
                ).inc(endpoint=endpoint)
            registry.histogram(
                "repro_http_request_seconds",
                "Wall-clock seconds spent answering HTTP requests",
                labelnames=("endpoint",),
            ).observe(time.perf_counter() - started, endpoint=endpoint)
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


async def serve(
    service: SynthesisService,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    ready=None,
) -> None:
    """Serve the v1 HTTP API forever (``python -m repro serve``).

    ``ready`` — optional callable invoked with the bound port once the socket
    is listening (port 0 binds an ephemeral port; tests use this).
    """
    server = await asyncio.start_server(partial(_handle_connection, service), host, port)
    bound_port = server.sockets[0].getsockname()[1]
    if ready is not None:
        ready(bound_port)
    async with server:
        await server.serve_forever()


class BackgroundServer:
    """The HTTP front-end on a daemon thread — tests and embedded callers.

    ``with BackgroundServer(service) as handle: urlopen(handle.url + ...)``.
    Binds an ephemeral port by default; ``url`` is available after start.
    """

    def __init__(
        self,
        service: Optional[SynthesisService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service or SynthesisService()
        self.host = host
        self.port = port
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._listening = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(target=self._thread_main, daemon=True)
        self._thread.start()
        if not self._listening.wait(timeout=30):
            raise RuntimeError("background server did not start within 30s")
        if self._startup_error is not None:
            raise RuntimeError(f"background server failed to start: {self._startup_error}")
        return self

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced to start()
            self._startup_error = exc
            self._listening.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            partial(_handle_connection, self.service), self.host, self.port
        )
        self.port = server.sockets[0].getsockname()[1]
        self._listening.set()
        async with server:
            await self._stop.wait()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
